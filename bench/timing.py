"""Timing of the operations, corrected for the host's drifting CPU speed.

On the machine this benchmark was built on, the speed of one core drifts:
a fixed kernel took up to 1.6x its usual time for seconds to tens of
seconds at a stretch, so a whole run could land in a slow or a fast spell.
While operations run, ``SpeedProbe`` therefore times a small fixed kernel
every ``PERIOD_S`` seconds, from a timer signal, and each operation's wall
time (less the probe's own time) is reported at the speed at which that
kernel takes ``REFERENCE_KERNEL_S``:

    scaled_s = (wall_s - probe_s) * REFERENCE_KERNEL_S / median kernel time

The kernel touches only numpy, never the package, so a change to the
package moves the scaled time in full.  Set-up time is scaled the same way,
by ``kernel_now`` timed right after the set-up.
"""

from __future__ import annotations

import signal
import statistics
import time
import traceback

import numpy as np

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.002

_RNG = np.random.default_rng(20131001)
_SPD = (lambda g: g @ g.T + 20.0 * np.eye(20))(_RNG.standard_normal((20, 20)))
_STACK = _RNG.standard_normal((50, 20, 20))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small LAPACK, einsum and interpreter
    work, the mix the package's fits spend their time in."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        acc += float(np.einsum("nij,jk->", _STACK, np.linalg.cholesky(_SPD)))
        acc += sum(k * 0.5 for k in range(100))
    return time.perf_counter() - start


def kernel_now(times: int = 25) -> float:
    """Median of ``times`` back-to-back runs of the kernel: the speed now."""
    return statistics.median(reference_kernel() for _ in range(times))


class SpeedProbe:
    """Times ``reference_kernel`` every PERIOD_S seconds while active."""

    def __init__(self):
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        self.durations.append(reference_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Recorder:
    """Runs rounds of operations and keeps one sample per call.

    A sample is ``(seconds, units, kernel_s)``: the call's wall time less
    the probe time spent inside it, the work it stood for, and the median
    kernel time measured during it (or just before it, for calls shorter
    than the probe period).  Without a probe ``kernel_s`` is
    REFERENCE_KERNEL_S, so the times stay as measured.
    """

    def __init__(self, probe: "SpeedProbe | None" = None):
        self.probe = probe
        self.samples = {}
        self.attempted = 0
        self.failed = 0

    def round(self, ops, r: int) -> None:
        durations = self.probe.durations if self.probe else []
        for op, units, call in ops:
            first = len(durations)
            start = time.perf_counter()
            try:
                bad = call(r)
            except Exception:
                traceback.print_exc()
                bad = units
            seconds = time.perf_counter() - start
            inside = durations[first:]
            if self.probe is None:
                kernel = REFERENCE_KERNEL_S
            else:
                nearby = inside if inside else durations[-3:] or [reference_kernel()]
                kernel = statistics.median(nearby)
            self.samples.setdefault(op, []).append((seconds - sum(inside), units, kernel))
            self.attempted += units
            self.failed += bad


def scaled(samples: list) -> list:
    """``(seconds, units, kernel_s)`` samples -> ``(scaled seconds, units)``."""
    return [(s * REFERENCE_KERNEL_S / k, u) for s, u, k in samples]
