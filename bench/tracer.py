"""Spans around every public function of the matnorm package, from outside.

``Tracer.active`` replaces each public function defined in a ``matnorm``
module with a wrapper, at every module binding that holds it: the
defining module, the package namespace and every module that imported it
by name (``matnorm.spectral.log_density`` is the same function as
``matnorm.model.log_density``).  Calls made inside the package go through
those bindings, so nested calls nest as spans.  Private helpers
(``_e_step``, ``_m_step`` ...) are not wrapped: their cost shows in the
self time of the public function that calls them.

Spans are kept in memory as ``[name, start, end, parent]`` rows and
reduced to counts and self times at the end; nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import inspect
import logging
import os
import sys
import time
from contextlib import contextmanager

PACKAGE = "matnorm"


def package_modules() -> list:
    """Every imported module of the package, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions() -> dict:
    """``{function: "module.name"}`` for each public function the package defines."""
    found = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__.startswith(PACKAGE + ".")
                and obj.__name__ == attr
            ):
                found[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
    return found


@contextmanager
def rebound(replacements: dict):
    """Point every package binding of each key function at its replacement.

    Restores the original bindings on exit, whatever happened inside.
    """
    patched = []
    try:
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                new = replacements.get(obj) if inspect.isfunction(obj) else None
                if new is not None:
                    setattr(mod, attr, new)
                    patched.append((mod, attr, obj))
        yield
    finally:
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)


def _fit_iterations(args, kwargs, result) -> int:
    # fit_gem returns (params, FitResult); the other fits return an object
    # carrying ``iterations`` (FitResult or ClassModel).
    if isinstance(result, tuple):
        result = result[1]
    return int(result.iterations)


def _load_bytes(args, kwargs, result) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _write_bytes(args, kwargs, result) -> int:
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    return len(text.encode("utf-8"))


def _nonconverged(args, kwargs, result) -> int:
    return sum(not row.converged for row in result.rows)


# Quantities read off a call's arguments or result, as (counter, function).
METERS = {
    "missing.fit_em": ("iterations", _fit_iterations),
    "missing.fit_gem": ("iterations", _fit_iterations),
    "mle.fit_mle": ("iterations", _fit_iterations),
    "spectral.fit_class_models": ("iterations", _fit_iterations),
    "io.load_dataset": ("bytes", _load_bytes),
    "io.atomic_write_text": ("bytes", _write_bytes),
    "simulate.run_grid": ("nonconverged_fits", _nonconverged),
}


class _JitterCounter(logging.Handler):
    """Counts package log records that report a jitter fallback."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "jitter" in record.getMessage():
            self.count += 1


class Tracer:
    """In-memory span recorder for the package's public functions."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._jitter = _JitterCounter()

    def _wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        meter = METERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if meter is not None:
                key = f"{name}.{meter[0]}"
                counters[key] = counters.get(key, 0) + meter[1](args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Trace every public package function while the block runs."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_functions().items()}
        logger = logging.getLogger(PACKAGE)
        logger.addHandler(self._jitter)
        try:
            with rebound(wrappers):
                yield self
        finally:
            logger.removeHandler(self._jitter)

    @property
    def jitter_warnings(self) -> int:
        return self._jitter.count

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds."""
        return summarize(self.spans)

    def write(self, path: str) -> None:
        """Dump the spans as CSV rows ``index,name,start,end,parent``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def summarize(spans: list) -> dict:
    """Reduce spans to ``{name: {"calls", "total_s", "self_s"}}``.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, parent), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
    return out
