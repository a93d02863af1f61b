"""One benchmark process: pin BLAS, set a workload up, time its rounds, check.

Started by ``run.py``; prints one JSON line on standard output.  The thread
variables are set before numpy is first imported, because OpenBLAS reads
them once, when the library loads.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Per-layer metrics of the traced run, per traced round, with their units.
# "<module>.<function>.<stat>": calls, self_s (span time minus child
# spans), iterations (summed from the returned fit), s_per_iter (span time
# over iterations) or bytes (read or written).
PER_LAYER = [
    ("missing.detect_pattern.self_s", "s"),
    ("missing.fit_em.self_s", "s"),
    ("missing.fit_em.iterations", "count"),
    ("missing.fit_em.s_per_iter", "s"),
    ("missing.fit_gem.self_s", "s"),
    ("missing.fit_gem.iterations", "count"),
    ("missing.fit_gem.s_per_iter", "s"),
    ("missing.fit_mm.self_s", "s"),
    ("mle.fit_mle.self_s", "s"),
    ("mle.fit_mle.iterations", "count"),
    ("mle.fit_mle.s_per_iter", "s"),
    ("model.full_log_likelihood.calls", "count"),
    ("model.full_log_likelihood.self_s", "s"),
    ("model.log_density.calls", "count"),
    ("model.log_density.self_s", "s"),
    ("model.sample.self_s", "s"),
    ("linalg.spd_inverse.calls", "count"),
    ("linalg.spd_inverse.self_s", "s"),
    ("linalg.spd_cholesky.calls", "count"),
    ("linalg.kron.calls", "count"),
    ("simulate.run_grid.self_s", "s"),
    ("simulate.inject_missing.self_s", "s"),
    ("simulate.random_params.self_s", "s"),
    ("simulate.relative_error_sigma.self_s", "s"),
    ("simulate.nonconverged_fits", "count"),
    ("spectral.fit_class_models.self_s", "s"),
    ("spectral.fit_class_models.iterations", "count"),
    ("spectral.fit_class_models.s_per_iter", "s"),
    ("spectral.mle_classify.self_s", "s"),
    ("spectral.project.self_s", "s"),
    ("spectral.pca_row_cov.self_s", "s"),
    ("spectral.distance_matrix.self_s", "s"),
    ("spectral.hierarchical_cluster.self_s", "s"),
    ("io.load_dataset.self_s", "s"),
    ("io.load_dataset.bytes", "B"),
    ("io.atomic_write_text.self_s", "s"),
    ("io.atomic_write_text.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("cli.cmd_analyze.self_s", "s"),
    ("jitter_warnings", "count"),
    ("trace_spans", "count"),
    ("trace_overhead_s", "s"),
]


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read from the library."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({
            line.split()[-1] for line in handle
            if "openblas" in line.lower() and ".so" in line.split()[-1]
        })
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def import_package():
    """Import matnorm from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import matnorm
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import matnorm from {SRC}: {exc}")
    where = os.path.realpath(matnorm.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"benchmark: matnorm came from {where}, not from {SRC}")


def per_layer(tracer, rounds: int, plain: list, traced: list) -> dict:
    spans = tracer.summary()
    counters = tracer.counters
    out = {}
    for name, unit in PER_LAYER:
        if name == "jitter_warnings":
            value = tracer.jitter_warnings / rounds
        elif name == "trace_spans":
            value = len(tracer.spans) / rounds
        elif name == "trace_overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "simulate.nonconverged_fits":
            value = counters.get("simulate.run_grid.nonconverged_fits", 0) / rounds
        else:
            fn, stat = name.rsplit(".", 1)
            span = spans.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            if stat == "s_per_iter":
                iters = counters.get(f"{fn}.iterations", 0)
                value = span["total_s"] / iters if iters else 0.0
            elif stat in ("iterations", "bytes"):
                value = counters.get(f"{fn}.{stat}", 0) / rounds
            else:
                value = span[stat] / rounds
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, HERE)
    import timing
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    session = workloads.Session(workload, args.seed, args.workdir)
    ops = session.operations()
    setup_s = time.monotonic() - args.spawned_at
    setup_s *= timing.REFERENCE_KERNEL_S / timing.kernel_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    begin = time.perf_counter()
    r = 0

    def another_round() -> bool:
        # Start a round while the run would end within half a round of
        # --seconds, so a run measures --seconds on average.
        elapsed = time.perf_counter() - begin
        return r == 0 or elapsed + 0.5 * elapsed / r < args.seconds

    if args.trace:
        # Per-layer times stay as measured: no probe runs inside the spans.
        rec = timing.Recorder()
        tracer = Tracer()
        plain, traced = [], []
        while another_round():
            for times, ctx in ((plain, nullcontext()), (traced, tracer.active())):
                start = time.perf_counter()
                with ctx:
                    rec.round(ops, r)
                times.append(time.perf_counter() - start)
            r += 1
        metrics = per_layer(tracer, r, plain, traced)
        tracer.write(os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.csv"))
    else:
        with timing.SpeedProbe() as probe:
            rec = timing.Recorder(probe)
            while another_round():
                rec.round(ops, r)
                r += 1
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workloads.reduce_samples(rec.samples).items()
        }
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        with open(os.path.join(args.workdir, f"samples-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(rec.samples, handle)

    measured_s = time.perf_counter() - begin
    try:
        errors = session.verify()
    except Exception:
        errors = ["verification raised:\n" + traceback.format_exc()]
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "rounds": r,
        "measured_s": measured_s,
        "verify_s": time.perf_counter() - begin - measured_s,
        "probe_kernel_s": statistics.median(probe.durations) if not args.trace else None,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": not errors,
        "metrics": metrics,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
