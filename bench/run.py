"""matnorm benchmark: one command, every metric, outputs checked.

    python3 bench/run.py --workload sim-grid --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Each workload runs in fresh single-threaded worker
processes (``worker.py``): four that only set up, for the set-up time, then
one that sets up, times whole rounds of operations for ``--seconds`` and
checks the outputs.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("sim-grid", "fit-wide", "analyze-dropout")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY_RUNS = 2
# Every worker of one run together; a worker still running then is killed.
RUN_TIMEOUT_S = 170


def spawn(args, setup_only: bool, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", WORKDIR,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"benchmark: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [spawn(args, True, deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    result = spawn(args, False, deadline)
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"rounds {result['rounds']} in {result['measured_s']:.1f} s, checks "
          f"{result['verify_s']:.1f} s, probe kernel {result['probe_kernel_s']} s, "
          f"setup_s samples {setups}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
