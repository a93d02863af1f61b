"""Record benchmark runs of one or more checkouts into ``BENCH_<label>.json``.

    python3 tools/bench_record.py pr21 --workload fit-wide --workload sim-grid \\
        --checkout parent=../parent --checkout change=.

For each workload and each of the ten seeds in ``SEEDS`` it runs, in every
checkout in turn,

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

one run at a time, with the checkout that goes first rotating by seed, so
that two checkouts are timed as ten alternating pairs.  T is
``run_seconds`` from ``BENCHMARK.json``, which fixes the run length.  It
reads each run's ``environment`` line and its result line (the last line of
standard output) and writes, per checkout and workload, every run (seed,
exit code, ``correct``, failed operations, metrics) and, per end-to-end
metric, the median, the quartiles, and the quartile distance over the
median next to the metric's bound in ``BENCHMARK.json``.  A spread wider than the bound
means the runs cannot resolve a change of that size.  Each checkout also
records its ``git rev-parse HEAD``.

Standard library only.  The seeds are fixed so that every recording is
comparable with the others.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Each bench/run.py run stops its own workers after 170 s; this only keeps a
# run that hangs outside them from holding the recorder for good.
RUN_TIMEOUT_S = 600
SEEDS = list(range(21, 31))


def parse_run(stdout: str) -> tuple:
    """(environment, result) read off one run's standard output; None for each absent.

    The result is the last line when it is a JSON object with ``metrics``: a
    run whose worker died prints none.
    """
    environment = result = None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("environment "):
            environment = json.loads(line[len("environment "):])
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
        if isinstance(last, dict) and "metrics" in last:
            result = last
    return environment, result


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list, bounds: dict) -> dict:
    """Per metric over the runs that printed a result: median, quartiles, spread.

    ``runs`` are records as :func:`record_run` makes them, ``bounds`` maps a
    metric to its relative bound.  ``spread`` is the quartile distance over
    the median; ``wider_than_bound`` flags a spread above the bound.
    """
    values, units = {}, {}
    for run in runs:
        for name, metric in (run.get("metrics") or {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name in sorted(values):
        q1, median, q3 = _quartiles(sorted(values[name]))
        spread = (q3 - q1) / abs(median) if median else None
        bound = bounds.get(name)
        summary[name] = {
            "unit": units[name],
            "runs": len(values[name]),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "wider_than_bound": None if bound is None or spread is None else spread > bound,
        }
    return summary


def record_run(checkout: str, workload: str, seed: int, seconds: int) -> tuple:
    """Run the benchmark once in ``checkout``; (environment, run record)."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        code, stdout = None, exc.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    environment, result = parse_run(stdout)
    run = {"seed": seed, "exit": code}
    if result is not None:
        run.update(
            correct=result["correct"],
            attempted=result["attempted"],
            failed=result["failed"],
            metrics=result["metrics"],
        )
    return environment, run


def git_head(checkout: str) -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _checkout(text: str) -> tuple:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, os.path.abspath(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument(
        "--checkout", type=_checkout, action="append",
        help="NAME=PATH of a source checkout to run (default: this one)",
    )
    args = parser.parse_args(argv)
    checkouts = args.checkout or [("head", ROOT)]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    sides = {
        name: {"head": git_head(path), "workloads": {}}
        for name, path in checkouts
    }
    for workload in args.workload:
        runs = {name: [] for name, _ in checkouts}
        environments = {}
        for k, seed in enumerate(SEEDS):
            turn = k % len(checkouts)
            for name, path in checkouts[turn:] + checkouts[:turn]:
                environment, run = record_run(path, workload, seed, seconds)
                if environment is not None:
                    environments.setdefault(name, environment)
                runs[name].append(run)
                print(
                    f"{workload} seed {seed} {name}: exit {run['exit']}, "
                    f"correct {run.get('correct')}",
                    file=sys.stderr, flush=True,
                )
        for name, _ in checkouts:
            sides[name]["workloads"][workload] = {
                "seeds": SEEDS,
                "environment": environments.get(name),
                "summary": summarize(runs[name], bounds),
                "runs": runs[name],
            }
    command = "bench/run.py --workload W --seed S --seconds %d --trace 0" % seconds
    with open(os.path.join(ROOT, f"BENCH_{args.label}.json"), "w") as handle:
        json.dump({"label": args.label, "command": command, "checkouts": sides},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
