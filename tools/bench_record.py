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

The throughputs are also summarized as seconds (``SECONDS_OF``): seconds
per fit for each ``grid_*_fits_per_s`` and seconds per 1000 observations
for ``classify_obs_per_s``, since a rate's spread grows with its speed-up.
With two checkouts, ``pairs`` holds per workload and metric how many of the
seeds the second checkout won, and whether the two medians lie further
apart than the first checkout's quartile distance.

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
# throughput -> (seconds metric, unit, units per rate unit)
SECONDS_OF = {
    "grid_mm_fits_per_s": ("grid_mm_s_per_fit", "s/fit", 1.0),
    "grid_em_fits_per_s": ("grid_em_s_per_fit", "s/fit", 1.0),
    "grid_gem_fits_per_s": ("grid_gem_s_per_fit", "s/fit", 1.0),
    "classify_obs_per_s": ("classify_s_per_1000_obs", "s/1000 obs", 1000.0),
}


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


def with_seconds(metrics: dict) -> dict:
    """A run's metrics plus the seconds each throughput in ``SECONDS_OF`` stands for."""
    out = dict(metrics)
    for name, (seconds, unit, per) in SECONDS_OF.items():
        rate = metrics.get(name, {}).get("value")
        if rate:
            out[seconds] = {"value": per / rate, "unit": unit}
    return out


def summarize(runs: list, bounds: dict) -> dict:
    """Per metric over the runs that printed a result: median, quartiles, spread.

    ``runs`` are records as :func:`record_run` makes them, ``bounds`` maps a
    metric to its relative bound.  ``spread`` is the quartile distance over
    the median; ``wider_than_bound`` flags a spread above the bound.  The
    seconds of ``SECONDS_OF`` are summarized too, with no bound.
    """
    values, units = {}, {}
    for run in runs:
        for name, metric in with_seconds(run.get("metrics") or {}).items():
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


def tally_pairs(first: list, second: list, better: dict) -> dict:
    """Per metric, how the second checkout's runs compare with the first's.

    ``first`` and ``second`` are the two checkouts' runs of one workload and
    ``better`` maps a metric to "lower" or "higher"; the seconds of
    ``SECONDS_OF`` are lower-better.  A pair is the two runs of one seed
    that both printed a result; the second wins it when strictly better.
    ``apart`` says whether the medians differ by more than the first
    checkout's quartile distance, the least gap its runs can resolve.
    """
    better = dict(better)
    better.update({seconds: "lower" for seconds, _, _ in SECONDS_OF.values()})
    sides = [
        {run["seed"]: with_seconds(run["metrics"]) for run in runs if run.get("metrics")}
        for runs in (first, second)
    ]
    tally = {}
    for name in sorted(better):
        values = [sorted(m[name]["value"] for m in side.values() if name in m) for side in sides]
        if not all(values):
            continue
        sign = 1.0 if better[name] == "lower" else -1.0
        pairs = [
            (a[name]["value"], sides[1][seed][name]["value"])
            for seed, a in sides[0].items()
            if name in a and name in sides[1].get(seed, {})
        ]
        q1, median_first, q3 = _quartiles(values[0])
        median_second = _quartiles(values[1])[1]
        tally[name] = {
            "pairs": len(pairs),
            "second_won": sum(sign * (b - a) < 0 for a, b in pairs),
            "median_first": median_first,
            "median_second": median_second,
            "first_quartile_distance": q3 - q1,
            "apart": abs(median_second - median_first) > q3 - q1,
        }
    return tally


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
    better = {
        m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    sides = {
        name: {"head": git_head(path), "workloads": {}}
        for name, path in checkouts
    }
    tallies = {}
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
        if len(checkouts) == 2:
            (first, _), (second, _) = checkouts
            tallies[workload] = {
                "first": first,
                "second": second,
                "metrics": tally_pairs(runs[first], runs[second], better),
            }
    command = "bench/run.py --workload W --seed S --seconds %d --trace 0" % seconds
    record = {"label": args.label, "command": command, "checkouts": sides}
    if tallies:
        record["pairs"] = tallies
    with open(os.path.join(ROOT, f"BENCH_{args.label}.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
