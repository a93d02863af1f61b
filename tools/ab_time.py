"""Time one operation in two checkouts, call by call in one process.

    python3 tools/ab_time.py OLD NEW --op class-em-3x7 --pairs 120

OLD and NEW are checkouts (directories holding ``src/matnorm``).  Each
package is copied to a temporary directory under its own name,
``matnorm_old`` and ``matnorm_new``, so that both import side by side;
the inputs come from the benchmark's own ``bench/inputs.py`` of the
checkout this script sits in, at a fixed seed, so both sides fit the same
arrays.  After one untimed call on each side, each pair times one call of
each, the side that goes first alternating by pair.  One JSON line goes to
standard output: the op, the pair count, each side's median seconds and
the median over pairs of NEW's time over OLD's.

The operations are the benchmark's:

* ``class-em-3x7``: ``fit_class_models(..., "em")`` on three 3 x 7 classes
  of 100 observations with 10% MCAR holes (``analyze`` on sim-grid and
  fit-wide);
* ``class-em-dropout``: the same on three 5 x 10 classes of 200 with
  longitudinal dropout at rate 0.6 (``analyze`` on analyze-dropout);
* ``fit-em-3x7``: ``fit_em`` at 3 x 7, N = 1000, 20% MCAR;
* ``fit-em-8x16``: ``fit_em`` at 8 x 16, N = 500, 20% MCAR (fit-wide).

Run as a script, it pins BLAS to one thread, as the benchmark does,
unless ``OPENBLAS_NUM_THREADS`` is already set.  Standard library and numpy only; nothing
is written outside the temporary directory, which is removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 21
# op -> (kind, p, q, classes or None, observations per class or in all, holes, rate)
OPS = {
    "class-em-3x7": ("classes", 3, 7, 3, 100, "mcar", 0.10),
    "class-em-dropout": ("classes", 5, 10, 3, 200, "dropout", 0.6),
    "fit-em-3x7": ("fit", 3, 7, None, 1000, "mcar", 0.20),
    "fit-em-8x16": ("fit", 8, 16, None, 500, "mcar", 0.20),
}


def _inputs():
    spec = importlib.util.spec_from_file_location(
        "_ab_inputs", os.path.join(ROOT, "bench", "inputs.py")
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(op: str, seed: int = SEED) -> tuple:
    """(values, labels or None) for ``op``, drawn as the benchmark draws them."""
    import numpy as np  # after main() has pinned BLAS

    inputs = _inputs()
    kind, p, q, classes, n, holes, rate = OPS[op]
    rng = np.random.default_rng([seed, 7, 1309])
    blank = inputs.dropout if holes == "dropout" else inputs.mcar
    if kind == "classes":
        truth = inputs.class_truth(p, q, classes, 0.35)
        values, labels = inputs.draw_labeled(truth, n, rng)
        return blank(values, rate, rng), labels
    return blank(inputs.draw(inputs.truth(p, q), n, rng), rate, rng), None


def load(checkout: str, name: str, into: str):
    """Import ``checkout``'s ``src/matnorm`` as package ``name``, copied under ``into``."""
    source = os.path.join(checkout, "src", "matnorm")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        raise SystemExit(f"{checkout}: no src/matnorm package")
    shutil.copytree(source, os.path.join(into, name), ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def call(package, op: str, values, labels) -> None:
    if OPS[op][0] == "classes":
        package.fit_class_models(package.LabeledObservationSet(values, labels), "em")
    else:
        package.fit_em(package.ObservationSet(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--op", choices=sorted(OPS), required=True)
    parser.add_argument("--pairs", type=int, default=60)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    values, labels = build(args.op)
    with tempfile.TemporaryDirectory(prefix="ab_time-") as tmp:
        sys.path.insert(0, tmp)
        sides = {"old": load(args.old, "matnorm_old", tmp), "new": load(args.new, "matnorm_new", tmp)}
        for package in sides.values():
            call(package, args.op, values, labels)
        seconds = {"old": [], "new": []}
        for pair in range(args.pairs):
            for side in ("old", "new") if pair % 2 == 0 else ("new", "old"):
                begin = time.perf_counter()
                call(sides[side], args.op, values, labels)
                seconds[side].append(time.perf_counter() - begin)
        sys.path.remove(tmp)
    ratios = [new / old for old, new in zip(seconds["old"], seconds["new"])]
    print(json.dumps({
        "op": args.op,
        "pairs": args.pairs,
        "old_median_s": statistics.median(seconds["old"]),
        "new_median_s": statistics.median(seconds["new"]),
        "median_ratio": statistics.median(ratios),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
