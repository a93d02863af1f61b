"""The three workloads and the operations every round of them runs.

Every workload runs the same user-facing operations, so every end-to-end
metric is measured on every workload:

* ``run_grid`` once per method (mm, em, gem) over the workload's grid,
* ``fit_em``, ``fit_mm`` and ``fit_mle`` on the workload's fit inputs,
* ``matnorm analyze --method em`` in-process on a labeled CSV, and
  ``mle_classify`` on a held-out complete set.

What differs is the input each operation gets.  Each workload puts one
layer under load (the grid, the wide fits, or the dropout class
analysis) and gives the other operations the same small 3x5 / 3x7 inputs
(``SIDE_*``), which are cheap next to the loaded part.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, replace

import numpy as np

import checks
import inputs
import timing


@dataclass(frozen=True)
class GridSpec:
    """A ``run_grid`` configuration and the cells replayed to check it."""

    dims: tuple
    sizes: tuple
    miss: tuple
    replicates: int
    checked: tuple  # (p, q, n, prop) cells whose fits are checked

    @property
    def fits(self) -> int:
        return len(self.dims) * len(self.sizes) * len(self.miss) * self.replicates


@dataclass(frozen=True)
class FitInput:
    """One direct fit: shape, sample size, MCAR share (0 for complete data),
    and how many back-to-back calls one timed sample spans, so a cheap fit
    is timed over at least a few probe periods."""

    p: int
    q: int
    n: int
    prop: float
    calls: int = 1


@dataclass(frozen=True)
class FitSpec:
    """Inputs of the three direct fits, and how often a round runs them."""

    em: FitInput
    mm: FitInput
    mle: FitInput
    repeats: int


@dataclass(frozen=True)
class ClassSpec:
    """A labeled set for ``analyze`` and a held-out set for ``mle_classify``."""

    p: int
    q: int
    classes: int
    per_class: int
    missing: str  # "mcar" or "dropout"
    rate: float
    separation: float
    heldout_per_class: int
    pcs: int
    repeats: int


@dataclass(frozen=True)
class Workload:
    name: str
    grid: GridSpec
    fits: FitSpec
    labeled: ClassSpec


PAPER_GRID = GridSpec(
    dims=((3, 5), (3, 7)),
    sizes=(250, 500, 1000),
    miss=(0.05, 0.10, 0.15, 0.20),
    replicates=1,
    checked=(
        (3, 5, 250, 0.05),
        (3, 5, 500, 0.10),
        (3, 5, 1000, 0.15),
        (3, 7, 250, 0.20),
        (3, 7, 500, 0.05),
        (3, 7, 1000, 0.10),
    ),
)
SIDE_GRID = GridSpec(
    dims=((3, 5),), sizes=(250,), miss=(0.10,), replicates=16, checked=((3, 5, 250, 0.10),)
)
WIDE_FITS = FitSpec(
    em=FitInput(8, 16, 500, 0.20), mm=FitInput(16, 32, 300, 0.10),
    mle=FitInput(16, 32, 300, 0.0), repeats=1,
)
SIDE_FITS = FitSpec(
    em=FitInput(3, 7, 1000, 0.20), mm=FitInput(3, 7, 1000, 0.20, calls=5),
    mle=FitInput(3, 7, 1000, 0.0, calls=5), repeats=3,
)
DROPOUT_CLASSES = ClassSpec(
    p=5, q=10, classes=3, per_class=200, missing="dropout", rate=0.6,
    separation=0.35, heldout_per_class=1000, pcs=2, repeats=1,
)
SIDE_CLASSES = ClassSpec(
    p=3, q=7, classes=3, per_class=100, missing="mcar", rate=0.10,
    separation=0.35, heldout_per_class=300, pcs=2, repeats=3,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-grid", PAPER_GRID, SIDE_FITS, SIDE_CLASSES),
        Workload("fit-wide", SIDE_GRID, WIDE_FITS, SIDE_CLASSES),
        Workload("analyze-dropout", SIDE_GRID, SIDE_FITS, DROPOUT_CLASSES),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to run in seconds, for the benchmark's tests."""
    return replace(
        w,
        grid=GridSpec(((3, 4),), (60,), (0.1,), 1, ((3, 4, 60, 0.1),)),
        fits=FitSpec(FitInput(3, 4, 80, 0.2), FitInput(3, 4, 80, 0.2, calls=2),
                     FitInput(3, 4, 80, 0.0, calls=2), 1),
        labeled=replace(w.labeled, p=3, q=4, per_class=25, heldout_per_class=20, repeats=1),
    )


def grid_seed(seed: int, round_index: int) -> int:
    """Each round runs the grid on fresh draws, so a run averages over several."""
    return seed * 100_000 + round_index


# End-to-end metric -> (operation, reduction, unit).  A sample's units are
# the fits, calls or observations it timed.  "rate" is units over seconds,
# both summed across the run; "median" the median seconds per unit;
# "per_median" one over that median.  Seconds are the scaled seconds of
# timing.py.
END_TO_END = {
    "grid_mm_fits_per_s": ("grid_mm", "rate", "fits/s"),
    "grid_em_fits_per_s": ("grid_em", "rate", "fits/s"),
    "grid_gem_fits_per_s": ("grid_gem", "rate", "fits/s"),
    "fit_em_s": ("fit_em", "median", "s"),
    "fit_mm_s": ("fit_mm", "median", "s"),
    "fit_mle_s": ("fit_mle", "median", "s"),
    "analyze_s": ("analyze", "median", "s"),
    "classify_obs_per_s": ("classify", "per_median", "obs/s"),
}


def reduce_samples(samples: dict) -> dict:
    """``{op: [(seconds, units, kernel_s), ...]}`` -> the END_TO_END values."""
    out = {}
    for metric, (op, how, unit) in END_TO_END.items():
        scaled = timing.scaled(samples[op])
        if how == "rate":
            value = sum(u for _, u in scaled) / sum(s for s, _ in scaled)
        else:
            value = statistics.median(s / u for s, u in scaled)
            if how == "per_median":
                value = 1.0 / value
        out[metric] = (value, unit)
    return out


def _mn(params) -> tuple:
    return params.mean, params.row_cov, params.col_cov, params.scale


def _full_cov(params) -> np.ndarray:
    return params.scale * np.kron(params.col_cov, params.row_cov)


def _outcome(row) -> np.ndarray:
    """The seed-determined fields of a grid row (every field but the time)."""
    return np.array([row.rel_err_sigma, row.rel_err_mu, row.iterations, row.converged], float)


# Replicates of a checked grid cell that are replayed and checked; the draws
# of replicate k do not depend on how many replicates a call asks for.
CHECKED_REPLICATES = 2

# Each fit and each labeled set comes in POOL draws; successive calls of an
# operation cycle through them, so a run's median averages over several
# data sets instead of riding on the iteration count of one.
POOL = 3


class Session:
    """Inputs of one workload for one seed, its operations and their checks.

    Construction does the set-up: it generates every input and writes the
    labeled CSVs.  ``operations`` lists the calls of one round in order;
    ``verify`` checks the first output of each call on each draw.
    """

    def __init__(self, workload: Workload, seed: int, workdir: str):
        import matnorm
        import matnorm.cli  # noqa: F401  (analyze calls it; the tracer wraps it)

        self.mn = matnorm
        self.w = workload
        self.seed = seed
        rng = np.random.default_rng([seed, 7, 1309])
        self.fit_sets = {}
        for method in ("em", "mm", "mle"):
            f = getattr(workload.fits, method)
            t = inputs.truth(f.p, f.q)
            clean = [inputs.draw(t, f.n, rng) for _ in range(POOL)]
            values = [inputs.mcar(v, f.prop, rng) for v in clean] if f.prop else clean
            self.fit_sets[method] = (t, values)

        c = workload.labeled
        self.class_truth = inputs.class_truth(c.p, c.q, c.classes, c.separation)
        blank = inputs.dropout if c.missing == "dropout" else inputs.mcar
        os.makedirs(workdir, exist_ok=True)
        self.class_sets = []
        for d in range(POOL):
            values, labels = inputs.draw_labeled(self.class_truth, c.per_class, rng)
            values = blank(values, c.rate, rng)
            heldout, _ = inputs.draw_labeled(self.class_truth, c.heldout_per_class, rng)
            csv_path = os.path.join(workdir, f"{workload.name}-labeled-{d}.csv")
            inputs.write_csv(csv_path, values, labels)
            outdir = os.path.join(workdir, f"{workload.name}-report-{d}")
            shutil.rmtree(outdir, ignore_errors=True)
            self.class_sets.append({
                "values": values, "labels": labels, "heldout": heldout, "csv": csv_path,
                "outdir": outdir,
            })
        self.kept = {}

    def _prepare(self):
        """Program objects the timed calls take: data sets, the class model."""
        mn = self.mn
        self.fit_data = {
            method: [mn.ObservationSet(v) for v in values]
            for method, (_, values) in self.fit_sets.items()
        }
        params = [
            mn.MatrixNormalParams(t.mean, t.row, t.col, t.scale) for t in self.class_truth.classes
        ]
        for prm in params:
            prm.row_cov = params[0].row_cov  # one shared row factor object, as fits hold
        heldout = self.class_sets[0]["heldout"]
        self.model = mn.ClassModel(
            class_params=params, completions=heldout, labels=np.ones(len(heldout), int),
            method="em", loglik_trace=np.zeros(1), iterations=0, wall_time=0.0, converged=True,
        )
        self.pca = mn.pca_row_cov(self.model, self.w.labeled.pcs)

    def operations(self) -> list:
        """``(op, units, call)`` in round order; ``call(round)`` returns the
        number of its units that failed."""
        self._prepare()
        g = self.w.grid
        ops = [(f"grid_{m}", g.fits, self._grid(m)) for m in ("mm", "em", "gem")]
        f_rep = self.w.fits.repeats
        for j in range(f_rep):
            for method in ("em", "mm", "mle"):
                calls = getattr(self.w.fits, method).calls
                ops.append((f"fit_{method}", calls, self._fit(method, j, f_rep, calls)))
        c_rep = self.w.labeled.repeats
        for j in range(c_rep):
            ops += [("analyze", 1, self._analyze(j, c_rep)),
                    ("classify", len(self.class_sets[0]["heldout"]), self._classify(j, c_rep))]
        return ops

    def _grid(self, method):
        g = self.w.grid

        def call(r):
            cfg = self.mn.SimConfig(
                dims=g.dims, sample_sizes=g.sizes, miss_props=g.miss,
                replicates=g.replicates, seed=grid_seed(self.seed, r), methods=(method,),
            )
            report = self.mn.run_grid(cfg)
            if r == 0:
                self.kept.setdefault(("grid", method), report)
            return sum(not np.isfinite(row.rel_err_sigma) for row in report.rows)

        return call

    def _fit(self, method, j, repeats, calls):
        fitter = {"em": self.mn.fit_em, "mm": self.mn.fit_mm, "mle": self.mn.fit_mle}[method]

        def call(r):
            d = (r * repeats + j) % POOL
            for _ in range(calls):
                self.kept.setdefault(("fit", method, d), fitter(self.fit_data[method][d]))
            return 0

        return call

    def _analyze(self, j, repeats):
        from matnorm import cli

        def call(r):
            s = self.class_sets[(r * repeats + j) % POOL]
            code = cli.main([
                "analyze", "--input", s["csv"], "--method", "em",
                "--pcs", str(self.w.labeled.pcs), "--outdir", s["outdir"],
            ])
            # 3 means the class fit stopped at max_iters: the reports are written.
            return 0 if code in (0, 3) else 1

        return call

    def _classify(self, j, repeats):
        def call(r):
            d = (r * repeats + j) % POOL
            labels = self.mn.mle_classify(
                self.class_sets[d]["heldout"], self.model, self.pca, self.w.labeled.pcs
            )
            self.kept.setdefault(("classify", d), labels)
            return 0

        return call

    # -- checks ------------------------------------------------------------

    def verify(self) -> list:
        errors = self._verify_grid()
        for (kind, *key), out in sorted(self.kept.items(), key=lambda kv: str(kv[0])):
            if kind == "fit":
                errors += self._verify_fit(*key, out)
            elif kind == "classify":
                errors += self._verify_classify(key[0], out)
        for d, s in enumerate(self.class_sets):
            if os.path.exists(os.path.join(s["outdir"], "summary.json")):
                errors += self._verify_analyze(d, s)
        return errors

    def _verify_fit(self, method, d, result) -> list:
        truth, values = self.fit_sets[method]
        what = f"fit_{method} draw {d}"
        params = _mn(result.params)
        if method == "em":
            return checks.check_em(values[d], *params, result.loglik_trace, truth, what)[0]
        if method == "mm":
            return checks.check_mm(values[d], *params, what)
        return checks.check_trace(result.loglik_trace, what) + checks.check_mle(
            values[d], *params, what
        )

    def _verify_classify(self, d, labels) -> list:
        c = self.class_truth.classes
        scores = checks.projected_scores(
            self.class_sets[d]["heldout"],
            [(t.mean, t.row, t.col, t.scale) for t in c],
            checks.leading_basis(c[0].row, self.w.labeled.pcs),
        )
        return checks.check_labels(scores, labels, f"mle_classify draw {d}")

    def _verify_analyze(self, d, s) -> list:
        import json

        mn = self.mn
        what = f"analyze draw {d}"
        model = mn.fit_class_models(mn.LabeledObservationSet(s["values"], s["labels"]), "em")
        errors = checks.check_trace(model.loglik_trace, what)
        with open(os.path.join(s["outdir"], "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        # The CLI reads the CSV into a differently strided array, so sums may
        # run in another order: equal to roundoff, not bit for bit.
        ll = float(model.loglik_trace[-1])
        if abs(summary["loglik"] - ll) > checks.LOGLIK_RTOL * max(1.0, abs(ll)) or (
            summary["iterations"] != model.iterations
        ):
            errors.append(f"{what}: summary.json does not match a direct fit of the same data")
        scores = checks.projected_scores(
            model.completions,
            [_mn(prm) for prm in model.class_params],
            checks.leading_basis(model.row_cov, self.w.labeled.pcs),
        )
        return errors + checks.check_report(s["outdir"], scores, s["labels"], model.row_cov, what)

    def _verify_grid(self) -> list:
        """Replay the checked cells of round 0 with every method in one call,
        keeping each draw and fit, and check them against the timed rows."""
        import matnorm.missing as missing
        import matnorm.simulate as simulate
        from tracer import rebound

        mn = self.mn
        g = self.w.grid
        errors = []
        for m in ("mm", "em", "gem"):
            rows = self.kept[("grid", m)].rows
            cap = mn.FitConfig().max_iters
            if len(rows) != g.fits or any(not 1 <= row.iterations <= cap for row in rows
                                          if np.isfinite(row.rel_err_sigma)):
                errors.append(f"grid {m}: {len(rows)} rows or iterations out of range")
        draws = []

        def keeper(key, fn):
            def kept(*a, **k):
                if key == "truth":  # the first call of each replicate
                    draws.append({})
                draws[-1][key] = fn(*a, **k)
                return draws[-1][key]
            return kept

        swaps = {
            fn: keeper(key, fn)
            for key, fn in (
                ("truth", simulate.random_params), ("data", simulate.inject_missing),
                ("mm", missing.fit_mm), ("em", missing.fit_em), ("gem", missing.fit_gem),
            )
        }
        for p, q, n, prop in g.checked:
            cfg = mn.SimConfig(
                dims=((p, q),), sample_sizes=(n,), miss_props=(prop,),
                replicates=min(g.replicates, CHECKED_REPLICATES), seed=grid_seed(self.seed, 0),
                methods=("mm", "gem", "em"),
            )
            start = len(draws)
            with rebound(swaps):
                replay = mn.run_grid(cfg)
            for row in replay.rows:
                timed = [
                    _outcome(t) for t in self.kept[("grid", row.method)].rows
                    if (t.p, t.q, t.n, t.miss_prop, t.replicate)
                    == (row.p, row.q, row.n, row.miss_prop, row.replicate)
                ]
                if len(timed) != 1 or not np.array_equal(timed[0], _outcome(row), equal_nan=True):
                    errors.append(f"grid {row.method} {p}x{q} N={n} miss={prop}: "
                                  "replayed row differs from the timed row")
            for rep, d in enumerate(draws[start:]):
                rows = {row.method: row for row in replay.rows if row.replicate == rep}
                errors += self._check_draw(d, rows, f"grid {p}x{q} N={n} miss={prop} #{rep}")
        return errors

    def _check_draw(self, d: dict, rows: dict, what: str) -> list:
        t = d["truth"]
        truth = inputs.Truth(t.mean, t.row_cov, t.col_cov, t.scale)
        values = d["data"].values
        em = d["em"]
        errors, ll_em = checks.check_em(
            values, *_mn(em.params), em.loglik_trace, truth, f"{what} em"
        )
        gem_params, gem_result = d["gem"]
        errors += checks.check_trace(gem_result.loglik_trace, f"{what} gem")
        errors += checks.check_gem(
            values, gem_params.mean, gem_params.cov, gem_result.converged, ll_em, f"{what} gem"
        )
        errors += checks.check_mm(values, *_mn(d["mm"].params), f"{what} mm")
        for method, cov in (
            ("em", _full_cov(em.params)), ("mm", _full_cov(d["mm"].params)), ("gem", gem_params.cov)
        ):
            errors += checks.check_rel_err_sigma(
                cov, truth, rows[method].rel_err_sigma, f"{what} {method}"
            )
        return errors
