"""Monte Carlo harness comparing the missing-data estimators.

Runs a grid over matrix shapes, sample sizes, and missingness proportions:
each cell draws fresh parameters, samples data, masks entries completely at
random, fits every requested method on the identical masked data, and
records relative errors and timings.  Seeding is derived per cell and
replicate, so the generated data does not depend on which methods run, and
rerunning a configuration reproduces every number except the timings.
"""

from __future__ import annotations

import logging
import math
import numbers
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from .io import _csv_text
from .mle import EstimationError, FitConfig
from .missing import UnstructuredParams, fit_em, fit_gem, fit_mm
from .model import MatrixNormalParams, ObservationSet, _whole_labels, sample

logger = logging.getLogger(__name__)

_METHODS = ("mm", "gem", "em")
_REJECTION_CAP = 1000
_NAN = float("nan")


@dataclass
class SimConfig:
    """Grid description for :func:`run_grid`.

    Defaults reproduce the study scale this package ships benchmarks for:
    two shapes, three sample sizes, four missingness levels, 100 replicates
    per cell, all three estimators.
    """

    dims: tuple = ((3, 5), (3, 7))
    sample_sizes: tuple = (250, 500, 1000)
    miss_props: tuple = (0.05, 0.10, 0.15, 0.20)
    replicates: int = 100
    seed: int = 0
    methods: tuple = _METHODS
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        dims = tuple(map(tuple, _whole_labels(self.dims, "dims entry").tolist()))
        if not dims or any(p < 1 or q < 1 for p, q in dims):
            raise ValueError(f"invalid dims {self.dims!r}")
        self.dims = dims
        sizes = _whole_labels(self.sample_sizes, "sample_sizes entry")
        self.sample_sizes = tuple(sizes.tolist())
        if not self.sample_sizes or any(n < 2 for n in self.sample_sizes):
            raise ValueError(f"invalid sample sizes {self.sample_sizes!r}")
        self.miss_props = tuple(float(x) for x in self.miss_props)
        if not self.miss_props or any(not 0 <= x < 1 for x in self.miss_props):
            raise ValueError(f"missing proportions must lie in [0, 1): {self.miss_props!r}")
        self.replicates = int(_whole_labels(self.replicates, "replicates"))
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        # an int passes as it is, so a seed past int64 still reaches numpy
        if not isinstance(self.seed, numbers.Integral):
            self.seed = int(_whole_labels(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        methods = tuple(dict.fromkeys(m.lower() for m in self.methods))
        unknown = [m for m in methods if m not in _METHODS]
        if unknown or not methods:
            raise ValueError(
                f"methods must be a non-empty subset of {_METHODS}, got {self.methods!r}"
            )
        self.methods = methods


@dataclass
class SimRow:
    """One fitted replicate of one grid cell."""

    method: str
    p: int
    q: int
    n: int
    miss_prop: float
    replicate: int
    rel_err_sigma: float
    rel_err_mu: float
    runtime_seconds: float
    iterations: int
    converged: bool


_CSV_HEADER = (
    "method", "p", "q", "N", "miss_prop", "replicate", "rel_err_sigma",
    "rel_err_mu", "runtime_seconds", "iterations", "converged",
)


@dataclass(eq=False)
class SimReport:
    """Replicate rows plus tabular renderers."""

    rows: list

    def sorted_rows(self) -> list:
        return sorted(
            self.rows,
            key=lambda r: (r.method, r.p, r.q, r.n, r.miss_prop, r.replicate),
        )

    def csv_text(self) -> str:
        return _csv_text(
            _CSV_HEADER,
            ([*astuple(r)[:-1], "true" if r.converged else "false"] for r in self.sorted_rows()),
        )

    def summary(self) -> dict:
        """Per-cell medians over replicates, NaN-tolerant."""
        cells = {}
        for r in self.rows:
            cells.setdefault((r.method, r.p, r.q, r.n, r.miss_prop), []).append(r)
        out = []
        for key in sorted(cells):
            method, p, q, n, prop = key
            group = cells[key]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", category=RuntimeWarning)
                med_sigma = float(np.nanmedian([r.rel_err_sigma for r in group]))
                med_mu = float(np.nanmedian([r.rel_err_mu for r in group]))
                med_time = float(np.nanmedian([r.runtime_seconds for r in group]))
                # a failed replicate's row holds 0 iterations and a NaN time
                done = [r.iterations for r in group if not np.isnan(r.runtime_seconds)]
                med_iters = float(np.nanmedian(done))
            out.append(
                {
                    "method": method,
                    "p": p,
                    "q": q,
                    "N": n,
                    "miss_prop": prop,
                    "replicates": len(group),
                    "converged_fraction": sum(r.converged for r in group) / len(group),
                    "median_rel_err_sigma": med_sigma,
                    "median_rel_err_mu": med_mu,
                    "median_runtime_seconds": med_time,
                    "median_iterations": med_iters,
                }
            )
        return {"format_version": 1, "cells": out}


def random_params(
    p: int, q: int, seed: "int | np.random.Generator"
) -> MatrixNormalParams:
    """Draw a well conditioned random parameter set.

    Covariance shapes are Wishart-like draws with a ridge
    (``G @ G.T / dim + 0.1 I``) normalized at the top-left entry, the mean
    is standard normal, and the scale is log-uniform on [0.5, 2].
    """
    if p < 1 or q < 1:
        raise ValueError(f"dimensions must be >= 1, got ({p}, {q})")
    rng = np.random.default_rng(seed)

    def shape(dim: int) -> np.ndarray:
        g = rng.standard_normal((dim, dim))
        raw = g @ g.T / dim + 0.1 * np.eye(dim)
        return raw / raw[0, 0]

    row_cov = shape(p)
    col_cov = shape(q)
    mean = rng.standard_normal((p, q))
    scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return MatrixNormalParams(mean, row_cov, col_cov, scale)


def inject_missing(
    data: ObservationSet, prop: float, seed: "int | np.random.Generator"
) -> ObservationSet:
    """Blank a fixed number of entries uniformly at random.

    Exactly ``round(prop * n * p * q)`` entries are masked, redrawing the
    whole mask when some observation would lose its last observed entry.
    """
    if not 0 <= prop < 1:
        raise ValueError(f"prop must lie in [0, 1), got {prop}")
    values = data.values
    n, p, q = values.shape
    total = n * p * q
    k = int(round(prop * total))
    if k == 0:
        return ObservationSet(values.copy())
    if k > n * (p * q - 1):
        raise ValueError(
            f"cannot blank {k} of {total} entries while keeping one observed "
            "entry per observation"
        )
    rng = np.random.default_rng(seed)
    for _ in range(_REJECTION_CAP):
        flat = rng.choice(total, size=k, replace=False)
        mask = np.zeros(total, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(n, p, q)
        if mask.all(axis=(1, 2)).any():
            continue
        masked = values.copy()
        masked[mask] = np.nan
        return ObservationSet(masked)
    raise EstimationError(
        f"could not draw a mask keeping every observation observed in "
        f"{_REJECTION_CAP} attempts"
    )


def relative_error_sigma(
    est: "MatrixNormalParams | UnstructuredParams", truth: MatrixNormalParams
) -> float:
    """Relative Frobenius error of the full pq x pq covariance."""
    truth_full = truth.full_covariance()
    if isinstance(est, UnstructuredParams):
        est_full = est.cov
    else:
        est_full = est.full_covariance()
    if est_full.shape != truth_full.shape:
        raise ValueError(
            f"covariance shape {est_full.shape} does not match truth {truth_full.shape}"
        )
    return float(np.linalg.norm(est_full - truth_full) / np.linalg.norm(truth_full))


def relative_error_mean(
    est: "MatrixNormalParams | UnstructuredParams", truth: MatrixNormalParams
) -> float:
    """Relative Frobenius error of the mean matrix."""
    est_mean = est.mean_matrix() if isinstance(est, UnstructuredParams) else est.mean
    if est_mean.shape != truth.mean.shape:
        raise ValueError(
            f"mean shape {est_mean.shape} does not match truth {truth.mean.shape}"
        )
    denom = float(np.linalg.norm(truth.mean))
    diff = float(np.linalg.norm(est_mean - truth.mean))
    return diff / denom if denom > 1e-12 else diff


def _replicate_rngs(
    seed: int, p: int, q: int, n: int, prop: float, rep: int
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Three independent streams (parameters, sampling, masking) per replicate.

    Derived from the cell coordinates, not from the method list, so every
    method subset sees identical data.
    """
    root = np.random.SeedSequence(
        entropy=seed, spawn_key=(p, q, n, int(round(prop * 1e6)), rep)
    )
    return tuple(np.random.default_rng(child) for child in root.spawn(3))


def _fit_one(method: str, data: ObservationSet, cfg: FitConfig):
    """(estimate, fit metadata) for one method name."""
    if method == "gem":
        return fit_gem(data, cfg)
    if method in ("mm", "em"):
        result = (fit_mm if method == "mm" else fit_em)(data, cfg)
        return result.params, result
    raise ValueError(f"unknown method {method!r}")


def run_grid(cfg: SimConfig, progress=None) -> SimReport:
    """Execute the whole grid, never aborting on individual fit failures.

    ``progress`` may be a callable taking one status string per finished
    cell.
    """
    rows = []
    for p, q in cfg.dims:
        for n in cfg.sample_sizes:
            for prop in cfg.miss_props:
                for rep in range(cfg.replicates):
                    params_rng, sample_rng, miss_rng = _replicate_rngs(
                        cfg.seed, p, q, n, prop, rep
                    )
                    truth = random_params(p, q, params_rng)
                    clean = sample(truth, n, sample_rng)
                    masked = inject_missing(clean, prop, miss_rng)
                    for method in cfg.methods:
                        rows.append(
                            _run_replicate(method, masked, truth, cfg.fit, prop, rep)
                        )
                if progress is not None:
                    progress(
                        f"cell p={p} q={q} N={n} miss={prop:g}: "
                        f"{cfg.replicates} replicates done"
                    )
    return SimReport(rows=rows)


def _run_replicate(
    method: str,
    masked: ObservationSet,
    truth: MatrixNormalParams,
    fit_cfg: FitConfig,
    prop: float,
    rep: int,
) -> SimRow:
    n, p, q = masked.values.shape
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est, meta = _fit_one(method, masked, fit_cfg)
        outcome = (
            relative_error_sigma(est, truth),
            relative_error_mean(est, truth),
            meta.wall_time,
            meta.iterations,
            meta.converged,
        )
    except (EstimationError, np.linalg.LinAlgError) as exc:
        logger.warning("fit %s failed on replicate %d: %s", method, rep, exc)
        outcome = (_NAN, _NAN, _NAN, 0, False)
    return SimRow(method, p, q, n, prop, rep, *outcome)
