"""Complete data maximum likelihood for the matrix normal distribution.

The mean estimate is the elementwise sample mean.  The covariance factors
have no closed form jointly: each is the closed form maximizer given the
other, so the fit alternates the two updates, renormalizes the top-left
entries to 1, and re-derives the variance scale, until the log likelihood
stops moving.  The updates read the data only through the sample mean
and the pq x pq scatter of the residuals about it, so a fit centers
complete data once and, when n is large next to pq and pq small next to
p + q, iterates on the pq rows of the residuals' R factor instead of the
n residuals (``_residual_rows``).  The log likelihood reads no data: each
update maximizes over the scale, where the scaled quadratic forms sum to
p * q * n, so it is a function of the scale and the two factors' log
determinants alone.

Every fit shares this machinery: ``_iterate`` is the one iteration loop
(trace, unit-free convergence test, timing, record), run only by
``matnorm.missing._fit_classes``, the one driver behind ``fit_mle``,
``fit_mm``, ``fit_em``, ``fit_gem`` (the Kronecker model of one row) and
the class fit; and ``_pooled_m_step`` is the one closed form update,
which pools the row factor over classes and adds the conditional
covariance of missing entries: each class hands it in as one grid, summed
in one ``_scatter_add``, that the two accumulators contract with the row
and the column precision.  A factor update that fails to factor gets one
diagonal boost (``_normalized_spd_update``).
Each factor is factored once per parameter set: the Cholesky factorization
that checks a new factor also gives the inverse and log determinant that
the next E-step and M-step read.

EM converges linearly, at a rate set by the fraction of missing
information, so when the data have holes ``_fit_classes`` lets the loop
extrapolate: after each plain update it tries a squared extrapolation
(SQUAREM, Varadhan & Roland 2008) along the last two updates, and keeps
the point only when one update from it ends no lower than the plain
update did.  The loop owns the step (``_squarem_point``); the model maps
its coordinates both ways, into them (``_squarem_coordinates``, which the
stop reads too) and back to a checked parameter set
(``_squarem_params``).  The complete data fits keep plain steps; they
settle in a few iterations, where an extrapolation cycle costs more than
it saves.
"""

from __future__ import annotations

import logging
import math
import numbers
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import spd_inverse
from .model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    _first_missing,
    _precisions,
    _quadratic_forms,
)

logger = logging.getLogger(__name__)

_SCALE_FLOOR = 1e-300
# the one-shot diagonal boost of a covariance update that fails to factor
_JITTER = 1e-8
# the unit-free step below which a plain update stops the fit (see _iterate)
_STEP_TOL = 1e-10
# A complete data fit runs on the pq rows of its residuals' R factor
# (_residual_rows) when n > _QR_MIN_DEPTH * pq and pq <= _QR_MAX_WIDTH *
# (p + q).  The QR costs about 2 n (pq)**2 flops once; each of the three
# passes an iteration makes over the data then reads pq rows instead of n.
# fit_mle time with the QR over without it (median of 31 interleaved fits,
# BLAS on one thread, 2-core host), by pq / (p + q): 1.02-1.19 at n = pq +
# 1, 1.02-1.07 at n = 1.5 pq and 0.96-1.08 at n = 2 pq for shapes up to
# 7x14; at N=1000, 0.50 at 3x7 (2.1), 0.54 at 5x10 (3.3) and 0.58-0.71 at
# 6x12 (4.0).  Wider, the gain depends on the shape: 0.59-0.74 at 7x14
# (4.7) and 0.68 at 9x18 (6.0), but 0.84-1.19 at 8x16 (5.3), 1.20 at 12x24
# N=1152 (8.0), and 1.21-2.30 at 16x32 (10.7) for N = 1024 to 3000.
_QR_MIN_DEPTH = 2
_QR_MAX_WIDTH = 4


def _warn(message: str) -> None:
    """Warn at the first frame outside the package, so the warning names the caller.

    ``warnings.warn``'s ``skip_file_prefixes`` would do this from Python 3.12.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith("matnorm."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a usable parameter set."""


class SingularUpdateError(EstimationError):
    """Raised when a covariance update stays singular after jitter."""


@dataclass
class FitConfig:
    """Knobs shared by every fitting routine.

    ``max_iters`` caps the accepted updates, and ``tol`` stops on the
    log-likelihood change per observed entry; a step on the model's
    unit-free coordinates below ``_STEP_TOL`` stops the fit too (whichever
    triggers first, see :func:`_iterate`).  A covariance update that fails
    to factor gets one diagonal boost of ``_JITTER``.
    """

    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}"
            )
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")


@dataclass(eq=False)
class FitResult:
    """Outcome of a fit: parameters plus the convergence record.

    ``loglik_trace[0]`` is the objective at the initial parameters and each
    later entry follows one accepted update, plain or extrapolated (see
    :func:`_iterate`), so ``iterations == len(trace) - 1`` updates were
    accepted.  ``params`` is None only for fits whose natural output is not
    a matrix normal parameter set.
    """

    params: "MatrixNormalParams | None"
    loglik_trace: np.ndarray
    iterations: int
    wall_time: float
    converged: bool


def _pinned_factor(shape: np.ndarray) -> "tuple | None":
    """A positive definite shape pinned to ``[0, 0] = 1`` and factored once.

    Returns the pinned factor, its (inverse, log determinant) and the
    constant divided out, or None when the shape is not positive definite.
    """
    top = shape[0, 0]
    if not top > _SCALE_FLOOR:
        return None
    pinned = shape / top
    try:
        return pinned, spd_inverse(pinned), top
    except np.linalg.LinAlgError:
        return None


def _normalized_spd_update(raw: np.ndarray, name: str) -> tuple:
    """Scale a raw scatter style update to unit top-left entry, jitter once.

    Returns the normalized matrix, its (inverse, log determinant) from the
    Cholesky factorization that checks it (:func:`_pinned_factor`; a shape
    that fails to factor gets one diagonal boost of ``_JITTER``), and the
    scale split off: the top-left entry, or after jitter ``sum(inverse *
    raw) / dim``, the scale that maximizes the likelihood at the jittered
    shape.
    """
    pinned = _pinned_factor(raw)
    jittered = pinned is None
    if jittered:
        logger.warning("added jitter %g to a degenerate %s update", _JITTER, name)
        pinned = _pinned_factor(raw + _JITTER * np.eye(raw.shape[0]))
        if pinned is None:
            raise SingularUpdateError(f"{name} update is singular even after jitter")
    mat, fac, top = pinned
    scale = float(np.sum(fac[0] * raw)) / raw.shape[0] if jittered else float(top)
    if not scale > _SCALE_FLOOR:
        raise SingularUpdateError(f"{name} update collapsed to zero")
    return mat, fac, scale


def _grid_pairs(idx: np.ndarray, dim: int) -> np.ndarray:
    """Flat positions of ``(idx[b, a], idx[b, c])`` on a dim x dim grid, (B, m, m)."""
    return idx[:, :, None] * dim + idx[:, None, :]


def _scatter_add(pairs: np.ndarray, contrib: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``contrib`` onto a grid of ``shape`` at the flat positions ``pairs``.

    Repeated positions accumulate: one weighted count over the flattened grid.
    """
    flat = pairs.ravel()
    grid = np.bincount(flat, weights=contrib.ravel(), minlength=math.prod(shape))
    return grid.reshape(shape)


def _col_accumulator(
    resid: np.ndarray,
    row_prec: np.ndarray,
    grid: "np.ndarray | None",
    scale_old: float,
) -> np.ndarray:
    """Expected column-side scatter: completed products plus conditional mass.

    The completed part is ``sum_n resid_n.T @ row_prec @ resid_n``.  The
    conditional part contracts the (q, q, p, p) grid of summed scale free
    conditional covariances (see :func:`matnorm.missing._conditional_grid`)
    with the row precision over its row coordinates, times the old scale.
    ``grid`` is None for complete data.
    """
    q = resid.shape[2]
    acc = resid.reshape(-1, q).T @ (row_prec @ resid).reshape(-1, q)
    if grid is not None:
        acc += scale_old * (grid.reshape(q * q, -1) @ row_prec.ravel()).reshape(q, q)
    return (acc + acc.T) / 2.0


def _row_accumulator(
    resid: np.ndarray,
    col_prec: np.ndarray,
    grid: "np.ndarray | None",
    scale_old: float,
) -> np.ndarray:
    """Row-side counterpart of :func:`_col_accumulator`."""
    p, q = resid.shape[1:]
    weighted = (resid.reshape(-1, q) @ col_prec).reshape(resid.shape)
    acc = np.matmul(weighted, resid.transpose(0, 2, 1)).sum(axis=0)
    if grid is not None:
        acc += scale_old * (col_prec.ravel() @ grid.reshape(q * q, -1)).reshape(p, p)
    return (acc + acc.T) / 2.0


def _centered(values: np.ndarray) -> tuple:
    """(sample mean, residuals about it, count) of an (n, p, q) stack."""
    mean = values.mean(axis=0)
    return mean, values - mean, values.shape[0]


def _residual_rows(resid: np.ndarray) -> np.ndarray:
    """A (k, p, q) stack with the same scatter as the (n, p, q) residuals.

    With n > ``_QR_MIN_DEPTH * pq`` and pq at most ``_QR_MAX_WIDTH * (p +
    q)``, the pq rows of the R factor of the n x pq residual matrix T, as
    a (pq, p, q) stack: ``T.T @ T == R.T @ R``, so every quadratic form
    summed over them, and so each accumulator, equals the sum over the n
    residuals.  Otherwise the residuals themselves.  QR, and not the pq x
    pq scatter ``T.T @ T``, keeps the summed forms as accurate as the
    per-observation ones when the factors are ill conditioned.
    """
    n, p, q = resid.shape
    if n <= _QR_MIN_DEPTH * p * q or p * q > _QR_MAX_WIDTH * (p + q):
        return resid
    return np.linalg.qr(resid.reshape(n, p * q), mode="r").reshape(-1, p, q)


def _pooled_m_step(grids: list, completions: list, old: list) -> list:
    """Closed form update of K classes that share one row factor.

    Every argument holds one entry per class: the grid of summed scale free
    conditional covariances (None for complete data), the conditional
    completions, and the current parameters.  A class whose data do not
    change between updates may hand in its :func:`_centered` tuple (mean,
    residual rows, count) in place of its completions.  The rows may be
    any whose scatter ``sum_k vec(r_k) vec(r_k).T`` equals the residuals',
    such as the rows of their R factor (:func:`_residual_rows`).
    Each class gets its mean and its column factor with a provisional scale,
    the joint maximizer of the expected complete log likelihood at the old
    row factor; the row factor then pools every class's row-side scatter,
    weighted by that class's scale.  Each sub-step is a conditional
    maximizer (ECM), so the observed likelihood cannot decrease.
    Renormalizing the pooled factor moves a constant into every class
    scale, which leaves the class covariances unchanged.  With one class
    this is the Kronecker EM update, and with complete data the flip-flop.
    The old row precision is the one ``old`` carries; each new factor
    leaves with the inverse and log determinant of its checking Cholesky
    (:func:`_normalized_spd_update`, which jitters a factor once).
    """
    p, q = old[0].p, old[0].q
    (row_prec_old, _), _ = _precisions(old[0])

    pooled = np.zeros((p, p))
    blocks, n_total = [], 0
    for grid, comp, prm in zip(grids, completions, old):
        mean_new, resid, count = comp if isinstance(comp, tuple) else _centered(comp)
        n_total += count
        col_raw = _col_accumulator(resid, row_prec_old, grid, prm.scale)
        col_raw = col_raw / (p * count)
        col_new, col_fac, scale_mid = _normalized_spd_update(col_raw, "column covariance")
        pooled += _row_accumulator(resid, col_fac[0], grid, prm.scale) / scale_mid
        blocks.append((mean_new, col_new, col_fac, scale_mid))

    row_raw = pooled / (q * n_total)
    row_new, row_fac, kappa = _normalized_spd_update(row_raw, "row covariance")
    # The same row_new object goes into every class.
    return [
        MatrixNormalParams._factored(mean, row_new, col, kappa * mid, row_fac, col_fac)
        for mean, col, col_fac, mid in blocks
    ]


def _sd(prm: MatrixNormalParams) -> float:
    """The largest standard deviation in the covariance of ``prm``."""
    return math.sqrt(prm.scale * prm.row_cov.diagonal().max() * prm.col_cov.diagonal().max())


def _squarem_coordinates(sets: list, like: list) -> np.ndarray:
    """The Kronecker model's coordinates: means, factor shapes, log scales.

    ``sets`` and the reference ``like`` hold K classes sharing one row
    factor.  Each mean enters over its reference class's :func:`_sd`, each
    factor over its trace and each scale as the log of the scale that goes
    with those shapes, so the vector permutes with the rows and columns of
    the data, and its differences on one reference do not see the units.
    """
    row = sets[0].row_cov
    row_trace = np.trace(row)
    parts = [row.ravel() / row_trace]
    for prm, ref in zip(sets, like):
        col_trace = np.trace(prm.col_cov)
        log_scale = math.log(prm.scale * row_trace * col_trace)
        parts += [prm.mean.ravel() / _sd(ref), prm.col_cov.ravel() / col_trace, [log_scale]]
    return np.concatenate(parts)


def _squarem_point(coordinates, point, start, first, second):
    """The squared extrapolation (SQUAREM) point of two updates, or None.

    ``start`` is theta0, ``first`` the update theta1 = F(theta0) and
    ``second`` theta2 = M(E(theta1)), each read as x0, x1, x2 on the
    model's ``coordinates(set, start)``.  With r = x1 - x0 and v = x2 - 2 x1
    + x0, the point is x = x0 - 2 alpha r + alpha^2 v at the step alpha =
    min(-|r| / |v|, -1) (Varadhan & Roland, 2008); alpha = -1 gives x2
    back.  A finite x goes back to a parameter set through the model's
    ``point(x, start)``, which returns None when x is not a valid set; a
    point that is not finite is None too.
    """
    x0, x1, x2 = (coordinates(s, start) for s in (start, first, second))
    r = x1 - x0
    v = x2 - x1 - r
    r_norm, v_norm = float(np.linalg.norm(r)), float(np.linalg.norm(v))
    alpha = min(-r_norm / v_norm, -1.0) if v_norm > 0 else -1.0
    x = x0 - 2.0 * alpha * r + alpha * alpha * v
    return point(x, start) if np.isfinite(x).all() else None


def _squarem_params(x: np.ndarray, like: list) -> "list | None":
    """The Kronecker sets at ``x`` on :func:`_squarem_coordinates` on ``like``.

    ``like`` holds K classes sharing one row factor.  Each factor is pinned
    to ``[0, 0] = 1`` and factored once (:func:`_pinned_factor`), every
    class gets the one row factor, and each mean is multiplied back by its
    reference class's :func:`_sd`.  None when a factor leaves the SPD cone
    or a scale is not a positive finite number: the loop then continues
    from theta2, so a rejected point costs no jitter and no error.
    """
    p, q = like[0].p, like[0].q
    row = _pinned_factor(x[: p * p].reshape(p, p))
    if row is None:
        return None
    row_new, row_fac, row_top = row
    sets, at = [], p * p
    for ref in like:
        mean = x[at : at + p * q].reshape(p, q) * _sd(ref)
        col = _pinned_factor(x[at + p * q : at + p * q + q * q].reshape(q, q))
        log_scale = x[at + p * q + q * q]
        at += p * q + q * q + 1
        if col is None:
            return None
        col_new, col_fac, col_top = col
        with np.errstate(over="ignore"):
            scale = float(np.exp(log_scale)) * row_top * col_top
        if not _SCALE_FLOOR < scale < math.inf:
            return None
        sets.append(
            MatrixNormalParams._factored(mean, row_new, col_new, scale, row_fac, col_fac)
        )
    return sets


def _iterate(
    e_step, m_step, coordinates, params, entries, cfg: FitConfig, start: float,
    point=None,
):
    """Alternate E- and M-steps from ``params`` until the objective settles.

    ``e_step(params)`` returns a tuple of the moments the M-step needs whose
    last entry is the objective at ``params``, and ``m_step(params,
    moments)`` returns the updated parameters.  Each plain update is
    recorded, and stops the loop when its objective change per observed
    entry (``entries`` of them) is below ``cfg.tol``, or its step below
    ``_STEP_TOL``: the largest change of the model's unit-free
    ``coordinates(params, like)``, both sets taken on the old as ``like``.

    Given ``point(x, like)``, the model's way back from the same
    coordinates (such as :func:`_squarem_params`), the loop also takes
    SQUAREM steps: each plain update theta1 = F(theta0) that does not stop
    the loop is followed by theta2 = M(E(theta1)), with no E-step at
    theta2, the point theta' of :func:`_squarem_point`, and theta_new =
    F(theta').  theta_new is recorded when its objective is at least
    theta1's, without a convergence test (an extrapolated step says little
    about how settled the fit is); otherwise, when there is no point, or
    when a step from the point fails to factor, the loop takes the E-step
    at theta2 and records it as a plain update.  So the trace ascends whenever the plain updates
    do, and the moments of one E-step at a time are held.  ``start`` is the
    caller's entry time, so ``wall_time`` covers the whole call.  Returns
    the final parameters, the moments at them, and the fit record, whose
    ``params`` the caller sets.
    """
    moments = e_step(params)
    trace = [moments[-1]]
    converged = False

    def record(loglik, new=None, old=None):
        # a plain update is tested against the set it came from
        nonlocal converged
        if old is not None:
            converged = bool(
                abs(loglik - trace[-1]) < cfg.tol * entries
                or np.abs(coordinates(new, old) - coordinates(old, old)).max() < _STEP_TOL
            )
        trace.append(loglik)
        how = "" if old is not None else " (extrapolated)"
        logger.debug("iteration %d: loglik %.10g%s", len(trace) - 1, loglik, how)

    while not converged and len(trace) <= cfg.max_iters:
        new_params = m_step(params, moments)
        del moments  # not held while the E-step builds the next ones
        moments = e_step(new_params)
        record(moments[-1], new_params, params)
        origin, params = params, new_params
        if converged or point is None or len(trace) > cfg.max_iters:
            continue
        second = m_step(params, moments)
        del moments
        trial = _squarem_point(coordinates, point, origin, params, second)
        if trial is not None:
            try:
                moments = e_step(trial)
                candidate = m_step(trial, moments)
                del moments
                moments = e_step(candidate)
            except (EstimationError, np.linalg.LinAlgError):
                moments = None  # a trial that fails falls back like one that descends
            if moments is not None and moments[-1] >= trace[-1]:
                record(moments[-1])
                params = candidate
                continue
            del moments
        moments = e_step(second)
        record(moments[-1], second, params)
        params = second
    result = FitResult(
        params=None,
        loglik_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        wall_time=time.perf_counter() - start,
        converged=converged,
    )
    return params, moments, result


def _observed_cell_means(values: np.ndarray) -> np.ndarray:
    """Per-cell mean of the observed entries; cells never observed warn and get 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mean = np.nanmean(values, axis=0)
    blank = np.isnan(mean)
    if blank.any():
        r, c = (int(v) for v in np.argwhere(blank)[0])
        _warn(
            f"cell (row {r}, column {c}) is missing in every observation; "
            "its mean starts at 0"
        )
        mean = np.where(blank, 0.0, mean)
    return mean


def _identity_start(mean: np.ndarray, sq_dev: float) -> MatrixNormalParams:
    """Identity shapes (their own inverses) at ``mean``, the spread ``sq_dev`` as scale.

    A spread of 0 gives scale 1.0.
    """
    p, q = mean.shape
    scale = float(sq_dev) if sq_dev > 0 else 1.0
    return MatrixNormalParams._factored(
        mean, np.eye(p), np.eye(q), scale, (np.eye(p), 0.0), (np.eye(q), 0.0)
    )


def _initial_params(values: np.ndarray) -> MatrixNormalParams:
    """The start of a class with holes: identity shapes at the observed cell means.

    The scale is the mean square of the observed entries about those means.
    A class without holes starts from its centered rows instead (see
    :func:`matnorm.missing._fit_classes`).
    """
    mean = _observed_cell_means(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        sq_dev = np.nanmean((values - mean) ** 2)
    return _identity_start(mean, sq_dev)


def _check_sample_size(values: np.ndarray, need: int, model: str) -> None:
    """Refuse fewer than 2 observations; warn at no more than ``need``.

    The warning names ``model`` and points at the package's caller.
    """
    n = values.shape[0]
    if n < 2:
        raise EstimationError(f"at least 2 observations required, got {n}")
    if n <= need:
        _warn(
            f"only {n} observations for {model}; the covariance estimate "
            f"may be degenerate without more than {need} observations"
        )


def fit_mle(data: ObservationSet, config: "FitConfig | None" = None) -> FitResult:
    """Maximum likelihood fit on fully observed data.

    Raises :class:`~matnorm.model.DataError` when missing entries are
    present.  With fewer observations than max(p, q) the alternating
    updates may not have a unique optimum; the fit proceeds but warns.

    The fit is :func:`matnorm.missing._fit_classes` on one class without
    holes: centered once, its updates read the rows of
    :func:`_residual_rows`, and its start and every log likelihood come in
    closed form, with no pass over the data after the centering.
    """
    from .missing import _complete, _fit_one_class  # missing imports this module

    start = time.perf_counter()
    values = data.values
    if np.isnan(values).any():
        i, r, c = _first_missing(values)
        raise DataError(
            f"fit_mle requires complete data; first missing entry at "
            f"observation {i}, row {r}, column {c}"
        )
    return _fit_one_class(_complete(values), config or FitConfig(), start)


def stationarity_residual(data: ObservationSet, params: MatrixNormalParams) -> float:
    """How far a parameter set is from solving its own estimating equations.

    Recomputes each block (mean, both covariance factors, scale) from the
    data with the other blocks held at ``params`` and returns the largest
    relative Frobenius distance.  Zero exactly at a fixed point of the fit,
    so this certifies a claimed optimum without rerunning it.
    """
    values = data.values
    if np.isnan(values).any():
        raise DataError("stationarity_residual requires complete data")
    n, p, q = values.shape
    mean_hat = values.mean(axis=0)
    resid = values - mean_hat
    (row_prec, _), (col_prec, _) = _precisions(params)

    col_raw = _col_accumulator(resid, row_prec, None, params.scale) / (p * n)
    col_hat = col_raw / col_raw[0, 0]
    row_raw = _row_accumulator(resid, col_prec, None, params.scale) / (q * n)
    row_hat = row_raw / row_raw[0, 0]
    dist = _quadratic_forms(resid, row_prec, col_prec)
    scale_hat = float(np.sum(dist)) / (p * q * n)

    def rel(est: np.ndarray, ref: np.ndarray) -> float:
        est = np.atleast_2d(np.asarray(est, dtype=float))
        ref = np.atleast_2d(np.asarray(ref, dtype=float))
        return float(
            np.linalg.norm(est - ref) / max(1e-12, np.linalg.norm(ref))
        )

    return max(
        rel(mean_hat, params.mean),
        rel(col_hat, params.col_cov),
        rel(row_hat, params.row_cov),
        rel(np.array([[scale_hat]]), np.array([[params.scale]])),
    )
