"""The scaled matrix normal distribution.

A random p x q matrix X follows this law when vec(X) is multivariate normal
with mean vec(M) and covariance ``scale * kron(col_cov, row_cov)``, where
``row_cov`` (p x p) couples the rows, ``col_cov`` (q x q) couples the
columns, and ``scale`` carries the overall variance.  The two covariance
factors are unit free shapes pinned to ``factor[0, 0] == 1``; without that
constraint the pair (row_cov, col_cov, scale) would only be identified up to
a positive constant traded between them.

The log density of one observation is

    -(p*q/2) * log(2*pi*scale)
    - (q/2) * logdet(row_cov) - (p/2) * logdet(col_cov)
    - mahalanobis(x) / (2*scale)

with the scale free quadratic form

    mahalanobis(x) = trace(inv(col_cov) @ (x - M).T @ inv(row_cov) @ (x - M))

which equals the vectorized quadratic form under ``kron(col_cov, row_cov)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import ensure_spd, kron, spd_cholesky, spd_inverse, vec

_NORMALIZATION_TOL = 1e-6


class DataError(ValueError):
    """Raised when data does not satisfy an operation's observability needs."""


def _first_missing(values: np.ndarray) -> tuple[int, int, int]:
    """(observation, row, column) of the first NaN in an (n, p, q) array."""
    where = np.argwhere(np.isnan(values))
    i, r, c = (int(v) for v in where[0])
    return i, r, c


@dataclass(eq=False)
class MatrixNormalParams:
    """Parameter set (mean, row_cov, col_cov, scale).

    ``mean`` is p x q in data units, the covariance factors are unitless SPD
    shapes, and ``scale`` is the variance multiplier in data units squared.
    By default both factors must satisfy the ``[0, 0] == 1`` identifiability
    convention; pass ``require_normalized=False`` for intermediate values
    that deliberately live off that constraint.
    """

    mean: np.ndarray
    row_cov: np.ndarray
    col_cov: np.ndarray
    scale: float
    require_normalized: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.ndim != 2:
            raise ValueError(f"mean must be 2-d, got shape {self.mean.shape}")
        if not np.isfinite(self.mean).all():
            r, c = np.argwhere(~np.isfinite(self.mean))[0]
            raise ValueError(f"mean[{r}, {c}] = {self.mean[r, c]} is not finite")
        self.row_cov = ensure_spd(self.row_cov, "row_cov")
        self.col_cov = ensure_spd(self.col_cov, "col_cov")
        p, q = self.mean.shape
        if self.row_cov.shape != (p, p):
            raise ValueError(
                f"row_cov shape {self.row_cov.shape} does not match mean rows {p}"
            )
        if self.col_cov.shape != (q, q):
            raise ValueError(
                f"col_cov shape {self.col_cov.shape} does not match mean columns {q}"
            )
        self.scale = float(self.scale)
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be a positive finite number, got {self.scale}")
        if self.require_normalized:
            for name, cov in (("row_cov", self.row_cov), ("col_cov", self.col_cov)):
                if abs(cov[0, 0] - 1.0) > _NORMALIZATION_TOL:
                    raise ValueError(
                        f"{name}[0, 0] = {cov[0, 0]!r}; covariance factors must be "
                        "normalized to 1 at the top-left entry"
                    )

    @classmethod
    def _factored(cls, mean, row_cov, col_cov, scale, row_fac, col_fac):
        """A fit's update, unchecked, with each factor's (inverse, log determinant)."""
        params = cls.__new__(cls)
        params.mean, params.row_cov, params.col_cov = mean, row_cov, col_cov
        params.scale, params.require_normalized = scale, True
        params._factors = ((row_cov, *row_fac), (col_cov, *col_fac))
        return params

    @property
    def p(self) -> int:
        return self.mean.shape[0]

    @property
    def q(self) -> int:
        return self.mean.shape[1]

    def full_covariance(self) -> np.ndarray:
        """Covariance of the column-stacked observation, scale included."""
        return self.scale * kron(self.col_cov, self.row_cov)


@dataclass(eq=False)
class ObservationSet:
    """A stack of n matrices of shape p x q with NaN marking missing entries.

    Every observation must retain at least one observed entry; a fully
    blank observation carries no information and would break conditioning.
    Infinite entries are rejected.  The values are stored C-contiguous, so
    a set fits the same, bit for bit, whatever the layout it was built from.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError(
                f"values must have shape (n, p, q), got {self.values.shape}"
            )
        n, p, q = self.values.shape
        if n < 1 or p < 1 or q < 1:
            raise ValueError(f"values must be non-empty, got shape {self.values.shape}")
        if np.isinf(self.values).any():
            i, r, c = (int(v) for v in np.argwhere(np.isinf(self.values))[0])
            raise DataError(
                f"infinite entry at observation {i}, row {r}, column {c}; "
                "mark missing entries with NaN"
            )
        all_missing = np.isnan(self.values).all(axis=(1, 2))
        if all_missing.any():
            i = int(np.flatnonzero(all_missing)[0])
            raise DataError(f"observation {i} has no observed entries")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def q(self) -> int:
        return self.values.shape[2]

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def _whole_labels(labels, what: str = "label") -> np.ndarray:
    """Whole numbers as an int array; raises naming ``what`` and the first that is not."""
    raw = np.asarray(labels)
    if raw.dtype.kind in "biu":
        return raw.astype(int)
    as_float = raw.astype(float)
    bad = ~(np.isfinite(as_float) & (as_float == np.trunc(as_float)))
    if bad.any():
        first = float(as_float[bad].flat[0])
        raise ValueError(f"{what} {first!r} is not a whole number")
    return as_float.astype(int)


def _check_observation(x: np.ndarray, params: MatrixNormalParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (params.p, params.q):
        raise ValueError(
            f"observation shape {x.shape} does not match parameters "
            f"({params.p}, {params.q})"
        )
    if np.isnan(x).any():
        r, c = (int(v) for v in np.argwhere(np.isnan(x))[0])
        raise DataError(
            f"fully observed matrix required; missing entry at row {r}, column {c}"
        )
    return x


def mahalanobis(x: np.ndarray, params: MatrixNormalParams) -> float:
    """Scale free quadratic form of one observation around the mean.

    Equal to the quadratic form of vec(x - mean) under the precision
    ``kron(inv(col_cov), inv(row_cov))``; callers divide by ``scale`` when
    the scaled distance is wanted.
    """
    x = _check_observation(x, params)
    (row_prec, _), (col_prec, _) = _precisions(params)
    return float(_quadratic_forms(x - params.mean, row_prec, col_prec))


def _precisions(params: MatrixNormalParams) -> tuple:
    """((row inverse, row log det), (column inverse, column log det)).

    A fit's set carries them; they are used while the factor attribute is
    the very object they came from, and a reassigned factor is factored here.
    """
    row, col = getattr(params, "_factors", ((None,) * 3,) * 2)
    return (
        row[1:] if row[0] is params.row_cov else spd_inverse(params.row_cov),
        col[1:] if col[0] is params.col_cov else spd_inverse(params.col_cov),
    )


def _quadratic_forms(
    resid: np.ndarray, row_prec: np.ndarray, col_prec: np.ndarray
) -> np.ndarray:
    """Scale free quadratic form of each residual matrix in a (..., p, q) stack."""
    return np.sum(resid * (row_prec @ resid @ col_prec), axis=(-2, -1))


def _log_densities(values: np.ndarray, params: MatrixNormalParams) -> np.ndarray:
    """Log density of each matrix in a fully observed (..., p, q) stack.

    Factors the covariance at most once for the whole stack; each entry
    depends on its own observation and the parameters alone.
    """
    (row_prec, row_logdet), (col_prec, col_logdet) = _precisions(params)
    dist = _quadratic_forms(values - params.mean, row_prec, col_prec)
    return _log_likelihood(dist, 1, params, row_logdet, col_logdet)


def _log_likelihood(dist, count: int, params, row_logdet: float, col_logdet: float):
    """Summed log density of ``count`` observations whose scale free forms sum to ``dist``.

    The log determinants are those of ``params``'s two factors.
    """
    p, q = params.p, params.q
    return (
        count
        * (
            -0.5 * p * q * math.log(2.0 * math.pi * params.scale)
            - 0.5 * q * row_logdet
            - 0.5 * p * col_logdet
        )
        - 0.5 * dist / params.scale
    )


def log_density(x: np.ndarray, params: MatrixNormalParams) -> float:
    """Log density of one fully observed matrix."""
    x = _check_observation(x, params)
    return float(_log_densities(x, params))


def _checked_values(data: ObservationSet, params: MatrixNormalParams) -> np.ndarray:
    """The set's values, once their p x q shape is checked against the parameters."""
    values = data.values
    if values.shape[1:] != (params.p, params.q):
        raise ValueError(
            f"data shape {values.shape[1:]} does not match parameters "
            f"({params.p}, {params.q})"
        )
    return values


def full_log_likelihood(data: ObservationSet, params: MatrixNormalParams) -> float:
    """Sum of log densities over a fully observed set.

    This is the ascent monitor for the complete data fits.  Data with
    missing entries is rejected; use :func:`observed_log_likelihood` there.
    """
    values = _checked_values(data, params)
    if np.isnan(values).any():
        i, r, c = _first_missing(values)
        raise DataError(
            f"missing entries present (first at observation {i}, row {r}, "
            f"column {c}); use observed_log_likelihood"
        )
    return float(np.sum(_log_densities(values, params)))


def observed_log_likelihood(data: ObservationSet, params: MatrixNormalParams) -> float:
    """Log likelihood of the observed entries, marginalizing the missing ones.

    For each observation the observed coordinates of the column-stacked
    matrix are jointly normal with the matching sub-mean and the matching
    rows and columns of the full covariance; this evaluates that marginal
    density directly from the pq x pq covariance, a fully observed matrix
    included.  Deliberately simple: the fitting code has a faster route, and
    this one serves as its reference, so it factors with
    ``scipy.linalg.cholesky`` and ``solve_triangular`` rather than the
    package's own LAPACK calls in :mod:`matnorm.linalg`.
    """
    values = _checked_values(data, params)
    full_cov = params.full_covariance()
    mean_vec = vec(params.mean)
    total = 0.0
    for i in range(data.n_obs):
        x_vec = vec(values[i])
        obs = np.flatnonzero(~np.isnan(x_vec))
        if obs.size == 0:
            raise DataError(f"observation {i} has no observed entries")
        resid = x_vec[obs] - mean_vec[obs]
        sub_cov = full_cov[np.ix_(obs, obs)]
        chol = scipy.linalg.cholesky(sub_cov, lower=True)
        white = scipy.linalg.solve_triangular(chol, resid, lower=True)
        total += (
            -0.5 * obs.size * math.log(2.0 * math.pi)
            - float(np.sum(np.log(np.diag(chol))))
            - 0.5 * float(white @ white)
        )
    return float(total)


def sample(
    params: MatrixNormalParams, n: int, seed: "int | np.random.Generator"
) -> ObservationSet:
    """Draw n independent observations.

    Uses the two sided Cholesky construction: X = mean + sqrt(scale) *
    L_row @ G @ L_col.T with G standard normal, which has the target
    covariance at O(p^2 q + p q^2) cost per draw instead of working with
    the pq x pq factor.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    row_chol = spd_cholesky(params.row_cov)
    col_chol = spd_cholesky(params.col_cov)
    noise = rng.standard_normal((n, params.p, params.q))
    draws = params.mean + math.sqrt(params.scale) * (row_chol @ noise @ col_chol.T)
    return ObservationSet(draws)
