"""Dense linear algebra helpers shared by the estimation routines.

Vectorization is column major throughout: entry (r, c) of a p x q matrix maps
to position c * p + r of its vectorized form, and Kronecker products are
ordered so that ``kron(col_cov, row_cov)`` is the covariance of that vector.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_PIVOT_TOL = 1e-12


class SingularPivotError(np.linalg.LinAlgError):
    """Raised when a sweep pivot is too close to zero to divide by."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"sweep pivot {pivot} is numerically singular")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-d arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects 2-d arrays")
    return np.kron(a, b)


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a single vector."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("vec expects a 2-d array")
    return a.ravel(order="F")


def unvec(v: np.ndarray, p: int, q: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a length p*q vector to p x q."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != p * q:
        raise ValueError(f"expected a vector of length {p * q}, got shape {v.shape}")
    return v.reshape((p, q), order="F")


def ensure_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and positive definiteness.

    Returns the input object itself when it is already exactly symmetric, so
    callers that share one covariance array between several parameter sets
    keep that sharing intact.  Small asymmetries from accumulated roundoff
    are repaired by averaging with the transpose; anything larger is an
    error, as is a non positive definite matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        if not np.allclose(a, a.T, rtol=1e-8, atol=1e-10):
            raise ValueError(f"{name} is not symmetric")
        a = (a + a.T) / 2.0
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from exc
    return a


def spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower triangular Cholesky factor of a symmetric positive definite matrix."""
    return scipy.linalg.cholesky(a, lower=True)


def spd_logdet(a: np.ndarray) -> float:
    """Log determinant of a symmetric positive definite matrix."""
    chol = spd_cholesky(a)
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def spd_inverse(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log determinant of a symmetric positive definite matrix.

    The log determinant is that of the input, not of the inverse.
    """
    chol = spd_cholesky(a)
    logdet = float(2.0 * np.sum(np.log(np.diag(chol))))
    inv = scipy.linalg.cho_solve((chol, True), np.eye(a.shape[0]))
    inv = (inv + inv.T) / 2.0
    return inv, logdet


def _sweep_pivot(a: np.ndarray, k: int) -> None:
    """Sweep one pivot of a symmetric matrix in place, classical sign convention."""
    d = a[k, k]
    if abs(d) < _PIVOT_TOL:
        raise SingularPivotError(k)
    col = a[:, k].copy()
    row = a[k, :].copy()
    a -= np.outer(col, row) / d
    a[:, k] = col / d
    a[k, :] = row / d
    a[k, k] = -1.0 / d


def sweep(a: np.ndarray, pivots: "list[int] | np.ndarray") -> np.ndarray:
    """Sweep a symmetric matrix on the given pivot positions.

    With index set Z holding the pivots and Y its complement, the result B of
    sweeping a symmetric A satisfies

    * ``B[Z, Z] = inv(A[Z, Z])``
    * ``B[Y, Z] = A[Y, Z] @ inv(A[Z, Z])``
    * ``B[Y, Y] = A[Y, Y] - A[Y, Z] @ inv(A[Z, Z]) @ A[Z, Y]``

    i.e. the swept block carries the inverse with a positive sign and the
    unswept block carries the Schur complement.  Raises
    :class:`SingularPivotError` if a pivot magnitude falls below 1e-12.
    """
    piv = np.asarray(pivots, dtype=int)
    b = np.array(a, dtype=float, copy=True)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"sweep expects a square matrix, got shape {b.shape}")
    for k in piv:
        _sweep_pivot(b, int(k))
    # Classical sweeping leaves -inv(A[Z, Z]) in the pivot block; flip it.
    b[np.ix_(piv, piv)] *= -1.0
    return b


def _swept_panel_batch(
    omega: np.ndarray, pivots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot columns of the classically swept matrix, one pivot set per member.

    Sweeping touches a full d x d matrix, but when only the pivot columns are
    needed the updates close over those columns alone.  ``pivots`` has shape
    (B, m); returns the (B, d, m) panels ``sweep(omega, pivots[b])[:, pivots[b]]``
    in classical sign convention (pivot rows hold ``-inv(omega[Z, Z])``)
    together with the per-member ``log det omega[Z, Z]``, accumulated from the
    pivot values, which are the successive Schur complement diagonals.
    """
    b, m = pivots.shape
    arange_b = np.arange(b)
    panel = omega[:, pivots].transpose(1, 0, 2).copy()
    logdet = np.zeros(b)
    for t in range(m):
        k = pivots[:, t]
        d = panel[arange_b, k, t]
        if np.any(d < _PIVOT_TOL):
            bad = int(np.argmin(d))
            raise SingularPivotError(int(k[bad]))
        logdet += np.log(d)
        col = panel[:, :, t].copy()
        row = panel[arange_b, k, :].copy()
        panel -= col[:, :, None] * row[:, None, :] / d[:, None, None]
        panel[:, :, t] = col / d[:, None]
        panel[arange_b, k, :] = row / d[:, None]
        panel[arange_b, k, t] = -1.0 / d
    return panel, logdet


def indicator_matrix(indices: np.ndarray, width: int) -> np.ndarray:
    """Rows of the identity selected by ``indices``, as a dense 0/1 matrix.

    Row t is the standard basis vector for ``indices[t]``; repeated indices
    produce repeated rows.  For a mask vector m this is the matrix E with
    ``E @ v = v[m]``, and ``E.T @ A @ E`` scatters a small matrix back onto
    the full coordinate grid with accumulation over duplicates.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= width):
        raise ValueError(f"indices out of range for width {width}")
    e = np.zeros((idx.size, width))
    e[np.arange(idx.size), idx] = 1.0
    return e

