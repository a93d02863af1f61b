"""Dense linear algebra helpers shared by the estimation routines.

Vectorization is column major throughout: entry (r, c) of a p x q matrix maps
to position c * p + r of its vectorized form, and Kronecker products are
ordered so that ``kron(col_cov, row_cov)`` is the covariance of that vector.

The small SPD factorizations and solves call LAPACK directly: ``dpotrf``
for a Cholesky factor (:func:`spd_cholesky`), ``dpotrs`` for a solve
through it (:func:`spd_solve`, and the identity in :func:`spd_inverse`)
and ``dtrtrs`` for a triangular solve (:func:`lower_solve`).  Every fit
refits its covariance factors, 1 x 1 to 7 x 7 at the paper's 3 x 5 and
3 x 7 shapes, where ``scipy.linalg.cholesky`` and ``cho_solve`` spend
about 30 us per call in input checks, the LAPACK routine lookup and the
batch wrapper around about 1 us of LAPACK work.  These are the routines
those wrappers call, with the same arguments, so every factor, inverse
and solve is bit for bit what ``scipy.linalg`` returns, and the errors
for a non-finite or non positive definite input are the same too.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

_PIVOT_TOL = 1e-12
# Hole sets of at least this many entries take their inverse from the
# Cholesky factor, one LAPACK dpotri per block (about 2 m**3 / 3 flops) in
# place in the factor stack, then one mirroring add.  Smaller ones take one
# batched LU inverse (np.linalg.inv, about 8 m**3 / 3 flops).  Timing one
# group's inverse, mirror included, with BLAS on one thread for 3 to 300
# blocks, the dpotri path took 0.72-0.76 of inv's time at m = 9 and at most
# 0.68 from m = 10 up, but 0.82-1.03 at m = 8 and up to 1.29 at m <= 6,
# where a Python loop of small dpotri calls loses to inv's single call.
_POTRI_MIN_HOLES = 9


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
    error, as is a non-finite entry or a non positive definite matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        r, c = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{name}[{r}, {c}] = {a[r, c]} is not finite")
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
    """Lower triangular Cholesky factor of a symmetric positive definite matrix.

    ``scipy.linalg.cholesky(a, lower=True)`` for a float64 ``a``: the same
    Fortran-ordered factor with exact zeros above the diagonal, and the same
    ``ValueError`` for a non-finite entry and ``LinAlgError`` for a matrix
    that is not positive definite.  LAPACK reads only the lower triangle.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    chol, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".'
        )
    return chol


def spd_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``inv(L @ L.T) @ b`` from the lower Cholesky factor ``L`` of :func:`spd_cholesky`.

    ``scipy.linalg.cho_solve((chol, True), b)`` for finite float64 operands:
    one LAPACK ``dpotrs`` on a Fortran-ordered copy of ``b``.
    """
    x, info = dpotrs(chol, b, lower=1)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``inv(L) @ b`` for a lower triangular ``L``, such as :func:`spd_cholesky` returns.

    ``scipy.linalg.solve_triangular(chol, b, lower=True)`` for finite
    float64 operands: one LAPACK ``dtrtrs``, on the upper triangular
    transpose with ``trans`` set when ``L`` is not Fortran-ordered, as
    scipy solves it.
    """
    if chol.flags.f_contiguous:
        x, info = dtrtrs(chol, b, lower=1)
    else:
        x, info = dtrtrs(chol.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


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
    inv = spd_solve(chol, np.eye(chol.shape[0]))
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


def _condition_block(
    block: np.ndarray,
    h: np.ndarray,
    miss: np.ndarray,
    first: "np.ndarray | None" = None,
    pattern_of: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional shifts, free blocks and log dets of stacked hole sets.

    ``Omega`` is the scale free precision ``kron(col_prec, row_prec)`` of a
    column-stacked residual, never formed; gem's unstructured model reaches
    it as the Kronecker case with p = 1, its pq x pq covariance the column
    factor.  Member b has holes at the stacked positions ``miss[b]`` (``col *
    p + row``, ascending), and ``h[b] = Omega_mo @ r_o``, its observed
    residual weighted by the precision at the holes.  ``block`` holds the
    missing precision blocks ``Omega_mm``, gathered by the caller (entrywise
    from the two factors, ``col_prec[cols[a], cols[c]] * row_prec[rows[a],
    rows[c]]``, in the Kronecker case).  This yields what sweeping the holes
    out of the precision would.  One batched Cholesky ``Omega_mm = L L.T``
    gives the sweep's pivot values, ``diag(L)**2``, and with them ``log det
    Omega_mm``; the swept block ``free = inv(Omega_mm)`` is the scale free
    conditional covariance, and ``-free @ h`` the conditional mean
    shift.  With at least ``_POTRI_MIN_HOLES`` holes the inverse is taken
    from ``L`` itself, one LAPACK ``dpotri`` per block, a quarter of the
    flops of the LU inverse: it overwrites each factor in the stack
    ``np.linalg.cholesky`` returned with one triangle of the inverse, and
    one add of the stack and its transpose, with the doubled diagonal
    halved, mirrors it to the full block.  Below that one batched
    ``np.linalg.inv`` is faster than a Python loop of small ``dpotri``
    calls.  A stack whose Cholesky failed but whose pivots, found by
    elimination, pass the check has no ``L`` and takes ``np.linalg.inv``
    too.  Either way ``free`` is exactly symmetric, and ``block`` is never
    written.

    The block depends on the holes alone, so members with the same holes
    share it.  Given ``first``, the member positions of the first member
    with each distinct hole set in order of appearance, and ``pattern_of``,
    each member's index into ``first``, ``block`` holds only those U
    blocks, which are factored, checked and inverted once, and each member
    reads its free block and log determinant through ``pattern_of``; ``h``
    and the shift stay per member.

    Returns the (B, m) shifts, the (B, m, m) free blocks and the (B,) log
    determinants.  Raises :class:`SingularPivotError` naming the stacked
    position of the first pivot below 1e-12 in sweep order, taking the
    first member with a bad pivot at that step; sharing blocks leaves the
    position unchanged, since each set's first member is its earliest.
    """
    try:
        chol = np.linalg.cholesky(block)
        pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    except np.linalg.LinAlgError:
        # Some block is not positive definite: eliminate step by step to get
        # the pivots, the successive Schur complement diagonals.  Past a
        # block's first bad pivot they are meaningless; only the first bad
        # step is reported.  Elimination rounds differently from LAPACK, so
        # a stack can pass the pivot check here with no factor to invert
        # from; it takes the LU inverse below.
        chol = None
        a = block.copy()
        pivots = np.empty(block.shape[:2])
        with np.errstate(all="ignore"):
            for t in range(block.shape[1]):
                pivots[:, t] = a[:, t, t]
                a -= a[:, :, t, None] * a[:, None, t, :] / pivots[:, t, None, None]
    low = ~(pivots >= _PIVOT_TOL)
    if low.any():
        t = int(np.argmax(low.any(axis=0)))
        b = int(np.argmax(low[:, t]))
        raise SingularPivotError(int(miss[b if first is None else first[b], t]))
    if chol is None or block.shape[1] < _POTRI_MIN_HOLES:
        free = np.linalg.inv(block)
        free = (free + free.transpose(0, 2, 1)) / 2.0
    else:
        # chol[b] is L in C order with zeros above the diagonal (numpy
        # zeroes them), so chol[b].T is L.T in Fortran order, an upper
        # factor that dpotri overwrites with the upper triangle of the
        # inverse; read back in C order, chol[b] then holds the inverse's
        # lower triangle and still zeros above.  A copy dpotri returns
        # instead of working in place is stored back.
        for b, c in enumerate(chol):
            upper = c.T
            inverse, info = dpotri(upper, lower=0, overwrite_c=1)
            if info:
                raise np.linalg.LinAlgError(
                    f"dpotri failed on missing block {b} (info {info})"
                )
            if inverse is not upper:
                c[...] = inverse.T
        # the mirror doubles the diagonal; halving it back is exact
        free = chol + chol.transpose(0, 2, 1)
        m = block.shape[1]
        free.reshape(-1, m * m)[:, :: m + 1] *= 0.5
    logdet = np.log(pivots).sum(axis=1)
    if first is not None:
        free, logdet = free[pattern_of], logdet[pattern_of]
    shift = -(free @ h[:, :, None])[:, :, 0]
    return shift, free, logdet


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

