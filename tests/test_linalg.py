import numpy as np
import pytest
import scipy.linalg
from support import ill_conditioned_cov, spy

from matnorm import linalg
from matnorm.linalg import (
    _POTRI_MIN_HOLES,
    SingularPivotError,
    _condition_block,
    ensure_spd,
    indicator_matrix,
    kron,
    lower_solve,
    spd_cholesky,
    spd_inverse,
    spd_logdet,
    spd_solve,
    sweep,
    unvec,
    vec,
)


def random_spd(rng, n, boost=0.5):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + boost * np.eye(n)


def kron_by_hand(a, b):
    pa, qa = a.shape
    pb, qb = b.shape
    out = np.zeros((pa * pb, qa * qb))
    for i in range(pa):
        for j in range(qa):
            for k in range(pb):
                for l in range(qb):
                    out[i * pb + k, j * qb + l] = a[i, j] * b[k, l]
    return out


def test_kron_matches_definition():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4)))
        b = rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4)))
        np.testing.assert_allclose(kron(a, b), kron_by_hand(a, b), atol=1e-14)


def test_kron_rejects_vectors():
    with pytest.raises(ValueError):
        kron(np.ones(3), np.eye(2))


def test_vec_is_column_major():
    x = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    np.testing.assert_array_equal(vec(x), [1, 2, 3, 4, 5, 6])
    # entry (r, c) lands at position c * p + r
    p, q = x.shape
    v = vec(x)
    for r in range(p):
        for c in range(q):
            assert v[c * p + r] == x[r, c]


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        x = rng.standard_normal((p, q))
        np.testing.assert_array_equal(unvec(vec(x), p, q), x)


def test_unvec_rejects_bad_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 3)


def test_vec_of_matrix_product():
    # vec(A X B) = (B.T kron A) vec(X)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    x = rng.standard_normal((4, 2))
    b = rng.standard_normal((2, 5))
    np.testing.assert_allclose(
        vec(a @ x @ b), kron(b.T, a) @ vec(x), atol=1e-12
    )


def test_ensure_spd_returns_same_object_when_symmetric():
    a = np.eye(3) * 2.0
    assert ensure_spd(a) is a


def test_ensure_spd_repairs_roundoff_asymmetry():
    a = np.eye(3)
    a[0, 1] = 1e-13
    out = ensure_spd(a)
    np.testing.assert_array_equal(out, out.T)


def test_ensure_spd_rejects_gross_asymmetry():
    a = np.eye(3)
    a[0, 1] = 0.5
    with pytest.raises(ValueError):
        ensure_spd(a, "test matrix")


def test_ensure_spd_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        ensure_spd(np.diag([1.0, -1.0]))


def test_spd_inverse_and_logdet():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = random_spd(rng, n)
        inv, logdet = spd_inverse(a)
        np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-10)
        sign, ref = np.linalg.slogdet(a)
        assert sign == 1.0
        assert abs(logdet - ref) < 1e-10
        assert abs(spd_logdet(a) - ref) < 1e-10


def test_spd_cholesky_is_lower():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 5)
    l = spd_cholesky(a)
    np.testing.assert_allclose(np.triu(l, k=1), 0.0, atol=0.0)
    np.testing.assert_allclose(l @ l.T, a, atol=1e-12)


def layouts(a):
    """``a`` C-ordered, Fortran-ordered, and as a strided view of a larger array."""
    d = a.shape[0]
    big = np.zeros((2 * d, 2 * d))
    big[::2, ::2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": big[::2, ::2]}


def spd_ladder(rng, d):
    """SPD matrices of size d at condition numbers of about d, 1e6 and 1e12."""
    return [random_spd(rng, d)] + [ill_conditioned_cov(rng, d, c) for c in (1e6, 1e12)]


def test_factorizations_match_scipy_bit_for_bit():
    # the direct LAPACK calls are the routines scipy.linalg's wrappers call
    # with the same arguments, so factor, inverse and log determinant must
    # agree to the last bit, whatever the size, the layout or the condition
    rng = np.random.default_rng(60)
    for d in range(1, 65):
        for a in spd_ladder(rng, d):
            for layout, x in layouts(a).items():
                kept = x.copy()
                want = scipy.linalg.cholesky(x, lower=True)
                got = spd_cholesky(x)
                where = f"d={d} {layout}"
                assert np.array_equal(got, want), where
                assert got.flags.f_contiguous == want.flags.f_contiguous, where
                assert not np.triu(got, 1).any(), where
                inverse = scipy.linalg.cho_solve((want, True), np.eye(d))
                logdet = float(2.0 * np.sum(np.log(np.diag(want))))
                got_inverse, got_logdet = spd_inverse(x)
                assert np.array_equal(got_inverse, (inverse + inverse.T) / 2.0), where
                assert got_logdet == logdet and spd_logdet(x) == logdet, where
                assert np.array_equal(x, kept), where


def test_solves_match_scipy_bit_for_bit():
    # right-hand sides as the refined E-step passes them (C-contiguous
    # reshapes and transposed views), a class mean's 1-d vector, and
    # factors in both layouts, the lower solve's transposed branch included
    rng = np.random.default_rng(61)
    for d in range(1, 65):
        for a in spd_ladder(rng, d)[::2]:
            chol = spd_cholesky(a)
            rhs = {
                "vector": rng.standard_normal(d),
                "C": rng.standard_normal((d, 6)),
                "transposed": rng.standard_normal((5, d)).T,
                "reshaped": rng.standard_normal((3, d, 4)).transpose(1, 0, 2).reshape(d, 12),
            }
            for layout, factor in (("F", chol), ("C", np.ascontiguousarray(chol))):
                for kind, b in rhs.items():
                    kept = b.copy()
                    where = f"d={d} factor {layout} rhs {kind}"
                    want = scipy.linalg.cho_solve((factor, True), b)
                    assert np.array_equal(spd_solve(factor, b), want), where
                    want = scipy.linalg.solve_triangular(factor, b, lower=True)
                    assert np.array_equal(lower_solve(factor, b), want), where
                    assert np.array_equal(b, kept), where


def scipy_error(fn, a):
    with pytest.raises(Exception) as info:
        fn(a)
    return info.type, str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [spd_cholesky, spd_inverse, spd_logdet])
def test_non_finite_input_raises_scipys_error(fn, bad):
    a = random_spd(np.random.default_rng(62), 4)
    a[2, 1] = bad
    want = scipy_error(lambda x: scipy.linalg.cholesky(x, lower=True), a)
    assert want == (ValueError, "array must not contain infs or NaNs")
    assert scipy_error(fn, a) == want


@pytest.mark.parametrize("fn", [spd_cholesky, spd_inverse, spd_logdet])
def test_indefinite_input_raises_scipys_error(fn):
    a = random_spd(np.random.default_rng(63), 5)
    a[3, 3] = -1.0
    want = scipy_error(lambda x: scipy.linalg.cholesky(x, lower=True), a)
    assert want[0] is np.linalg.LinAlgError and "leading minor" in want[1]
    assert scipy_error(fn, a) == want


def sweep_oracle(a, pivots):
    """Blockwise definition of the swept matrix, built from submatrix inverses."""
    n = a.shape[0]
    z = np.asarray(pivots, dtype=int)
    y = np.setdiff1d(np.arange(n), z)
    inv_zz = np.linalg.inv(a[np.ix_(z, z)])
    b = np.zeros_like(a, dtype=float)
    b[np.ix_(z, z)] = inv_zz
    b[np.ix_(y, z)] = a[np.ix_(y, z)] @ inv_zz
    b[np.ix_(z, y)] = inv_zz @ a[np.ix_(z, y)]
    b[np.ix_(y, y)] = a[np.ix_(y, y)] - a[np.ix_(y, z)] @ inv_zz @ a[np.ix_(z, y)]
    return b


def test_sweep_matches_block_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        a = random_spd(rng, n)
        m = int(rng.integers(1, n + 1))
        pivots = rng.choice(n, size=m, replace=False)
        np.testing.assert_allclose(
            sweep(a, pivots), sweep_oracle(a, pivots), atol=1e-9
        )


def test_sweep_full_set_gives_inverse():
    rng = np.random.default_rng(6)
    a = random_spd(rng, 5)
    np.testing.assert_allclose(
        sweep(a, np.arange(5)), np.linalg.inv(a), atol=1e-10
    )


def test_sweep_order_invariant():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 6)
    pivots = np.array([4, 1, 3])
    forward = sweep(a, pivots)
    for _ in range(4):
        perm = rng.permutation(pivots)
        np.testing.assert_allclose(sweep(a, perm), forward, atol=1e-10)


def test_sweep_singular_pivot_raises():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(SingularPivotError) as info:
        sweep(a, [0, 1])
    assert info.value.pivot == 1


def test_sweep_leaves_input_untouched():
    rng = np.random.default_rng(9)
    a = random_spd(rng, 4)
    a0 = a.copy()
    sweep(a, [0, 2])
    np.testing.assert_array_equal(a, a0)


def _kron_panel(row_prec, col_prec, pivots, resid):
    """Each member's missing block of kron(col_prec, row_prec), and Omega_mo @ r_o."""
    omega = kron(col_prec, row_prec)
    block = np.stack([omega[np.ix_(piv, piv)] for piv in pivots])
    h = np.stack([
        np.delete(omega[piv], piv, axis=1) @ np.delete(vec(r), piv)
        for piv, r in zip(pivots, resid)
    ])
    return block, h


def test_swept_panel_matches_full_sweep_columns():
    # the kernel reads off the missing block of kron(col_prec, row_prec)
    # what sweeping the holes out of it leaves: the swept block
    # inv(Omega_mm), the regression of missing on observed (fill), and
    # log det Omega_mm
    rng = np.random.default_rng(10)
    for _ in range(30):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        row_prec = random_spd(rng, p)
        col_prec = random_spd(rng, q)
        omega = kron(col_prec, row_prec)
        m = int(rng.integers(1, p * q + 1))
        pivots = np.stack(
            [np.sort(rng.choice(p * q, size=m, replace=False)) for _ in range(3)]
        )
        resid = rng.standard_normal((3, p, q))
        shift, free, logdet = _condition_block(
            *_kron_panel(row_prec, col_prec, pivots, resid), pivots
        )
        assert shift.shape == (3, m) and free.shape == (3, m, m)
        for b, piv in enumerate(pivots):
            swept = sweep(omega, piv)
            obs = np.setdiff1d(np.arange(p * q), piv)
            np.testing.assert_allclose(free[b], swept[np.ix_(piv, piv)], atol=1e-9)
            fill = -swept[np.ix_(obs, piv)].T @ vec(resid[b])[obs]
            np.testing.assert_allclose(shift[b], fill, atol=1e-9)
            assert abs(logdet[b] - spd_logdet(omega[np.ix_(piv, piv)])) < 1e-9


def test_swept_panel_rejects_nonpositive_pivot():
    def culprit(row_prec, col_prec, pivots):
        resid = np.zeros((len(pivots), len(row_prec), len(col_prec)))
        block, h = _kron_panel(row_prec, col_prec, pivots, resid)
        with pytest.raises(SingularPivotError) as info:
            _condition_block(block, h, pivots)
        return info.value.pivot

    # negative pivot in the second member: the Cholesky fails
    assert culprit(np.diag([1.0, -2.0, 3.0]), np.eye(2), np.array([[3], [4]])) == 4
    # positive but below tolerance: the Cholesky succeeds, the check catches it
    assert culprit(np.diag([1.0, 1e-13]), np.eye(2), np.array([[0], [3]])) == 3
    # first pivot fine, second one zero: the report names the second hole
    assert culprit(np.ones((2, 2)), np.eye(2), np.array([[2, 3]])) == 3


def _conditioned_spd(rng, m, cond):
    """An m x m SPD matrix with eigenvalues log-spaced from 1 down to 1/cond."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    a = (q * np.logspace(0.0, -np.log10(cond), m)) @ q.T
    return (a + a.T) / 2.0


def _precision_with_holes(rng, m, cond, extra=4):
    """(Omega, holes): an SPD precision whose block at the holes is ``cond``-conditioned.

    Omega_om = Omega_mm @ g keeps the Schur complement of the hole block at
    the identity, so Omega is SPD however ill-conditioned that block is.
    """
    d = m + extra
    holes = np.sort(rng.choice(d, m, replace=False))
    obs = np.setdiff1d(np.arange(d), holes)
    a = _conditioned_spd(rng, m, cond)
    g = rng.standard_normal((m, extra))
    omega = np.empty((d, d))
    omega[np.ix_(holes, holes)] = a
    omega[np.ix_(holes, obs)] = a @ g
    omega[np.ix_(obs, holes)] = (a @ g).T
    omega[np.ix_(obs, obs)] = g.T @ a @ g + np.eye(extra)
    return omega, holes


@pytest.mark.parametrize("cond", [1e2, 1e8, 1e10])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("m", [1, 2, *range(_POTRI_MIN_HOLES - 1, 11), 26])
def test_condition_block_matches_inverse_and_sweep_across_the_cutoff(
    monkeypatch, m, shared, cond
):
    # below the cut-off the free blocks come from one batched sweep of the
    # stack, at and above it from dpotri on the Cholesky factor; both must
    # give inv(Omega_mm) and what sweeping the holes out of the precision
    # gives, to the accuracy the block's condition number allows
    rng = np.random.default_rng(m + int(np.log10(cond)))
    sets = [_precision_with_holes(rng, m, cond) for _ in range(2)]
    pattern_of = np.array([0, 1, 0, 0, 1])
    first = np.array([0, 1])
    resid = [rng.standard_normal(len(sets[u][0])) for u in pattern_of]
    miss = np.stack([sets[u][1] for u in pattern_of])
    h = np.stack([
        np.delete(omega[holes], holes, axis=1) @ np.delete(r, holes)
        for (omega, holes), r in zip((sets[u] for u in pattern_of), resid)
    ])
    blocks = np.stack([omega[np.ix_(holes, holes)] for omega, holes in sets])
    potri = spy(monkeypatch, linalg.dpotri)
    if shared:
        shift, free, logdet = _condition_block(blocks, h, miss, first, pattern_of)
    else:
        shift, free, logdet = _condition_block(blocks[pattern_of], h, miss)
    factored = len(first) if shared else len(pattern_of)
    assert [call.args[0].shape for call in potri] == (
        [(m, m)] * factored if m >= _POTRI_MIN_HOLES else []
    )
    assert np.array_equal(free, free.transpose(0, 2, 1))
    tol = 100 * cond * np.finfo(float).eps
    for b, u in enumerate(pattern_of):
        omega, holes = sets[u]
        obs = np.setdiff1d(np.arange(len(omega)), holes)
        swept = sweep(omega, holes)
        for ref in (np.linalg.inv(blocks[u]), swept[np.ix_(holes, holes)]):
            assert np.abs(free[b] - ref).max() <= tol * np.abs(ref).max()
        fill = -swept[np.ix_(obs, holes)].T @ resid[b][obs]
        assert np.abs(shift[b] - fill).max() <= tol * np.abs(fill).max()
        assert abs(logdet[b] - spd_logdet(blocks[u])) <= tol * m


@pytest.mark.parametrize("shared", [False, True])
def test_bad_pivot_above_the_cutoff_is_named_before_any_inverse(monkeypatch, shared):
    m = _POTRI_MIN_HOLES + 2
    rng = np.random.default_rng(41)
    good = random_spd(rng, m)
    chol = np.linalg.cholesky(random_spd(rng, m))
    chol[5] *= 1e-7  # pivot 5 is about 1e-14: the Cholesky succeeds, the check fails
    bad = chol @ chol.T
    pattern_of = np.array([0, 0, 1, 1, 0])
    first = np.array([0, 2])
    miss = np.stack([np.arange(m) + 2 * u for u in pattern_of])
    blocks = np.stack([good, bad])
    h = np.zeros((len(pattern_of), m))
    potri = spy(monkeypatch, linalg.dpotri)
    with pytest.raises(SingularPivotError) as info:
        if shared:
            _condition_block(blocks, h, miss, first, pattern_of)
        else:
            _condition_block(blocks[pattern_of], h, miss)
    # the first member holding the bad set is member 2, whose holes start at 2
    assert info.value.pivot == miss[2, 5] == 7
    assert potri == []


def test_failing_potri_raises_instead_of_returning_a_half_inverted_stack(monkeypatch):
    m = _POTRI_MIN_HOLES
    rng = np.random.default_rng(42)
    block = np.stack([random_spd(rng, m) for _ in range(3)])
    real = linalg.dpotri
    monkeypatch.setattr(
        linalg, "dpotri", lambda c, **kwargs: (real(c, **kwargs)[0], 2)
    )
    with pytest.raises(np.linalg.LinAlgError, match="dpotri"):
        _condition_block(block, np.zeros((3, m)), np.tile(np.arange(m), (3, 1)))


def test_stack_that_fails_lapack_cholesky_but_passes_the_pivot_check_takes_inv(
    monkeypatch,
):
    # the sweep and LAPACK round differently, so a stack can fail the
    # Cholesky yet pass the sweep's pivot check; with no factor to invert
    # from, a stack above the cut-off must keep the sweep's inverse
    m = _POTRI_MIN_HOLES + 2
    rng = np.random.default_rng(43)
    block = np.stack([random_spd(rng, m) for _ in range(3)])

    def refuse(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    potri = spy(monkeypatch, linalg.dpotri)
    h = rng.standard_normal((3, m))
    shift, free, logdet = _condition_block(block, h, np.tile(np.arange(m), (3, 1)))
    assert potri == []
    inverse = np.linalg.inv(block)
    np.testing.assert_allclose(free, inverse, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(shift, -(inverse @ h[:, :, None])[:, :, 0], rtol=1e-10)
    np.testing.assert_allclose(logdet, [spd_logdet(b) for b in block], rtol=1e-10)


def test_free_blocks_do_not_rely_on_dpotri_working_in_place(monkeypatch):
    # should dpotri hand back a copy instead of overwriting its input, the
    # free blocks must still be the inverse, not the Cholesky factor
    m = _POTRI_MIN_HOLES
    rng = np.random.default_rng(44)
    block = np.stack([random_spd(rng, m) for _ in range(3)])
    real = linalg.dpotri
    monkeypatch.setattr(
        linalg, "dpotri",
        lambda c, lower, overwrite_c: real(np.array(c, order="F"), lower=lower),
    )
    free = _condition_block(block, np.zeros((3, m)), np.tile(np.arange(m), (3, 1)))[1]
    np.testing.assert_allclose(free, np.linalg.inv(block), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m", [_POTRI_MIN_HOLES - 1, _POTRI_MIN_HOLES + 2])
def test_condition_block_leaves_the_callers_blocks_untouched(monkeypatch, m):
    # dpotri inverts in place in the factor stack, never in the caller's
    # blocks; neither path may write to them
    rng = np.random.default_rng(45 + m)
    block = np.stack([random_spd(rng, m) for _ in range(3)])
    before = block.copy()
    potri = spy(monkeypatch, linalg.dpotri)
    free = _condition_block(block, rng.standard_normal((3, m)), np.tile(np.arange(m), (3, 1)))[1]
    assert len(potri) == (3 if m >= _POTRI_MIN_HOLES else 0)
    assert block.tobytes() == before.tobytes()
    assert not np.shares_memory(free, block)
    np.testing.assert_allclose(free, np.linalg.inv(before), rtol=1e-10, atol=1e-12)


def test_indicator_matrix_selects_entries():
    e = indicator_matrix(np.array([2, 0]), 4)
    np.testing.assert_array_equal(e, [[0, 0, 1, 0], [1, 0, 0, 0]])
    v = np.array([10.0, 11.0, 12.0, 13.0])
    np.testing.assert_array_equal(e @ v, v[[2, 0]])


def test_indicator_matrix_empty_and_bounds():
    assert indicator_matrix(np.array([], dtype=int), 3).shape == (0, 3)
    with pytest.raises(ValueError):
        indicator_matrix(np.array([3]), 3)
    with pytest.raises(ValueError):
        indicator_matrix(np.array([-1]), 3)


def test_indicator_matrix_scatter_accumulates_duplicates():
    e = indicator_matrix(np.array([1, 1]), 3)
    s = e.T @ np.ones((2, 2)) @ e
    assert s[1, 1] == 4.0
