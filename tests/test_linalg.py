import numpy as np
import pytest

from matnorm.linalg import (
    SingularPivotError,
    _condition_block,
    ensure_spd,
    indicator_matrix,
    kron,
    spd_cholesky,
    spd_inverse,
    spd_logdet,
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
