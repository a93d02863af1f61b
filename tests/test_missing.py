"""Conditioning and the three missing-data fitters."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from support import ascends, ill_conditioned_cov, knock_out, random_params, spy

import matnorm.linalg
import matnorm.missing
import matnorm.mle
from matnorm.linalg import (
    _PIVOT_TOL,
    _POTRI_MIN_HOLES,
    SingularPivotError,
    vec,
)
from matnorm.mle import (
    EstimationError,
    FitConfig,
    _col_accumulator,
    _observed_cell_means,
    _row_accumulator,
    fit_mle,
)
from matnorm.missing import (
    _conditional_grid,
    _e_step,
    conditional_moments,
    detect_pattern,
    fit_em,
    fit_gem,
    fit_mm,
)
from matnorm.model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    observed_log_likelihood,
    sample,
)
from matnorm.spectral import LabeledObservationSet, fit_class_models

TIGHT = FitConfig(max_iters=3000, tol=1e-13)


def mvn_condition(x_vec, mean_vec, cov, miss):
    """Textbook covariance-side conditioning, used as the oracle."""
    obs = np.setdiff1d(np.arange(mean_vec.size), miss)
    c_oo = cov[np.ix_(obs, obs)]
    c_mo = cov[np.ix_(miss, obs)]
    c_mm = cov[np.ix_(miss, miss)]
    sol = np.linalg.solve(c_oo, x_vec[obs] - mean_vec[obs])
    cond_mean = mean_vec[miss] + c_mo @ sol
    cond_cov = c_mm - c_mo @ np.linalg.solve(c_oo, c_mo.T)
    return cond_mean, cond_cov


class TestDetectPattern:
    def test_indexes_are_column_major(self):
        x = np.zeros((1, 2, 3))
        x[0, 1, 0] = np.nan  # stacked position 0 * 2 + 1 = 1
        x[0, 0, 2] = np.nan  # stacked position 2 * 2 + 0 = 4
        pattern = detect_pattern(x)
        np.testing.assert_array_equal(pattern.miss[0], [1, 4])
        np.testing.assert_array_equal(pattern.rows[0], [1, 0])
        np.testing.assert_array_equal(pattern.cols[0], [0, 2])
        np.testing.assert_array_equal(pattern.observed[0], [0, 2, 3, 5])

    def test_masks_select_coordinates(self):
        x = np.zeros((1, 3, 4))
        x[0, 2, 1] = np.nan
        x[0, 0, 3] = np.nan
        pattern = detect_pattern(x)
        row_mask = pattern.row_masks[0]
        col_mask = pattern.col_masks[0]
        assert row_mask.shape == (2, 3)
        assert col_mask.shape == (2, 4)
        np.testing.assert_array_equal(row_mask @ np.arange(3.0), [2.0, 0.0])
        np.testing.assert_array_equal(col_mask @ np.arange(4.0), [1.0, 3.0])

    def test_rejects_blank_observation(self):
        x = np.full((1, 2, 2), np.nan)
        with pytest.raises(DataError):
            detect_pattern(x)

    def test_complete_data_has_empty_sets(self):
        pattern = detect_pattern(np.zeros((3, 2, 2)))
        assert not pattern.any_missing
        assert all(m.size == 0 for m in pattern.miss)


class TestConditionalMoments:
    def test_matches_covariance_side_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(2, 5))
            params = random_params(rng, p, q)
            x = sample(params, 1, rng).values[0]
            m = int(rng.integers(1, p * q))
            miss = np.sort(rng.choice(p * q, size=m, replace=False))
            x_vec = vec(x)
            x_vec[miss] = np.nan
            x_nan = x_vec.reshape(q, p).T

            got = conditional_moments(x_nan, params)
            ref_mean, ref_cov = mvn_condition(
                vec(x_nan), vec(params.mean), params.full_covariance(), miss
            )
            np.testing.assert_allclose(vec(got.mean_completion)[miss], ref_mean, atol=1e-9)
            np.testing.assert_allclose(got.cond_cov, ref_cov, atol=1e-9)
            # observed entries pass through untouched
            obs = np.setdiff1d(np.arange(p * q), miss)
            np.testing.assert_array_equal(
                vec(got.mean_completion)[obs], vec(x_nan)[obs]
            )

    def test_explicit_missing_set_overrides_values(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 2, 3)
        x = sample(params, 1, rng).values[0]
        miss = np.array([0, 3])
        got = conditional_moments(x, params, miss=miss)
        ref_mean, ref_cov = mvn_condition(
            vec(x), vec(params.mean), params.full_covariance(), miss
        )
        np.testing.assert_allclose(vec(got.mean_completion)[miss], ref_mean, atol=1e-10)
        np.testing.assert_allclose(got.cond_cov, ref_cov, atol=1e-10)

    def test_complete_observation_returns_copy(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 2, 2)
        x = sample(params, 1, rng).values[0]
        got = conditional_moments(x, params)
        np.testing.assert_array_equal(got.mean_completion, x)
        assert got.mean_completion is not x
        assert got.cond_cov.shape == (0, 0)

    def test_rejects_fully_missing(self):
        params = random_params(np.random.default_rng(3), 2, 2)
        with pytest.raises(DataError):
            conditional_moments(np.full((2, 2), np.nan), params)

    def test_rejects_nan_outside_missing_set(self):
        params = random_params(np.random.default_rng(4), 2, 2)
        x = np.zeros((2, 2))
        x[1, 1] = np.nan
        with pytest.raises(DataError):
            conditional_moments(x, params, miss=np.array([0]))
        # an empty set used to return the NaN untouched
        with pytest.raises(DataError):
            conditional_moments(x, params, miss=[])

    @pytest.mark.parametrize(
        "miss, named",
        [([5, 1, 5], "position 5 is listed more than once"),
         ([2, 12], "position 12 is outside 0..11"),
         ([-1], "position -1 is outside 0..11"),
         ([1.7], "a 1-d list of integers, got [1.7]"),
         ([[1, 2]], "a 1-d list of integers, got [[1, 2]]")],
    )
    def test_rejects_bad_explicit_position(self, miss, named):
        # a repeat used to surface as a singular pivot, 12 as a bare
        # IndexError, -1 wrapped silently to the last entry, 1.7 was cut
        # to 1, and a 2-d list failed with a broadcast error
        params = random_params(np.random.default_rng(5), 3, 4)
        with pytest.raises(ValueError, match=re.escape(named)):
            conditional_moments(np.zeros((3, 4)), params, miss=np.array(miss))

    def test_single_missing_entry_shrinks_variance(self):
        # conditioning can only reduce the variance of a missing entry
        rng = np.random.default_rng(5)
        params = random_params(rng, 3, 3)
        x = sample(params, 1, rng).values[0]
        x[1, 1] = np.nan
        got = conditional_moments(x, params)
        marginal = params.scale * params.row_cov[1, 1] * params.col_cov[1, 1]
        assert got.cond_cov.shape == (1, 1)
        assert 0 < got.cond_cov[0, 0] <= marginal + 1e-12


class TestEStep:
    def test_matches_per_observation_conditioning(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 3, 4)
        values = knock_out(sample(params, 25, rng).values, 0.2, rng)
        pattern = detect_pattern(values)
        completions, free_by_group, _ = _e_step(values, pattern, params)
        for g, free in zip(pattern._groups, free_by_group):
            for b, i in enumerate(g.obs_ids):
                ref = conditional_moments(values[i], params)
                np.testing.assert_allclose(
                    completions[i], ref.mean_completion, atol=1e-10
                )
                np.testing.assert_allclose(
                    params.scale * free[b], ref.cond_cov, atol=1e-10
                )

    def test_loglik_byproduct_matches_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            p = int(rng.integers(2, 4))
            q = int(rng.integers(2, 5))
            params = random_params(rng, p, q)
            values = knock_out(sample(params, 15, rng).values, 0.25, rng)
            # evaluate at a different parameter point than the sampler's
            other = random_params(rng, p, q)
            pattern = detect_pattern(values)
            _, _, got = _e_step(values, pattern, other)
            ref = observed_log_likelihood(ObservationSet(values), other)
            assert abs(got - ref) < 1e-9 * max(1.0, abs(ref)), f"trial {trial}"

    def test_loglik_holds_on_ill_conditioned_factors(self):
        # the quadratic form is taken of the completed residuals: reading it
        # off the first weighted product and the shifts instead (r0' Omega
        # r0 + shift' h) loses 1e-7 relative or more at factor condition 1e5
        def factor(rng, dim):
            a = ill_conditioned_cov(rng, dim, 1e5)
            return a / a[0, 0]

        rng = np.random.default_rng(36)
        for trial, (p, q, n) in enumerate([(3, 5, 60), (4, 6, 40)] * 3):
            params = MatrixNormalParams(
                rng.standard_normal((p, q)), factor(rng, p), factor(rng, q), 1.3
            )
            assert np.linalg.cond(params.row_cov) > 5e4
            assert np.linalg.cond(params.col_cov) > 5e4
            values = knock_out(sample(params, n, rng).values, 0.45, rng)
            _, _, got = _e_step(values, detect_pattern(values), params)
            ref = observed_log_likelihood(ObservationSet(values), params)
            assert abs(got - ref) <= 1e-9 * abs(ref), f"trial {trial}"

    def test_observation_order_equivariance(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 3)
        values = knock_out(sample(params, 12, rng).values, 0.3, rng)
        fwd, _, ll_fwd = _e_step(values, detect_pattern(values), params)
        rev, _, ll_rev = _e_step(values[::-1], detect_pattern(values[::-1]), params)
        np.testing.assert_array_equal(rev[::-1], fwd)
        assert abs(ll_fwd - ll_rev) < 1e-9


def _adversarial_values(kind, p, q, rng):
    """A small set whose holes stress the grouping and the conditioning."""
    pq = p * q
    params = random_params(rng, p, q)
    if kind == "one_observed_entry":
        counts = [pq - 1] * 4
    elif kind == "one_per_group":
        # distinct missing counts, so every group holds one observation
        counts = rng.permutation(pq)[: min(pq, 5)]
    elif kind == "repeated_pattern":
        # one count group: six members lose the same tail of columns
        # (longitudinal dropout), two others as many entries anywhere
        tail = int(rng.integers(1, q))
        counts = [p * tail] * 8
        dropped = rng.permutation(8) < 6
    else:  # "cell_never_observed"
        counts = rng.integers(1, pq, size=5)
    values = sample(params, len(counts), rng).values
    cell = int(rng.integers(pq))
    for i, m in enumerate(counts):
        if kind == "cell_never_observed":
            others = rng.choice(np.delete(np.arange(pq), cell), m - 1, replace=False)
            holes = np.append(others, cell)
        elif kind == "repeated_pattern" and dropped[i]:
            holes = np.arange(pq - m, pq)
        else:
            holes = rng.choice(pq, m, replace=False)
        values[i, holes % p, holes // p] = np.nan
    return values


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        [
            "one_observed_entry",
            "one_per_group",
            "cell_never_observed",
            "repeated_pattern",
        ]
    ),
    p=st.integers(1, 4),
    q=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_e_step_matches_references_on_adversarial_patterns(kind, p, q, seed):
    rng = np.random.default_rng(seed)
    values = _adversarial_values(kind, p, q, rng)
    at = random_params(rng, p, q)
    pattern = detect_pattern(values)
    if kind == "repeated_pattern":
        (group,) = pattern._groups
        assert group.first is not None  # the shared blocks are conditioned once
        assert group.pattern_counts.sum() == 8
    completions, free_by_group, loglik = _e_step(values, pattern, at)

    ref = observed_log_likelihood(ObservationSet(values), at)
    assert abs(loglik - ref) <= 1e-9 * max(1.0, abs(ref))

    cov = at.full_covariance()
    seen = []
    for g, free in zip(pattern._groups, free_by_group):
        for b, i in enumerate(g.obs_ids):
            x_vec = vec(values[i])
            miss = np.flatnonzero(np.isnan(x_vec))
            np.testing.assert_array_equal(pattern.miss[i], miss)
            np.testing.assert_array_equal(g.miss[b], miss)
            ref_mean, ref_cov = mvn_condition(x_vec, vec(at.mean), cov, miss)
            np.testing.assert_allclose(vec(completions[i])[miss], ref_mean, atol=1e-8)
            np.testing.assert_allclose(at.scale * free[b], ref_cov, atol=1e-8)
            seen.append(int(i))
    complete = np.flatnonzero(~np.isnan(values).any(axis=(1, 2)))
    assert sorted(seen + complete.tolist()) == list(range(values.shape[0]))
    np.testing.assert_array_equal(completions[complete], values[complete])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        [
            "complete",
            "one_observed_entry",
            "one_per_group",
            "cell_never_observed",
            "repeated_pattern",
        ]
    ),
    p=st.integers(1, 4),
    q=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_hole_index_names_every_hole_in_each_layout(kind, p, q, seed):
    rng = np.random.default_rng(seed)
    if kind == "complete":
        values = sample(random_params(rng, p, q), 5, rng).values
    else:
        values = _adversarial_values(kind, p, q, rng)
    n, pq = values.shape[0], p * q
    pattern = detect_pattern(values)
    # each layout's NaNs, read off the values, in the pattern's hole order:
    # group after group, member after member, ascending stacked positions
    at, cells, pairs, lo = [], [], [], 0
    for g in pattern._groups:
        assert g.span == slice(lo, lo + g.obs_ids.size * g.m)
        lo = g.span.stop
        for i in g.obs_ids:
            miss = np.flatnonzero(np.isnan(vec(values[i])))
            cells.append(miss % p * q + miss // p)
            at.append(i * pq + cells[-1])
        held = g.miss if g.first is None else g.miss[g.first]
        cols, rows = held // p, held % p
        # the high bits name the pair's position in the q x q column factor,
        # the low bits, below 2**bits >= p * p, its position in the p x p row
        # factor
        bits = (p * p - 1).bit_length()
        assert 2**bits >= p * p and (bits == 0 or 2 ** (bits - 1) < p * p)
        np.testing.assert_array_equal(
            g.pairs >> bits, cols[:, :, None] * q + cols[:, None, :]
        )
        np.testing.assert_array_equal(
            g.pairs & (2**bits - 1), rows[:, :, None] * p + rows[:, None, :]
        )
        assert np.shares_memory(g.pairs, pattern._pairs)
        pairs.append(g.pairs.ravel())
    assert lo == pattern._at.size
    none = [np.zeros(0, dtype=np.intp)]
    np.testing.assert_array_equal(pattern._at, np.concatenate(none + at))
    np.testing.assert_array_equal(pattern._cells, np.concatenate(none + cells))
    np.testing.assert_array_equal(pattern._pairs, np.concatenate(none + pairs))
    # and exactly the NaNs of each layout
    np.testing.assert_array_equal(np.sort(pattern._at), np.flatnonzero(np.isnan(values)))
    assert np.isnan(values.reshape(n, pq)[pattern._at // pq, pattern._cells]).all()


def _near_tolerance_case(factor):
    """Observations whose hole at (row 1, column 0) has precision factor * tol.

    The row factor makes that missing precision block, col_prec[0, 0] *
    row_prec[1, 1], equal to ``factor * _PIVOT_TOL``; a second observation
    misses an ordinary entry and two more are complete.
    """
    rng = np.random.default_rng(31)
    col = random_params(rng, 2, 3).col_cov
    c = 0.5
    v = c * c + np.linalg.inv(col)[0, 0] / (factor * _PIVOT_TOL)
    params = MatrixNormalParams(
        rng.standard_normal((2, 3)), np.array([[1.0, c], [c, v]]), col, 1.3
    )
    values = sample(params, 4, rng).values
    values[0, 1, 0] = np.nan
    values[1, 0, 2] = np.nan
    return values, params


def test_conditioning_just_above_pivot_tolerance_matches_brute_force():
    values, params = _near_tolerance_case(1.01)
    pattern = detect_pattern(values)
    completions, free_by_group, loglik = _e_step(values, pattern, params)
    cov = params.full_covariance()
    for g, free in zip(pattern._groups, free_by_group):
        for b, i in enumerate(g.obs_ids):
            x_vec = vec(values[i])
            miss = np.flatnonzero(np.isnan(x_vec))
            ref_mean, ref_cov = mvn_condition(x_vec, vec(params.mean), cov, miss)
            np.testing.assert_allclose(vec(completions[i])[miss], ref_mean, rtol=1e-6)
            np.testing.assert_allclose(params.scale * free[b], ref_cov, rtol=1e-6)
            single = conditional_moments(values[i], params)
            np.testing.assert_allclose(single.cond_cov, ref_cov, rtol=1e-6)
    ref = observed_log_likelihood(ObservationSet(values), params)
    assert abs(loglik - ref) <= 1e-8 * max(1.0, abs(ref))
    assert np.isfinite(completions).all()


def test_conditioning_just_below_pivot_tolerance_raises_with_position():
    values, params = _near_tolerance_case(0.99)
    # the hole at row 1, column 0 sits at stacked position 0 * p + 1
    with pytest.raises(SingularPivotError) as info:
        _e_step(values, detect_pattern(values), params)
    assert info.value.pivot == 1
    with pytest.raises(SingularPivotError) as info:
        conditional_moments(values[0], params)
    assert info.value.pivot == 1
    # an observation whose holes avoid that entry still conditions cleanly
    moments = conditional_moments(values[1], params)
    assert np.isfinite(moments.mean_completion).all()


def test_shared_block_below_pivot_tolerance_raises_at_per_member_position():
    _, params = _near_tolerance_case(0.99)
    values = sample(params, 6, np.random.default_rng(33)).values
    # the bad hole (row 1, column 0) is the third distinct set but belongs
    # to members 4 and 5, so a set index read as a member index shows
    for i, (r, c) in enumerate([(0, 2), (0, 2), (0, 1), (0, 1), (1, 0), (1, 0)]):
        values[i, r, c] = np.nan
    pattern = detect_pattern(values)
    (g,) = pattern._groups
    np.testing.assert_array_equal(g.first, [0, 2, 4])
    with pytest.raises(SingularPivotError) as per_member:
        conditional_moments(values[4], params)
    with pytest.raises(SingularPivotError) as shared:
        _e_step(values, pattern, params)
    assert per_member.value.pivot == 1
    assert shared.value.pivot == per_member.value.pivot


def _dropout_values(rng, p, q, n):
    """Most members lose a tail of 1-3 columns, every tenth as many entries anywhere."""
    values = sample(random_params(rng, p, q), n, rng).values
    for i in range(n):
        tail = 1 + i % 3
        if i % 10 == 9:
            holes = rng.choice(p * q, p * tail, replace=False)
            values[i, holes % p, holes // p] = np.nan
        else:
            values[i, :, q - tail :] = np.nan
    return values


def _record_factorizations(monkeypatch, names):
    """Record ``(name, shape)`` of every np.linalg call in ``names``, every
    batched sweep and every dpotri."""
    calls = []
    for name in names:
        def record(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, a.shape))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)

    def swept(block, _real=matnorm.linalg._swept):
        calls.append(("swept", block.shape))
        return _real(block)

    def potri(c, *args, _real=matnorm.linalg.dpotri, **kwargs):
        calls.append(("dpotri", c.shape))
        return _real(c, *args, **kwargs)

    monkeypatch.setattr(matnorm.linalg, "_swept", swept)
    monkeypatch.setattr(matnorm.linalg, "dpotri", potri)
    return calls


def _expected_factorizations(m, sets):
    """One batched sweep of a group's factored sets below the dpotri cut-off;
    at or above it one batched Cholesky, then one dpotri per set."""
    shape = (sets, m, m)
    if m < _POTRI_MIN_HOLES:
        return [("swept", shape)]
    return [("cholesky", shape)] + [("dpotri", (m, m))] * sets


def test_e_step_factors_each_distinct_hole_set_once(monkeypatch):
    rng = np.random.default_rng(34)
    small = random_params(rng, 3, 5)
    cases = [
        (small, _dropout_values(rng, 3, 5, 60), False),
        (small, knock_out(sample(small, 40, rng).values, 0.2, rng), True),
    ]
    # groups at and above the dpotri cut-off: tails of 3 columns at 4 x 6
    # (12 holes), and 8 x 16 at 20% MCAR (about 26 holes)
    wide = random_params(rng, 8, 16)
    cases += [
        (random_params(rng, 4, 6), _dropout_values(rng, 4, 6, 60), False),
        (wide, knock_out(sample(wide, 30, rng).values, 0.2, rng), True),
    ]
    calls = _record_factorizations(monkeypatch, ("cholesky", "inv"))
    hole_counts = set()
    for params, values, all_distinct in cases:
        pattern = detect_pattern(values)
        sizes = [g.obs_ids.size for g in pattern._groups]
        distinct = [len({tuple(holes) for holes in g.miss}) for g in pattern._groups]
        assert (distinct == sizes) == all_distinct
        calls.clear()
        completions, free_by_group, _ = _e_step(values, pattern, params)
        expected = []
        for g, sets in zip(pattern._groups, sizes if all_distinct else distinct):
            expected += _expected_factorizations(g.m, sets)
            hole_counts.add(g.m)
        assert calls == expected
        # each member still reads its own block
        for g, free in zip(pattern._groups, free_by_group):
            assert free.shape == (g.obs_ids.size, g.m, g.m)
            for b, i in enumerate(g.obs_ids):
                ref = conditional_moments(values[i], params)
                np.testing.assert_allclose(
                    params.scale * free[b], ref.cond_cov, atol=1e-10
                )
    assert min(hole_counts) < _POTRI_MIN_HOLES <= max(hole_counts)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["mcar", "dropout", "gem rows", "two classes"])
def test_start_moments_are_the_e_step_at_the_identity_start_bit_for_bit(monkeypatch, case):
    # at mle._initial_params every factor is the identity, so every missing
    # block is too: the fit's first E-step conditions nothing, and returns
    # the completions, free blocks and log likelihood _e_step returns there
    rng = np.random.default_rng(48)
    params = random_params(rng, 3, 7)
    mcar = knock_out(sample(params, 80, rng).values, 0.2, rng)
    if case == "mcar":
        class_values = [mcar]
        fit = lambda: fit_em(ObservationSet(mcar)).loglik_trace
    elif case == "dropout":
        class_values = [_dropout_values(rng, 3, 7, 60)]
        fit = lambda: fit_em(ObservationSet(class_values[0])).loglik_trace
    elif case == "gem rows":
        class_values = [mcar.transpose(0, 2, 1).reshape(-1, 1, 21)]
        fit = lambda: fit_gem(ObservationSet(mcar))[1].loglik_trace
    else:
        complete = sample(params, 40, rng).values
        class_values = [mcar, complete]
        labels = np.repeat([1, 2], [len(mcar), len(complete)])
        data = LabeledObservationSet(np.concatenate(class_values), labels)
        fit = lambda: fit_class_models(data, "em").loglik_trace
    loops = spy(monkeypatch, matnorm.mle._iterate)
    trace = fit()
    (loop,) = loops
    e_step, start = loop.args[0], loop.args[3]
    for prm, values in zip(start, class_values):
        ref = matnorm.mle._initial_params(values)
        assert _same_bits(prm.mean, ref.mean) and prm.scale == ref.scale
        assert _same_bits(prm.row_cov, ref.row_cov) and _same_bits(prm.col_cov, ref.col_cov)
    blocks = spy(monkeypatch, matnorm.linalg._condition_block)
    completions, frees, loglik = e_step(start)
    assert blocks == []
    logliks = []
    for values, prm, got, got_free in zip(class_values, start, completions, frees):
        if not np.isnan(values).any():
            # a class without holes hands on its (mean, rows, count)
            held = matnorm.missing._complete(values)[1]
            assert all(_same_bits(a, b) for a, b in zip(got, held)) and got_free is None
            logliks.append(matnorm.missing._class_e_step(values, held, prm)[2])
            continue
        want, want_free, want_loglik = _e_step(values, detect_pattern(values), prm)
        assert len(blocks) > 0
        blocks.clear()
        assert _same_bits(got, want)
        assert len(got_free) == len(want_free)
        for a, b in zip(got_free, want_free):
            assert _same_bits(a, b)
        logliks.append(want_loglik)
    assert loglik == sum(logliks) == trace[0]
    if case == "dropout":
        pattern = detect_pattern(class_values[0])
        assert any(g.first is not None for g in pattern._groups)


def _four_classes(rng):
    """3 x 7 classes: MCAR at 10%, one without holes, dropout tails, MCAR at 45%.

    The dropout class loses its last 0-4 columns, so its groups of 3, 6, 9
    and 12 holes each share one set; the heavy class alone has the largest
    counts.  Returns the values and a parameter set for each class.
    """
    params = [random_params(rng, 3, 7) for _ in range(4)]
    mcar = knock_out(sample(params[0], 60, rng).values, 0.1, rng)
    complete = sample(params[1], 30, rng).values
    dropout = sample(params[2], 60, rng).values
    for i in range(60):
        dropout[i, :, 7 - i % 5 :] = np.nan
    heavy = knock_out(sample(params[3], 40, rng).values, 0.45, rng)
    return [mcar, complete, dropout, heavy], params


def _assert_e_step_is_each_class_alone(class_values, params, completions, frees, logliks):
    """Each class's moments against its own one-class :func:`_e_step`, bit for bit."""
    for values, prm, got, got_free, got_loglik in zip(
        class_values, params, completions, frees, logliks
    ):
        if not np.isnan(values).any():
            held = matnorm.missing._complete(values)[1]
            assert all(_same_bits(a, b) for a, b in zip(got, held)) and got_free is None
            assert got_loglik == matnorm.missing._class_e_step(values, held, prm)[2]
            continue
        want, want_free, want_loglik = _e_step(values, detect_pattern(values), prm)
        assert _same_bits(got, want)
        assert len(got_free) == len(want_free)
        for a, b in zip(got_free, want_free):
            assert _same_bits(a, b)
        assert got_loglik == want_loglik


def test_joint_e_step_is_each_class_alone_bit_for_bit(monkeypatch):
    # every missing count goes through one kernel call, on the blocks of
    # every class with that count stacked, and each block comes out as it
    # would alone
    rng = np.random.default_rng(51)
    class_values, params = _four_classes(rng)
    holed = [i for i, v in enumerate(class_values) if np.isnan(v).any()]
    patterns = [detect_pattern(class_values[i]) for i in holed]
    counts = [{g.m for g in pt._groups} for pt in patterns]
    everywhere = sorted(set().union(*counts))
    in_several = [m for m in everywhere if sum(m in c for c in counts) > 1]
    assert min(in_several) < _POTRI_MIN_HOLES <= max(in_several)
    assert any(sum(m in c for c in counts) == 1 for m in everywhere)
    assert all(g.first is not None for g in patterns[1]._groups)
    assert any(g.first is None for g in patterns[0]._groups)

    blocks = spy(monkeypatch, matnorm.linalg._condition_block)
    joint = _e_step(
        [class_values[i] for i in holed], patterns, [params[i] for i in holed]
    )
    assert [call.args[0].shape[1] for call in blocks] == everywhere
    _assert_e_step_is_each_class_alone(
        [class_values[i] for i in holed], [params[i] for i in holed], *zip(*joint)
    )

    # the fit's own E-step: the class without holes keeps its closed form,
    # and the log likelihoods are summed in class order
    labels = np.repeat([1, 2, 3, 4], [len(v) for v in class_values])
    data = LabeledObservationSet(np.concatenate(class_values), labels)
    loops = spy(monkeypatch, matnorm.mle._iterate)
    fit_class_models(data, "em", FitConfig(max_iters=1))
    e_step = loops[0].args[0]
    blocks.clear()
    completions, frees, loglik = e_step(list(params))
    assert len(blocks) == len(everywhere)
    logliks = [
        matnorm.missing._class_e_step(v, matnorm.missing._complete(v)[1], prm)[2]
        if not np.isnan(v).any() else _e_step(v, detect_pattern(v), prm)[2]
        for v, prm in zip(class_values, params)
    ]
    _assert_e_step_is_each_class_alone(class_values, params, completions, frees, logliks)
    assert loglik == sum(logliks)


def test_class_fit_makes_one_kernel_call_per_missing_count_per_e_step(monkeypatch):
    rng = np.random.default_rng(53)
    class_values, _ = _four_classes(rng)
    counts = {g.m for v in class_values if np.isnan(v).any() for g in detect_pattern(v)._groups}
    labels = np.repeat([1, 2, 3, 4], [len(v) for v in class_values])
    e_steps = spy(monkeypatch, matnorm.missing._e_step)
    blocks = spy(monkeypatch, matnorm.linalg._condition_block)
    model = fit_class_models(LabeledObservationSet(np.concatenate(class_values), labels), "em")
    # the start's E-step conditions nothing, and calls no _e_step
    assert len(e_steps) >= model.iterations >= 3
    assert len(blocks) == len(counts) * len(e_steps)


def test_joint_e_step_names_the_singular_pivot_of_the_class_that_holds_it():
    bad_values, bad = _near_tolerance_case(0.99)
    rng = np.random.default_rng(52)
    good = random_params(rng, 2, 3)
    good_values = sample(good, 6, rng).values
    # one hole each, at stacked positions 2 and 5, in two shared sets: the
    # merged stack reads the second class's members through offset indices
    for i, (r, c) in enumerate([(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (1, 2)]):
        good_values[i, r, c] = np.nan
    patterns = [detect_pattern(v) for v in (good_values, bad_values)]
    assert patterns[0]._groups[0].first is not None
    assert patterns[1]._groups[0].first is None
    assert np.isfinite(_e_step(good_values, patterns[0], good)[2])
    with pytest.raises(SingularPivotError) as alone:
        _e_step(bad_values, patterns[1], bad)
    with pytest.raises(SingularPivotError) as joint:
        _e_step([good_values, bad_values], patterns, [good, bad])
    assert joint.value.pivot == alone.value.pivot == 1


def test_em_path_never_forms_the_kronecker_precision(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pq x pq Kronecker product was formed")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(matnorm.linalg, "kron", refuse)
    rng = np.random.default_rng(32)
    params = random_params(rng, 3, 4)
    values = knock_out(sample(params, 40, rng).values, 0.2, rng)
    cfg = FitConfig(max_iters=20)
    result = fit_em(ObservationSet(values), cfg)
    assert result.iterations >= 1
    assert np.isfinite(result.loglik_trace).all()
    labels = np.repeat([1, 2], 20)
    model = fit_class_models(LabeledObservationSet(values, labels), "em", cfg)
    assert model.iterations >= 1
    assert np.isfinite(model.completions).all()


def _assert_accumulators_match_masks(values, params):
    """The scattered conditional mass against the explicit masked form.

    E_col.T @ (cond_cov * (E_row @ row_prec @ E_row.T)) @ E_col summed over
    observations, and its row-side mirror.
    """
    p, q = values.shape[1:]
    pattern = detect_pattern(values)
    completions, free_by_group, _ = _e_step(values, pattern, params)
    resid = np.zeros_like(completions)  # isolate the conditional mass
    row_prec = np.linalg.inv(params.row_cov)
    col_prec = np.linalg.inv(params.col_cov)

    grid = _conditional_grid(pattern, free_by_group)
    col_got = _col_accumulator(resid, row_prec, grid, params.scale)
    row_got = _row_accumulator(resid, col_prec, grid, params.scale)

    col_ref = np.zeros((q, q))
    row_ref = np.zeros((p, p))
    cov_by_obs = {}
    for g, free in zip(pattern._groups, free_by_group):
        for b, i in enumerate(g.obs_ids):
            cov_by_obs[int(i)] = params.scale * free[b]
    for i, cond_cov in cov_by_obs.items():
        e_row = pattern.row_masks[i]
        e_col = pattern.col_masks[i]
        col_ref += e_col.T @ (cond_cov * (e_row @ row_prec @ e_row.T)) @ e_col
        row_ref += e_row.T @ (cond_cov * (e_col @ col_prec @ e_col.T)) @ e_row
    np.testing.assert_allclose(col_got, col_ref, atol=1e-12)
    np.testing.assert_allclose(row_got, row_ref, atol=1e-12)


def test_scatter_accumulators_match_mask_identity():
    # the conditional grid is scattered onto rows padded from p * p to the
    # next power of two (1, 16 and 32 here) and read back through a view
    rng = np.random.default_rng(9)
    for p in (1, 3, 5):
        for _ in range(10):
            q = int(rng.integers(2, 5))
            params = random_params(rng, p, q)
            values = knock_out(sample(params, 8, rng).values, 0.3, rng)
            _assert_accumulators_match_masks(values, params)


def test_scatter_accumulators_weight_shared_hole_sets():
    rng = np.random.default_rng(35)
    values = _dropout_values(rng, 3, 5, 30)
    pattern = detect_pattern(values)
    assert all(g.first is not None for g in pattern._groups)
    _assert_accumulators_match_masks(values, random_params(rng, 3, 5))


@pytest.mark.parametrize("classes", [1, 3])
def test_m_step_scatters_the_conditional_mass_once_per_class(monkeypatch, classes):
    rng = np.random.default_rng(37)
    values = knock_out(sample(random_params(rng, 3, 5), 90, rng).values, 0.25, rng)
    labels = np.repeat(np.arange(1, classes + 1), 90 // classes)
    groups = [
        len(detect_pattern(values[labels == c])._groups) for c in range(1, classes + 1)
    ]
    assert min(groups) >= 4
    calls = spy(monkeypatch, matnorm.mle._scatter_add)
    m_steps = spy(monkeypatch, matnorm.mle._pooled_m_step)
    if classes == 1:
        iterations = fit_em(ObservationSet(values)).iterations
    else:
        data = LabeledObservationSet(values, labels)
        iterations = fit_class_models(data, "em").iterations
    assert iterations >= 3
    # one grid per class per M-step, however many missing-count groups; the
    # extrapolating loop takes more M-steps than it records iterations
    assert len(m_steps) > iterations
    assert len(calls) == classes * len(m_steps)


class TestFitEm:
    def test_observed_loglik_never_decreases(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            params = random_params(rng, 3, 4)
            values = knock_out(sample(params, 40, rng).values, 0.15, rng)
            result = fit_em(ObservationSet(values), TIGHT)
            trace = result.loglik_trace
            assert ascends(trace), f"trial {trial}"

    def test_complete_data_delegates_to_mle(self):
        rng = np.random.default_rng(11)
        data = sample(random_params(rng, 2, 3), 50, rng)
        em = fit_em(data)
        ref = fit_mle(data)
        np.testing.assert_array_equal(em.params.mean, ref.params.mean)
        np.testing.assert_array_equal(em.params.row_cov, ref.params.row_cov)
        np.testing.assert_array_equal(em.params.col_cov, ref.params.col_cov)
        assert em.params.scale == ref.params.scale
        np.testing.assert_array_equal(em.loglik_trace, ref.loglik_trace)

    def test_trace_entry_matches_observed_loglik(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 3)
        values = knock_out(sample(params, 30, rng).values, 0.2, rng)
        data = ObservationSet(values)
        result = fit_em(data)
        ref = observed_log_likelihood(data, result.params)
        assert abs(result.loglik_trace[-1] - ref) < 1e-8 * max(1.0, abs(ref))

    def test_rejects_single_observation(self):
        values = np.zeros((1, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(EstimationError):
            fit_em(ObservationSet(values))

    def test_warns_when_cell_never_observed(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, 2, 3)
        values = sample(params, 20, rng).values
        values[:, 1, 2] = np.nan
        with pytest.warns(UserWarning, match="missing in every observation"):
            fit_em(ObservationSet(values), FitConfig(max_iters=3))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        p, q = 3, 4
        params = random_params(rng, p, q)
        values = knock_out(sample(params, 80, rng).values, 0.1, rng)
        rp = rng.permutation(p)
        cp = rng.permutation(q)
        permuted = values[:, rp][:, :, cp]

        base = fit_em(ObservationSet(values), TIGHT).params
        perm = fit_em(ObservationSet(permuted), TIGHT).params

        np.testing.assert_allclose(perm.mean, base.mean[rp][:, cp], atol=1e-9)
        # the stacked covariance permutes entrywise: new position c*p+r holds
        # old position cp[c]*p + rp[r]
        idx = np.array([cp[c] * p + rp[r] for c in range(q) for r in range(p)])
        full_base = base.full_covariance()
        full_perm = perm.full_covariance()
        np.testing.assert_allclose(
            full_perm, full_base[np.ix_(idx, idx)], atol=1e-9
        )


class TestFitMm:
    def test_complete_data_delegates_to_mle(self):
        rng = np.random.default_rng(15)
        data = sample(random_params(rng, 2, 3), 50, rng)
        mm = fit_mm(data)
        ref = fit_mle(data)
        np.testing.assert_array_equal(mm.params.mean, ref.params.mean)
        np.testing.assert_array_equal(mm.loglik_trace, ref.loglik_trace)

    def test_fitted_mean_is_observed_cell_mean(self):
        rng = np.random.default_rng(16)
        params = random_params(rng, 3, 3)
        values = knock_out(sample(params, 25, rng).values, 0.2, rng)
        result = fit_mm(ObservationSet(values))
        np.testing.assert_allclose(
            result.params.mean, _observed_cell_means(values), atol=1e-12
        )

    def test_hand_worked_fill(self):
        # one missing cell: the fill is the mean of the two observed values,
        # so the fitted mean at that cell is that same average
        values = np.array(
            [
                [[1.0, 2.0], [3.0, 4.0]],
                [[5.0, 4.0], [1.0, 0.0]],
                [[np.nan, 3.0], [2.0, 2.0]],
            ]
        )
        result = fit_mm(ObservationSet(values), FitConfig(max_iters=200))
        assert abs(result.params.mean[0, 0] - 3.0) < 1e-12

    def test_understates_variance_against_em(self):
        # mean filling pulls imputed cells to the center, so the fitted
        # variance scale should usually come out below the EM one
        rng = np.random.default_rng(17)
        wins = 0
        trials = 100
        for trial in range(trials):
            trial_rng = np.random.default_rng(1000 + trial)
            params = random_params(trial_rng, 3, 4)
            values = knock_out(sample(params, 200, trial_rng).values, 0.2, trial_rng)
            data = ObservationSet(values)
            mm_scale = fit_mm(data).params.scale
            em_scale = fit_em(data).params.scale
            if mm_scale < em_scale:
                wins += 1
        assert wins >= 80, f"variance understated in only {wins}/{trials} trials"


def _rows_params(mean, cov):
    """Parameters of 1 x d rows whose covariance is exactly ``cov``."""
    d = mean.size
    return MatrixNormalParams(mean.reshape(1, d), np.eye(1), cov, 1.0, require_normalized=False)


def _row_e_step(vdata, params):
    """:func:`_e_step` on the 1 x d rows of (n, d) stacked observations.

    Returns the (n, d) completions, the summed conditional covariance and
    the observed log likelihood.
    """
    n, d = vdata.shape
    rows = vdata.reshape(n, 1, d)
    pattern = detect_pattern(rows)
    completions, free_by_group, loglik = _e_step(rows, pattern, params)
    grid = _conditional_grid(pattern, free_by_group)
    extra = np.zeros((d, d)) if grid is None else params.scale * grid.reshape(d, d)
    return completions.reshape(n, d), extra, loglik


class TestFitGem:
    def test_complete_data_is_sample_moments(self):
        rng = np.random.default_rng(18)
        data = sample(random_params(rng, 2, 3), 80, rng)
        params, result = fit_gem(data)
        vdata = data.values.transpose(0, 2, 1).reshape(80, 6)
        np.testing.assert_allclose(params.mean, vdata.mean(axis=0), atol=1e-12)
        resid = vdata - vdata.mean(axis=0)
        np.testing.assert_allclose(resid.T @ resid / 80, params.cov, atol=1e-10)
        assert result.converged
        assert result.params is None

    def test_conditioning_agrees_with_kronecker_route(self):
        # with the covariance built from the factored parameters, the
        # unstructured E-step must reproduce conditional_moments on one
        # observation, and em's E-step on whole stacks
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = int(rng.integers(2, 4))
            q = int(rng.integers(2, 4))
            params = random_params(rng, p, q)
            x = sample(params, 1, rng).values[0]
            m = int(rng.integers(1, p * q))
            miss = np.sort(rng.choice(p * q, size=m, replace=False))
            x_vec = vec(x)
            x_vec[miss] = np.nan
            x_nan = x_vec.reshape(q, p).T
            completions, extra, _ = _row_e_step(
                x_vec[None], _rows_params(vec(params.mean), params.full_covariance())
            )
            ref = conditional_moments(x_nan, params)
            np.testing.assert_allclose(
                completions[0, miss], vec(ref.mean_completion)[miss], atol=1e-9
            )
            np.testing.assert_allclose(
                extra[np.ix_(miss, miss)], ref.cond_cov, atol=1e-9
            )
        for p, q in ((2, 4), (3, 5), (3, 7)):
            d = p * q
            params = random_params(rng, p, q)
            mcar = knock_out(sample(params, 40, rng).values, 0.2, rng)
            dropout = _dropout_values(rng, p, q, 60)
            assert any(grp.first is not None for grp in detect_pattern(dropout)._groups)
            for values in (mcar, dropout):
                pattern = detect_pattern(values)
                completions, free_by_group, loglik = _e_step(values, pattern, params)
                grid = _conditional_grid(pattern, free_by_group)
                got, extra, got_loglik = _row_e_step(
                    values.transpose(0, 2, 1).reshape(-1, d),
                    _rows_params(vec(params.mean), params.full_covariance()),
                )
                np.testing.assert_allclose(
                    got, completions.transpose(0, 2, 1).reshape(-1, d), rtol=0, atol=1e-10
                )
                # em's grid is scale free and (q, q, p, p); gem's mass is d x d
                np.testing.assert_allclose(
                    extra,
                    params.scale * grid.transpose(0, 2, 1, 3).reshape(d, d),
                    rtol=0,
                    atol=1e-10,
                )
                assert got_loglik == pytest.approx(loglik, rel=1e-12)

    def test_e_step_matches_per_observation_reference(self):
        rng = np.random.default_rng(38)
        p, q = 3, 5
        d = p * q
        mcar = knock_out(sample(random_params(rng, p, q), 40, rng).values, 0.3, rng)
        mixed = knock_out(sample(random_params(rng, p, q), 60, rng).values, 0.03, rng)
        dropout = _dropout_values(rng, p, q, 60)
        for values, complete, shares in (
            (mcar, False, False), (mixed, True, False), (dropout, False, True)
        ):
            pattern = detect_pattern(values)
            assert (~np.isnan(values).any(axis=(1, 2))).any() == complete
            assert any(g.first is not None for g in pattern._groups) == shares
            g = rng.standard_normal((d, d))
            cov = g @ g.T / d + 0.2 * np.eye(d)
            mean = rng.standard_normal(d)
            vdata = values.transpose(0, 2, 1).reshape(-1, d)
            completions, extra, loglik = _row_e_step(vdata, _rows_params(mean, cov))

            ref_completions, ref_extra, ref_loglik = vdata.copy(), np.zeros((d, d)), 0.0
            for i, x in enumerate(vdata):
                miss = np.flatnonzero(np.isnan(x))
                seen = np.flatnonzero(~np.isnan(x))
                ref_loglik += scipy.stats.multivariate_normal(
                    mean[seen], cov[np.ix_(seen, seen)]
                ).logpdf(x[seen])
                if miss.size:
                    cond_mean, cond_cov = mvn_condition(x, mean, cov, miss)
                    ref_completions[i, miss] = cond_mean
                    ref_extra[np.ix_(miss, miss)] += cond_cov
            np.testing.assert_allclose(completions, ref_completions, rtol=0, atol=1e-10)
            np.testing.assert_allclose(extra, ref_extra, rtol=0, atol=1e-10)
            assert loglik == pytest.approx(ref_loglik, rel=1e-12)

    def test_loglik_holds_on_ill_conditioned_cov(self):
        # log det Sigma_oo read as log det Sigma - log det Sigma_mm.o loses
        # 5e-11 relative or more at condition 1e8; as log det Sigma + log det
        # P_mm it stays as accurate as a Cholesky of each observed block
        rng = np.random.default_rng(40)
        p, q = 3, 5
        d = p * q
        for trial in range(6):
            cov = ill_conditioned_cov(rng, d, 1e8)
            assert np.linalg.cond(cov) > 5e7
            mean = rng.standard_normal(d)
            vdata = rng.multivariate_normal(mean, cov, size=40, method="eigh")
            if trial % 2:
                values = _dropout_values(rng, p, q, 40)
                vdata[np.isnan(values.transpose(0, 2, 1).reshape(-1, d))] = np.nan
            else:
                vdata[rng.random(vdata.shape) < 0.45] = np.nan
                vdata[np.isnan(vdata).all(axis=1), 0] = mean[0]
            _, _, got = _row_e_step(vdata, _rows_params(mean, cov))
            ref = 0.0
            for x in vdata:
                seen = np.flatnonzero(~np.isnan(x))
                ref += scipy.stats.multivariate_normal(
                    mean[seen], cov[np.ix_(seen, seen)]
                ).logpdf(x[seen])
            assert abs(got - ref) <= 1e-11 * abs(ref), f"trial {trial}"

    def test_loglik_holds_as_cov_nears_singular(self):
        # at condition 1e12 the shifts read off an explicit precision are
        # off by up to 5e-7 of the log likelihood until refined; the
        # reference takes a Cholesky of each observed block
        rng = np.random.default_rng(43)
        p, q = 3, 5
        d = p * q
        for trial in range(6):
            cov = ill_conditioned_cov(rng, d, 1e12)
            mean = rng.standard_normal(d)
            vdata = rng.multivariate_normal(mean, cov, size=40, method="eigh")
            if trial % 2:
                values = _dropout_values(rng, p, q, 40)
                vdata[np.isnan(values.transpose(0, 2, 1).reshape(-1, d))] = np.nan
            else:
                vdata[rng.random(vdata.shape) < 0.45] = np.nan
                vdata[np.isnan(vdata).all(axis=1), 0] = mean[0]
            _, _, got = _row_e_step(vdata, _rows_params(mean, cov))
            ref = 0.0
            for x in vdata:
                seen = ~np.isnan(x)
                chol = np.linalg.cholesky(cov[np.ix_(seen, seen)])
                white = scipy.linalg.solve_triangular(chol, x[seen] - mean[seen], lower=True)
                ref -= 0.5 * (
                    seen.sum() * np.log(2 * np.pi)
                    + 2 * np.log(np.diag(chol)).sum()
                    + white @ white
                )
            assert abs(got - ref) <= 1e-9 * abs(ref), f"trial {trial}"

    def test_well_conditioned_fit_never_refines(self, monkeypatch):
        # the E-step takes the factors' Cholesky factors only to refine its
        # shifts past _REFINE_COND; a well-conditioned fit never gets there
        real = matnorm.missing.spd_cholesky
        calls = []

        def spy(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(matnorm.missing, "spd_cholesky", spy)
        rng = np.random.default_rng(44)
        values = knock_out(sample(random_params(rng, 3, 5), 200, rng).values, 0.2, rng)
        _, result = fit_gem(ObservationSet(values))
        assert result.converged and result.iterations >= 3
        assert calls == []
        # an E-step past the bound does: one Cholesky of each factor
        d = 15
        cov = ill_conditioned_cov(rng, d, 1e8)
        vdata = rng.multivariate_normal(np.zeros(d), cov, size=40, method="eigh")
        vdata[:, 3] = np.nan
        _row_e_step(vdata, _rows_params(np.zeros(d), cov))
        assert calls == [(1, 1), (d, d)]

    def test_e_step_factors_each_observed_block_once(self, monkeypatch):
        rng = np.random.default_rng(39)
        cases = [
            (3, 5, _dropout_values(rng, 3, 5, 60), True),
            (3, 5, knock_out(sample(random_params(rng, 3, 5), 40, rng).values, 0.2, rng), False),
            # groups at and above the dpotri cut-off
            (4, 6, _dropout_values(rng, 4, 6, 60), True),
            (8, 16, knock_out(sample(random_params(rng, 8, 16), 30, rng).values, 0.2, rng), False),
        ]
        calls = _record_factorizations(monkeypatch, ("cholesky", "solve", "inv", "slogdet"))
        hole_counts = set()
        for p, q, values, shares in cases:
            d = p * q
            g = rng.standard_normal((d, d))
            cov = g @ g.T / d + 0.2 * np.eye(d)
            mean = rng.standard_normal(d)
            params = _rows_params(mean, cov)
            pattern = detect_pattern(values)
            expected = []
            for grp in pattern._groups:
                if grp.first is None:
                    sets = grp.obs_ids.size
                else:
                    sets = len({tuple(holes) for holes in grp.miss})
                    assert grp.first.size == sets < grp.obs_ids.size
                # only the m x m missing precision block of each factored set
                # is factored and inverted; no observed block is solved
                expected += _expected_factorizations(grp.m, sets)
                hole_counts.add(grp.m)
            assert any(grp.first is not None for grp in pattern._groups) == shares
            calls.clear()
            _row_e_step(values.transpose(0, 2, 1).reshape(-1, d), params)
            assert sorted(calls) == sorted(expected)
        assert min(hole_counts) < _POTRI_MIN_HOLES <= max(hole_counts)

    def test_observed_loglik_never_decreases(self):
        rng = np.random.default_rng(20)
        params = random_params(rng, 2, 3)
        values = knock_out(sample(params, 60, rng).values, 0.2, rng)
        _, result = fit_gem(ObservationSet(values), TIGHT)
        trace = result.loglik_trace
        assert ascends(trace)

    def test_fit_does_not_depend_on_the_data_units(self):
        # neither the parameter-step test nor the kernel's pivot floor may
        # see the data's scale: the fit of c * X is c**2 times the fit of X.
        # A tight tol leaves the stop to the parameter step; the
        # log-likelihood test per observed entry is unit-free as well.
        rng = np.random.default_rng(42)
        values = knock_out(sample(random_params(rng, 3, 7), 500, rng).values, 0.1, rng)
        cfg = FitConfig(tol=1e-13)
        unit = fit_gem(ObservationSet(values), cfg)[0].cov
        for c in (1e-5, 1.0, 1e7):
            params, result = fit_gem(ObservationSet(c * values), cfg)
            assert result.converged
            err = np.linalg.norm(params.cov - c**2 * unit) / np.linalg.norm(c**2 * unit)
            assert err <= 1e-4, f"data x {c:g}: covariance off by {err:.2e}"

    def test_warns_when_sample_cannot_fill_covariance(self):
        rng = np.random.default_rng(21)
        params = random_params(rng, 3, 4)
        values = sample(params, 10, rng).values
        with pytest.warns(UserWarning, match="covariance"):
            fit_gem(ObservationSet(values), FitConfig(max_iters=2))

    def test_slower_than_structured_em(self):
        rng = np.random.default_rng(22)
        params = random_params(rng, 3, 7)
        em_times, gem_times = [], []
        for rep in range(5):
            rep_rng = np.random.default_rng(500 + rep)
            values = knock_out(sample(params, 300, rep_rng).values, 0.1, rep_rng)
            data = ObservationSet(values)
            em_times.append(fit_em(data).wall_time)
            gem_times.append(fit_gem(data)[1].wall_time)
        assert np.median(gem_times) > np.median(em_times)


def test_em_beats_mean_fill_on_covariance_error():
    rng_master = np.random.default_rng(23)
    wins = 0
    trials = 100
    for trial in range(trials):
        trial_rng = np.random.default_rng(7000 + trial)
        params = random_params(trial_rng, 3, 5)
        values = knock_out(sample(params, 1000, trial_rng).values, 0.05, trial_rng)
        data = ObservationSet(values)
        truth_full = params.full_covariance()

        def err(est):
            return np.linalg.norm(est.full_covariance() - truth_full)

        if err(fit_em(data).params) < err(fit_mm(data).params):
            wins += 1
    assert wins >= 80, f"EM won only {wins}/{trials} trials"


_SHORT = FitConfig(max_iters=3)


def _few(holes):
    """Three 2 x 3 observations, too few for either model."""
    rng = np.random.default_rng(24)
    values = sample(random_params(rng, 2, 3), 3, rng).values
    if holes:
        values[0, 0, 0] = np.nan
    return ObservationSet(values)


def _cell_never_observed():
    """Forty 2 x 3 observations, cell (1, 2) missing in all of them."""
    rng = np.random.default_rng(26)
    values = sample(random_params(rng, 2, 3), 40, rng).values
    values[:, 1, 2] = np.nan
    return values


def _classes(method):
    values = _cell_never_observed()
    labels = np.tile([1, 2], values.shape[0] // 2)
    return lambda: fit_class_models(LabeledObservationSet(values, labels), method, _SHORT)


@pytest.mark.parametrize(
    "fit, match",
    [
        (lambda: fit_mle(_few(False), _SHORT), "observations"),
        (lambda: fit_mm(_few(False), _SHORT), "observations"),
        (lambda: fit_em(_few(False), _SHORT), "observations"),
        (lambda: fit_em(_few(True), _SHORT), "observations"),
        (lambda: fit_gem(_few(True), _SHORT), "observations"),
        (lambda: fit_em(ObservationSet(_cell_never_observed()), _SHORT), "every observation"),
        (lambda: fit_mm(ObservationSet(_cell_never_observed()), _SHORT), "every observation"),
        (lambda: fit_gem(ObservationSet(_cell_never_observed()), _SHORT), "every observation"),
        (_classes("em"), "every observation"),
        (_classes("mm"), "every observation"),
    ],
    ids=[
        "mle", "mm", "em-complete", "em-holes", "gem",
        "cell-em", "cell-mm", "cell-gem", "cell-class-em", "cell-class-mm",
    ],
)
def test_every_warning_names_the_caller(fit, match):
    """However deep inside the package a warning is raised, it points here."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit()
    assert any(re.search(match, str(w.message)) for w in caught)
    assert [w.filename for w in caught] == [__file__] * len(caught)
