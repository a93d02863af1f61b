"""Squared extrapolation (SQUAREM) in the one iteration loop.

The missing-data fits, em and the class fit on the Kronecker model and gem
on the unstructured one, follow each plain update with an extrapolated
point; the point is kept only when one update from it ends at least as high
as the plain update did, so the trace ascends whatever the point is.
"""

import logging
import warnings

import numpy as np
import pytest
from support import ascends, spy

from matnorm import missing, mle, model
from matnorm.missing import detect_pattern, fit_em, fit_gem
from matnorm.mle import FitConfig, _iterate
from matnorm.model import MatrixNormalParams, ObservationSet, _precisions, sample
from matnorm.simulate import (
    SimConfig,
    _replicate_rngs,
    inject_missing,
    random_params,
    run_grid,
)

VALUES = inject_missing(sample(random_params(3, 7, 61), 500, 62), 0.4, 63).values


def _plain_fit(values, cfg=FitConfig()):
    """``fit_em``'s E- and M-steps through the loop without extrapolation."""
    pattern = detect_pattern(values)
    calls = []

    def e_step(params):
        calls.append(params)
        return missing._e_step(values, pattern, params)

    def m_step(params, moments):
        grid = missing._conditional_grid(pattern, moments[1])
        return mle._pooled_m_step([grid], [moments[0]], [params])[0]

    def coordinates(params, like):
        return mle._squarem_coordinates([params], [like])

    start, entries = mle._initial_params(values), np.count_nonzero(~np.isnan(values))
    _, _, result = _iterate(e_step, m_step, coordinates, start, entries, cfg, 0.0)
    return result, len(calls)


def _kronecker_point(*sets):
    return mle._squarem_point(mle._squarem_coordinates, mle._squarem_params, *sets)


def test_accelerated_fit_takes_fewer_e_steps_and_ends_no_lower(monkeypatch, caplog):
    plain, plain_e_steps = _plain_fit(VALUES)
    e_steps = spy(monkeypatch, missing._e_step)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        fast = fit_em(ObservationSet(VALUES))
    assert "(extrapolated)" in caplog.text
    assert plain.converged and fast.converged
    assert len(e_steps) < plain_e_steps
    assert fast.iterations < plain.iterations
    end, plain_end = fast.loglik_trace[-1], plain.loglik_trace[-1]
    assert end >= plain_end - 1e-9 * abs(plain_end)
    assert ascends(fast.loglik_trace)


def test_worse_extrapolated_point_is_rejected(monkeypatch):
    real = missing._squarem_params
    points = []

    def inflated(*args):
        point = real(*args)
        worse = MatrixNormalParams._factored(
            point[0].mean, point[0].row_cov, point[0].col_cov, 10.0 * point[0].scale,
            *_precisions(point[0]),
        )
        points.append(worse)
        return [worse]

    monkeypatch.setattr(missing, "_squarem_params", inflated)
    result = fit_em(ObservationSet(VALUES))
    assert points
    # every point is rejected, so the loop records exactly the plain updates
    plain, _ = _plain_fit(VALUES)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)
    assert result.converged
    assert ascends(result.loglik_trace)


def test_missing_point_falls_back_to_the_plain_updates(monkeypatch, caplog):
    monkeypatch.setattr(missing, "_squarem_params", lambda *args: None)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        result = fit_em(ObservationSet(VALUES))
    plain, _ = _plain_fit(VALUES)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)
    assert "extrapolated" not in caplog.text


def test_point_whose_update_fails_to_factor_falls_back(monkeypatch):
    real_point, real_m_step = missing._squarem_params, missing._pooled_m_step
    points = []

    def recorded(*args):
        points.append(real_point(*args)[0])
        return [points[-1]]

    def failing(grids, completions, old):
        if points and old[0] is points[-1]:
            raise mle.SingularUpdateError("row covariance update is singular even after jitter")
        return real_m_step(grids, completions, old)

    monkeypatch.setattr(missing, "_squarem_params", recorded)
    monkeypatch.setattr(missing, "_pooled_m_step", failing)
    result = fit_em(ObservationSet(VALUES))
    assert points
    plain, _ = _plain_fit(VALUES)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)


def _sets(mean_shift, row_cov):
    """One-class sets on a 2 x 2 model differing in mean and row factor only."""
    return [
        MatrixNormalParams(np.full((2, 2), mean_shift), row_cov, np.eye(2), 1.0)
    ]


def test_non_spd_extrapolated_factor_is_rejected_quietly(monkeypatch, caplog):
    # A long step along the mean (|r| = 1) over a small curvature in the
    # row factor (|v| = 0.007) gives alpha of about -141, and alpha^2 v
    # puts an off-diagonal of about 100 into a shape with diagonal 0.5.
    trio = _sets(0.0, np.eye(2)), _sets(0.5, np.eye(2)), _sets(1.0, [[1.0, 0.01], [0.01, 1.0]])
    checks = []
    monkeypatch.setattr(model, "ensure_spd", checks.append)
    with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="matnorm"):
        warnings.simplefilter("error")
        point = _kronecker_point(*trio)
    assert point is None
    assert caplog.records == []
    assert checks == []


def test_extrapolated_point_is_pinned_factored_and_shares_its_row_factor():
    # three two-class sets, each with one row factor as a class fit has
    sets = [[random_params(3, 4, 64 + 2 * k + c) for c in range(2)] for k in range(3)]
    for start, *others in sets:
        for prm in others:
            prm.row_cov = start.row_cov
    point = _kronecker_point(*sets)
    assert point is not None
    assert point[1].row_cov is point[0].row_cov
    for prm in point:
        assert prm.row_cov[0, 0] == 1.0 and prm.col_cov[0, 0] == 1.0
        fresh = MatrixNormalParams(prm.mean, prm.row_cov, prm.col_cov, prm.scale)
        for got, want in zip(_precisions(prm), _precisions(fresh)):
            np.testing.assert_allclose(got[0], want[0], rtol=1e-10, atol=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)


def test_unit_step_gives_the_second_update_back():
    # alpha = -1 whenever |r| <= |v|; theta0 + 2r + v is then theta2
    start = [random_params(3, 4, 65)]
    second = [random_params(3, 4, 66)]
    point = _kronecker_point(start, start, second)
    want = second[0].full_covariance()
    np.testing.assert_allclose(point[0].full_covariance(), want, rtol=1e-12)
    np.testing.assert_allclose(point[0].mean, second[0].mean, rtol=1e-12)


def _rel(got, want):
    return np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want)


@pytest.mark.parametrize("classes", [1, 2], ids=["one-class", "two-classes"])
def test_kronecker_coordinates_map_back_to_the_same_sets(classes):
    sets = [random_params(3, 4, 70 + c) for c in range(classes)]
    for prm in sets[1:]:
        prm.row_cov = sets[0].row_cov
    back = mle._squarem_params(mle._squarem_coordinates(sets, sets), sets)
    assert len(back) == classes
    assert all(prm.row_cov is back[0].row_cov for prm in back)
    for got, want in zip(back, sets):
        assert _rel(got.mean, want.mean) <= 1e-12
        assert _rel(got.full_covariance(), want.full_covariance()) <= 1e-12
        assert got.scale == pytest.approx(want.scale, rel=1e-12)
        fresh = MatrixNormalParams(got.mean, got.row_cov, got.col_cov, got.scale)
        for carried, checked in zip(_precisions(got), _precisions(fresh)):
            np.testing.assert_allclose(carried[0], checked[0], rtol=1e-10, atol=1e-12)
            assert carried[1] == pytest.approx(checked[1], rel=1e-12, abs=1e-12)


def _plain_gem(monkeypatch, values, cfg=FitConfig()):
    """``fit_gem`` through the loop without extrapolation."""
    real = missing._iterate
    with monkeypatch.context() as patched:
        patched.setattr(missing, "_iterate", lambda *args: real(*args[:7]))
        return fit_gem(ObservationSet(values), cfg)[1]


def test_gem_fit_that_crawled_to_the_cap_now_converges():
    # 3x7, N=250, 20% MCAR, grid seed 11, replicate 2: plain steps still
    # gained 6.5e-4 per iteration at the 500-iteration cap
    cfg = SimConfig(
        dims=((3, 7),), sample_sizes=(250,), miss_props=(0.2,),
        replicates=3, seed=11, methods=("gem",),
    )
    row = run_grid(cfg).rows[2]
    assert row.replicate == 2 and row.converged
    assert row.iterations < cfg.fit.max_iters
    params_rng, sample_rng, miss_rng = _replicate_rngs(11, 3, 7, 250, 0.2, 2)
    clean = sample(random_params(3, 7, params_rng), 250, sample_rng)
    _, result = fit_gem(inject_missing(clean, 0.2, miss_rng), cfg.fit)
    assert result.converged and result.iterations == row.iterations
    assert ascends(result.loglik_trace)


def test_gem_fit_whose_covariance_collapses_converges_below_the_cap():
    # 3x7, N=250, 20% MCAR, grid seed 1, replicate 0: the covariance's
    # smallest eigenvalue falls to about 1e-8, so a step measured against
    # trace(cov) / d in place of its largest entry never settles
    cfg = SimConfig(
        dims=((3, 7),), sample_sizes=(250,), miss_props=(0.2,),
        replicates=1, seed=1, methods=("gem",),
    )
    row = run_grid(cfg).rows[0]
    assert row.replicate == 0 and row.converged
    assert row.iterations < cfg.fit.max_iters


def test_gem_rejected_points_fall_back_to_the_plain_updates(monkeypatch, caplog):
    # every point is pushed out of the SPD cone or off the finite numbers,
    # so the loop records exactly the plain updates
    real = missing._squarem_params
    points = []

    def spoiled(x, like):
        # x holds the 1 x 1 row shape, the mean, the column shape, the log scale
        d = like[0].q
        x = x.copy()
        shape = x[1 + d : 1 + d + d * d]
        shape[:] = -shape if len(points) % 2 else np.where(np.eye(d).ravel(), np.nan, shape)
        points.append(real(x, like))
        return points[-1]

    cfg = FitConfig(max_iters=60)
    plain = _plain_gem(monkeypatch, VALUES, cfg)
    monkeypatch.setattr(missing, "_squarem_params", spoiled)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        result = fit_gem(ObservationSet(VALUES), cfg)[1]
    assert len(points) >= 2 and all(point is None for point in points)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)
    assert ascends(result.loglik_trace)
    assert "jitter" not in caplog.text and "extrapolated" not in caplog.text


def test_gem_extrapolates_with_holes_and_hands_on_each_factor(monkeypatch, caplog):
    plain = _plain_gem(monkeypatch, VALUES)
    points = spy(monkeypatch, missing._squarem_params)
    e_steps = spy(monkeypatch, missing._e_step)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        _, fast = fit_gem(ObservationSet(VALUES))
    assert "(extrapolated)" in caplog.text
    # at 40% missing plain steps crawl to the cap unconverged
    assert fast.converged and not plain.converged
    assert len(e_steps) < plain.iterations + 1
    # every point arrives with the factorization that checked each factor
    assert any(point.result is not None for point in points)
    for point in points:
        for prm in point.result or ():
            carried = prm._factors
            assert carried[0][0] is prm.row_cov and carried[1][0] is prm.col_cov
    end, plain_end = fast.loglik_trace[-1], plain.loglik_trace[-1]
    assert end >= plain_end - 1e-9 * abs(plain_end)
    assert ascends(fast.loglik_trace)


def test_gem_on_complete_data_never_extrapolates(monkeypatch):
    points = spy(monkeypatch, mle._squarem_point)
    values = sample(random_params(3, 4, 68), 80, 69).values
    params, result = fit_gem(ObservationSet(values))
    assert points == [] and result.converged
    vdata = values.transpose(0, 2, 1).reshape(80, 12)
    resid = vdata - vdata.mean(axis=0)
    assert np.abs(params.mean - vdata.mean(axis=0)).max() <= 1e-8
    assert np.abs(params.cov - resid.T @ resid / 80).max() <= 1e-8
