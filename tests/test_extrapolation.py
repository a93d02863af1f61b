"""Squared extrapolation (SQUAREM) in the one iteration loop.

The missing-data fits follow each plain update with an extrapolated point;
the point is kept only when one update from it ends at least as high as the
plain update did, so the trace ascends whatever the point is.
"""

import logging
import warnings

import numpy as np
import pytest

from matnorm import missing, mle, model
from matnorm.missing import detect_pattern, fit_em
from matnorm.mle import FitConfig, _extrapolated, _iterate
from matnorm.model import MatrixNormalParams, ObservationSet, _precisions, sample
from matnorm.simulate import inject_missing, random_params

VALUES = inject_missing(sample(random_params(3, 7, 61), 500, 62), 0.4, 63).values


def _plain_fit(values, cfg=FitConfig()):
    """``fit_em``'s E- and M-steps through the loop without extrapolation."""
    pattern = detect_pattern(values)
    calls = []

    def e_step(params):
        calls.append(params)
        return missing._e_step(values, pattern, params)

    def m_step(params, moments):
        return missing._m_step(pattern, moments[0], moments[1], params, mle._JITTER)

    start = mle._initial_params(values)
    _, _, result = _iterate(e_step, m_step, mle._param_change, start, cfg, 0.0)
    return result, len(calls)


def _count_e_steps(monkeypatch):
    real = missing._e_step
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(missing, "_e_step", counted)
    return calls


def _assert_ascends(trace):
    slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -slack)


def test_accelerated_fit_takes_fewer_e_steps_and_ends_no_lower(monkeypatch, caplog):
    plain, plain_e_steps = _plain_fit(VALUES)
    e_steps = _count_e_steps(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        fast = fit_em(ObservationSet(VALUES))
    assert "(extrapolated)" in caplog.text
    assert plain.converged and fast.converged
    assert len(e_steps) < plain_e_steps
    assert fast.iterations < plain.iterations
    end, plain_end = fast.loglik_trace[-1], plain.loglik_trace[-1]
    assert end >= plain_end - 1e-9 * abs(plain_end)
    _assert_ascends(fast.loglik_trace)


def test_worse_extrapolated_point_is_rejected(monkeypatch):
    real = missing._extrapolated
    points = []

    def inflated(*sets):
        point = real(*sets)
        worse = MatrixNormalParams._factored(
            point[0].mean, point[0].row_cov, point[0].col_cov, 10.0 * point[0].scale,
            *_precisions(point[0]),
        )
        points.append(worse)
        return [worse]

    monkeypatch.setattr(missing, "_extrapolated", inflated)
    result = fit_em(ObservationSet(VALUES))
    assert points
    # every point is rejected, so the loop records exactly the plain updates
    plain, _ = _plain_fit(VALUES)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)
    assert result.converged
    _assert_ascends(result.loglik_trace)


def test_missing_point_falls_back_to_the_plain_updates(monkeypatch, caplog):
    monkeypatch.setattr(missing, "_extrapolated", lambda *sets: None)
    with caplog.at_level(logging.DEBUG, logger="matnorm"):
        result = fit_em(ObservationSet(VALUES))
    plain, _ = _plain_fit(VALUES)
    np.testing.assert_array_equal(result.loglik_trace, plain.loglik_trace)
    assert "extrapolated" not in caplog.text


def test_point_whose_update_fails_to_factor_falls_back(monkeypatch):
    real_point, real_m_step = missing._extrapolated, missing._pooled_m_step
    points = []

    def recorded(*sets):
        points.append(real_point(*sets)[0])
        return [points[-1]]

    def failing(grids, completions, old, jitter):
        if points and old[0] is points[-1]:
            raise mle.SingularUpdateError("row covariance update is singular even after jitter")
        return real_m_step(grids, completions, old, jitter)

    monkeypatch.setattr(missing, "_extrapolated", recorded)
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
        point = _extrapolated(*trio)
    assert point is None
    assert caplog.records == []
    assert checks == []


def test_extrapolated_point_is_pinned_factored_and_shares_its_row_factor():
    # three two-class sets, each with one row factor as a class fit has
    sets = [[random_params(3, 4, 64 + 2 * k + c) for c in range(2)] for k in range(3)]
    for start, *others in sets:
        for prm in others:
            prm.row_cov = start.row_cov
    point = _extrapolated(*sets)
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
    point = _extrapolated(start, start, second)
    want = second[0].full_covariance()
    np.testing.assert_allclose(point[0].full_covariance(), want, rtol=1e-12)
    np.testing.assert_allclose(point[0].mean, second[0].mean, rtol=1e-12)
