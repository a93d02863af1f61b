"""Fits on fully observed data."""

import numpy as np
import pytest

from matnorm.mle import (
    EstimationError,
    FitConfig,
    SingularUpdateError,
    fit_mle,
    stationarity_residual,
)
from matnorm.model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    full_log_likelihood,
    sample,
)

TIGHT = FitConfig(max_iters=2000, tol=1e-14)


def random_params(rng, p, q):
    def shape(n):
        g = rng.standard_normal((n, n))
        s = g @ g.T / n + 0.3 * np.eye(n)
        return s / s[0, 0]

    return MatrixNormalParams(
        rng.standard_normal((p, q)), shape(p), shape(q), float(rng.uniform(0.5, 2.0))
    )


def test_rejects_missing_data():
    values = np.zeros((5, 2, 2))
    values[3, 1, 0] = np.nan
    with pytest.raises(DataError, match="observation 3, row 1, column 0"):
        fit_mle(ObservationSet(values))


def test_rejects_single_observation():
    with pytest.raises(EstimationError):
        fit_mle(ObservationSet(np.zeros((1, 2, 2))))


def test_warns_on_few_observations():
    rng = np.random.default_rng(0)
    params = random_params(rng, 3, 5)
    data = sample(params, 4, rng)
    with pytest.warns(UserWarning, match="observations"):
        fit_mle(data, FitConfig(max_iters=5))


def test_recovers_truth_at_moderate_sample_size():
    rng = np.random.default_rng(1)
    truth = random_params(rng, 3, 5)
    data = sample(truth, 1000, rng)
    result = fit_mle(data)
    assert result.converged
    est = result.params
    err = np.linalg.norm(
        est.full_covariance() - truth.full_covariance()
    ) / np.linalg.norm(truth.full_covariance())
    assert err < 0.15
    assert np.linalg.norm(est.mean - truth.mean) / np.linalg.norm(truth.mean) < 0.15


def test_loglik_trace_is_monotone():
    rng = np.random.default_rng(2)
    for trial in range(5):
        truth = random_params(rng, 3, 4)
        data = sample(truth, 50, rng)
        result = fit_mle(data, TIGHT)
        diffs = np.diff(result.loglik_trace)
        assert np.all(diffs >= -1e-10), f"trial {trial}: descent step {diffs.min()}"


def test_trace_bookkeeping():
    rng = np.random.default_rng(3)
    data = sample(random_params(rng, 2, 3), 40, rng)
    result = fit_mle(data)
    assert result.iterations == len(result.loglik_trace) - 1
    assert result.wall_time >= 0.0
    # the last trace entry is the loglik at the returned parameters
    assert (
        abs(result.loglik_trace[-1] - full_log_likelihood(data, result.params)) < 1e-9
    )


def test_fit_beats_truth_on_training_data():
    rng = np.random.default_rng(4)
    truth = random_params(rng, 2, 4)
    data = sample(truth, 200, rng)
    result = fit_mle(data, TIGHT)
    assert full_log_likelihood(data, result.params) >= full_log_likelihood(data, truth)


def test_mean_estimate_is_sample_mean():
    rng = np.random.default_rng(5)
    data = sample(random_params(rng, 3, 3), 60, rng)
    result = fit_mle(data)
    np.testing.assert_array_equal(result.params.mean, data.values.mean(axis=0))


def test_scaling_data_scales_mean_and_variance_only():
    # doubling the data must double the mean, quadruple the scale, and leave
    # both normalized shape factors where they were
    rng = np.random.default_rng(6)
    data = sample(random_params(rng, 3, 4), 300, rng)
    base = fit_mle(data, TIGHT).params
    scaled = fit_mle(ObservationSet(2.0 * data.values), TIGHT).params
    np.testing.assert_allclose(scaled.mean, 2.0 * base.mean, rtol=1e-8)
    np.testing.assert_allclose(scaled.scale, 4.0 * base.scale, rtol=1e-8)
    np.testing.assert_allclose(scaled.row_cov, base.row_cov, atol=1e-8)
    np.testing.assert_allclose(scaled.col_cov, base.col_cov, atol=1e-8)


def test_single_row_model_matches_unrestricted_mvn():
    # with p = 1 the model is an ordinary multivariate normal, so the fitted
    # stacked covariance must equal the 1/N scatter matrix
    rng = np.random.default_rng(7)
    truth = random_params(rng, 1, 4)
    data = sample(truth, 150, rng)
    result = fit_mle(data, TIGHT)
    flat = data.values[:, 0, :]
    resid = flat - flat.mean(axis=0)
    scatter = resid.T @ resid / flat.shape[0]
    np.testing.assert_allclose(result.params.full_covariance(), scatter, atol=1e-8)


def test_single_column_model_matches_unrestricted_mvn():
    rng = np.random.default_rng(8)
    truth = random_params(rng, 4, 1)
    data = sample(truth, 150, rng)
    result = fit_mle(data, TIGHT)
    flat = data.values[:, :, 0]
    resid = flat - flat.mean(axis=0)
    scatter = resid.T @ resid / flat.shape[0]
    np.testing.assert_allclose(result.params.full_covariance(), scatter, atol=1e-8)


def test_identical_copies_are_singular():
    values = np.broadcast_to(np.arange(6.0).reshape(2, 3), (10, 2, 3)).copy()
    with pytest.raises(SingularUpdateError):
        fit_mle(ObservationSet(values))


def test_iteration_cap_reports_nonconvergence():
    rng = np.random.default_rng(9)
    data = sample(random_params(rng, 3, 5), 80, rng)
    result = fit_mle(data, FitConfig(max_iters=1, tol=1e-16))
    assert not result.converged
    assert result.iterations == 1
    assert len(result.loglik_trace) == 2


class TestStationarityResidual:
    def test_small_at_fit_output(self):
        rng = np.random.default_rng(10)
        data = sample(random_params(rng, 3, 4), 120, rng)
        result = fit_mle(data, TIGHT)
        assert stationarity_residual(data, result.params) < 1e-6

    def test_large_after_perturbation(self):
        rng = np.random.default_rng(11)
        data = sample(random_params(rng, 3, 4), 120, rng)
        fitted = fit_mle(data, TIGHT).params
        bumped = MatrixNormalParams(
            fitted.mean,
            fitted.row_cov,
            fitted.col_cov * 1.5,
            fitted.scale,
            require_normalized=False,
        )
        assert stationarity_residual(data, bumped) > 0.1

    def test_rejects_missing(self):
        values = np.zeros((3, 2, 2))
        values[0, 0, 0] = np.nan
        params = MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0)
        with pytest.raises(DataError):
            stationarity_residual(ObservationSet(values), params)
