import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from support import random_params

from matnorm.linalg import kron, vec
from matnorm.missing import UnstructuredParams
from matnorm.model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    full_log_likelihood,
    log_density,
    mahalanobis,
    observed_log_likelihood,
    sample,
)


def mvn_logpdf(x_vec, mean_vec, cov):
    return float(
        scipy.stats.multivariate_normal.logpdf(x_vec, mean=mean_vec, cov=cov)
    )


def _with(a, at, value):
    a = a.copy()
    a[at] = value
    return a


def _params(scale=1.0, **bad):
    """A 2 x 2 parameter set with each named field's entry (r, c) set to a value."""
    fields = {"mean": np.zeros((2, 2)), "row_cov": np.eye(2), "col_cov": np.eye(2)}
    for name, (r, c, value) in bad.items():
        fields[name] = _with(fields[name], (r, c), value)
    return MatrixNormalParams(fields["mean"], fields["row_cov"], fields["col_cov"], scale)


class TestParams:
    def test_scalar_standard_normal(self):
        params = MatrixNormalParams(np.zeros((1, 1)), np.eye(1), np.eye(1), 1.0)
        assert abs(log_density(np.zeros((1, 1)), params) + 0.5 * math.log(2 * math.pi)) < 1e-14

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            MatrixNormalParams(np.zeros((2, 2)), 2.0 * np.eye(2), np.eye(2), 1.0)

    def test_normalization_can_be_waived(self):
        params = MatrixNormalParams(
            np.zeros((2, 2)), 2.0 * np.eye(2), np.eye(2), 1.0, require_normalized=False
        )
        assert params.row_cov[0, 0] == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixNormalParams(np.zeros((2, 3)), np.eye(3), np.eye(3), 1.0)

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _params(scale=math.inf), "scale must be a positive finite number, got inf"),
            (lambda: _params(mean=(1, 0, math.nan)), "mean[1, 0] = nan is not finite"),
            (lambda: _params(mean=(0, 1, -math.inf)), "mean[0, 1] = -inf is not finite"),
            (lambda: _params(row_cov=(1, 1, math.inf)), "row_cov[1, 1] = inf is not finite"),
            (lambda: _params(col_cov=(0, 1, math.nan)), "col_cov[0, 1] = nan is not finite"),
            (
                lambda: UnstructuredParams(2, 2, _with(np.zeros(4), 3, math.nan), np.eye(4)),
                "mean[3] = nan is not finite",
            ),
            (
                lambda: UnstructuredParams(2, 2, np.zeros(4), _with(np.eye(4), (2, 2), math.inf)),
                "covariance[2, 2] = inf is not finite",
            ),
        ],
        ids=[
            "scale-inf", "mean-nan", "mean-inf", "row_cov-inf", "col_cov-nan",
            "unstructured-mean-nan", "unstructured-cov-inf",
        ],
    )
    def test_non_finite_entry_is_rejected_by_name(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_full_covariance_layout(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 2, 3)
        full = params.full_covariance()
        np.testing.assert_allclose(
            full, params.scale * kron(params.col_cov, params.row_cov), atol=0.0
        )
        # variance of entry (r, c) sits at stacked position c * p + r
        p = params.p
        for r in range(p):
            for c in range(params.q):
                k = c * p + r
                expected = params.scale * params.col_cov[c, c] * params.row_cov[r, r]
                assert abs(full[k, k] - expected) < 1e-12


class TestObservationSet:
    def test_rejects_blank_observation(self):
        values = np.zeros((2, 2, 2))
        values[1] = np.nan
        with pytest.raises(DataError, match="observation 1"):
            ObservationSet(values)

    def test_accepts_partial_missing(self):
        values = np.zeros((1, 2, 2))
        values[0, 0, 1] = np.nan
        data = ObservationSet(values)
        assert data.has_missing
        assert (data.n_obs, data.p, data.q) == (1, 2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ObservationSet(np.zeros((2, 2)))

    def test_rejects_infinite_entry_with_location(self):
        for bad in (np.inf, -np.inf):
            values = np.zeros((3, 2, 4))
            values[2, 1, 3] = bad
            with pytest.raises(DataError, match="observation 2, row 1, column 3"):
                ObservationSet(values)


class TestDensity:
    def test_matches_stacked_multivariate_normal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            params = random_params(rng, p, q)
            x = rng.standard_normal((p, q))
            ref = mvn_logpdf(vec(x), vec(params.mean), params.full_covariance())
            assert abs(log_density(x, params) - ref) < 1e-10

    def test_mahalanobis_matches_vectorized_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            params = random_params(rng, p, q)
            x = rng.standard_normal((p, q))
            r = vec(x) - vec(params.mean)
            omega = np.linalg.inv(kron(params.col_cov, params.row_cov))
            assert abs(mahalanobis(x, params) - r @ omega @ r) < 1e-9

    def test_density_peaks_at_mean(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 3, 2)
        at_mean = log_density(params.mean, params)
        for _ in range(20):
            x = params.mean + rng.standard_normal((3, 2))
            assert log_density(x, params) < at_mean

    def test_scalar_density_normalizes(self):
        params = MatrixNormalParams(
            np.array([[0.3]]), np.eye(1), np.eye(1), 1.7
        )
        total, _ = scipy.integrate.quad(
            lambda t: math.exp(log_density(np.array([[t]]), params)), -30, 30
        )
        assert abs(total - 1.0) < 1e-4

    def test_identifiability_tradeoff_is_neutral(self):
        # multiplying one factor by kappa and dividing the scale leaves the
        # distribution alone
        rng = np.random.default_rng(4)
        base = random_params(rng, 2, 3)
        kappa = 1.7
        traded = MatrixNormalParams(
            base.mean,
            base.row_cov * kappa,
            base.col_cov,
            base.scale / kappa,
            require_normalized=False,
        )
        for _ in range(10):
            x = rng.standard_normal((2, 3))
            assert abs(log_density(x, base) - log_density(x, traded)) < 1e-10

    def test_rejects_missing_entries(self):
        params = random_params(np.random.default_rng(5), 2, 2)
        x = np.array([[1.0, np.nan], [0.0, 0.0]])
        with pytest.raises(DataError):
            log_density(x, params)


class TestFullLogLikelihood:
    def test_sums_single_densities(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 2, 3)
        data = sample(params, 7, rng)
        ref = sum(log_density(data.values[i], params) for i in range(7))
        assert abs(full_log_likelihood(data, params) - ref) < 1e-9

    def test_names_first_missing_entry(self):
        params = random_params(np.random.default_rng(7), 2, 2)
        values = np.zeros((3, 2, 2))
        values[1, 0, 1] = np.nan
        with pytest.raises(DataError, match="observation 1, row 0, column 1"):
            full_log_likelihood(ObservationSet(values), params)


class TestObservedLogLikelihood:
    def test_reduces_to_full_when_complete(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 2, 3)
        data = sample(params, 5, rng)
        assert (
            abs(
                observed_log_likelihood(data, params)
                - full_log_likelihood(data, params)
            )
            < 1e-10
        )

    def test_matches_marginal_of_stacked_normal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(2, 4))
            params = random_params(rng, p, q)
            x = sample(params, 1, rng).values[0]
            x_vec = vec(x)
            k = int(rng.integers(1, p * q))
            miss = rng.choice(p * q, size=k, replace=False)
            x_vec[miss] = np.nan
            obs = np.setdiff1d(np.arange(p * q), miss)
            ref = mvn_logpdf(
                x_vec[obs],
                vec(params.mean)[obs],
                params.full_covariance()[np.ix_(obs, obs)],
            )
            data = ObservationSet(x_vec.reshape(q, p).T[None])
            assert abs(observed_log_likelihood(data, params) - ref) < 1e-9

    def test_single_observed_entry_uses_scalar_variance(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, 2, 3)
        x = np.full((2, 3), np.nan)
        x[1, 2] = 0.9
        var = params.scale * params.row_cov[1, 1] * params.col_cov[2, 2]
        ref = float(
            scipy.stats.norm.logpdf(0.9, loc=params.mean[1, 2], scale=math.sqrt(var))
        )
        got = observed_log_likelihood(ObservationSet(x[None]), params)
        assert abs(got - ref) < 1e-12


class TestSampling:
    def test_moments_within_monte_carlo_error(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 2, 3, scale=1.3)
        n = 50_000
        draws = sample(params, n, rng).values
        flat = draws.transpose(0, 2, 1).reshape(n, 6)
        mean_vec = vec(params.mean)
        full = params.full_covariance()

        # 5 standard errors on every mean and covariance entry
        se_mean = np.sqrt(np.diag(full) / n)
        assert np.all(np.abs(flat.mean(axis=0) - mean_vec) < 5 * se_mean)

        resid = flat - mean_vec
        cov_hat = resid.T @ resid / n
        d = np.diag(full)
        se_cov = np.sqrt((np.outer(d, d) + full**2) / n)
        assert np.all(np.abs(cov_hat - full) < 5 * se_cov)

    def test_tiny_scale_collapses_to_mean(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 4, scale=1e-20)
        draws = sample(params, 100, rng).values
        assert float(np.max(np.abs(draws - params.mean))) < 1e-8

    def test_seed_reproducibility(self):
        params = random_params(np.random.default_rng(13), 2, 2)
        a = sample(params, 10, 42).values
        b = sample(params, 10, 42).values
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        params = random_params(np.random.default_rng(14), 2, 2)
        with pytest.raises(ValueError):
            sample(params, 0, 1)
