"""Each covariance factor is factored once per iteration, and handed on safely.

A fit builds every parameter set inside its loop with the inverse and log
determinant of the Cholesky factorization that checked each new factor;
the E-step and the next M-step read them instead of factoring again.
"""

import logging

import numpy as np
import pytest
import scipy.linalg
from support import ill_conditioned_cov, knock_out, spy, swap

from matnorm import linalg, missing, mle
from matnorm.missing import _e_step, detect_pattern, fit_em, fit_gem, fit_mm
from matnorm.mle import FitConfig, fit_mle
from matnorm.model import MatrixNormalParams, ObservationSet, _log_densities, sample
from matnorm.simulate import _replicate_rngs, inject_missing, random_params
from matnorm.spectral import LabeledObservationSet, fit_class_models

CLEAN = sample(random_params(3, 5, 41), 120, 42).values
MASKED = inject_missing(ObservationSet(CLEAN), 0.15, 43).values
CLEAN_SET = ObservationSet(CLEAN)
MASKED_SET = ObservationSet(MASKED)
LABELED_SET = LabeledObservationSet(MASKED, np.repeat([1, 2, 3], 40))


@pytest.mark.parametrize(
    "fit, factors_per_iteration, extrapolates",
    [
        (lambda: fit_mle(CLEAN_SET), 2, False),
        (lambda: fit_em(MASKED_SET), 2, True),
        (lambda: fit_class_models(LABELED_SET, "em"), 1 + 3, True),
    ],
    ids=["fit_mle", "fit_em", "fit_class_models"],
)
def test_each_iteration_factors_each_new_factor_once(
    monkeypatch, fit, factors_per_iteration, extrapolates
):
    choleskys = spy(monkeypatch, linalg.spd_cholesky)
    checks = spy(monkeypatch, linalg.ensure_spd)
    m_steps = spy(monkeypatch, mle._pooled_m_step)
    points = spy(monkeypatch, mle._squarem_params)
    result = fit()
    assert result.iterations >= 3
    # the identity start needs no factorization, and every later set
    # arrives with the factorization that checked it: one Cholesky for the
    # row factor and one for each class's column factor per M-step and per
    # extrapolated set.  A plain fit makes one M-step per iteration; an
    # extrapolating one records two entries for three M-steps and one
    # extrapolated set.
    sets = len(m_steps) + sum(point.result is not None for point in points)
    assert len(choleskys) == factors_per_iteration * sets
    assert any(point.result is not None for point in points) == extrapolates
    if not extrapolates:
        assert points == []
        assert len(m_steps) == result.iterations
    assert checks == []


def _degenerate_values():
    """Complete data whose third column never varies: the column update is singular."""
    values = sample(random_params(2, 3, 44), 40, 45).values
    values[:, :, 2] = 1.5
    return values


def test_fitted_sets_pass_the_public_checks_unchanged(caplog):
    with caplog.at_level(logging.WARNING, logger="matnorm.mle"):
        jittered = fit_mle(ObservationSet(_degenerate_values()), FitConfig(max_iters=3))
    assert "added jitter" in caplog.text
    fitted = [
        fit_mle(CLEAN_SET).params,
        fit_mm(MASKED_SET).params,
        fit_em(MASKED_SET).params,
        jittered.params,
        *fit_class_models(LABELED_SET, "em").class_params,
    ]
    for params in fitted:
        rebuilt = MatrixNormalParams(
            params.mean, params.row_cov, params.col_cov, params.scale
        )
        for name in ("mean", "row_cov", "col_cov"):
            assert getattr(rebuilt, name) is getattr(params, name)
        for cov in (params.row_cov, params.col_cov):
            np.testing.assert_array_equal(cov, cov.T)
            assert cov[0, 0] == 1.0
            np.linalg.cholesky(cov)
        assert rebuilt.scale == params.scale
        assert type(params.scale) is float


def test_gem_jitters_a_degenerate_covariance_update(caplog):
    # two cells never vary, so every covariance update has two zero
    # eigenvalues; one boost of 1e-8 makes it factor and the fit settles.
    # gem's covariance is the column factor of its 1 x 6 rows, and the
    # shared jitter rule refits the scale at the boosted shape: about
    # (6 - 2) / 6 of the boost stays in the two null directions
    with caplog.at_level(logging.WARNING, logger="matnorm"):
        params, result = fit_gem(ObservationSet(_degenerate_values()))
    assert "added jitter 1e-08 to a degenerate column covariance update" in caplog.text
    assert result.converged
    low = np.linalg.eigvalsh(params.cov)[:3]
    assert low[:2] == pytest.approx([4 / 6 * 1e-8] * 2, rel=1e-6)
    assert low[2] > 1e-2


@pytest.mark.parametrize("factor", ["row_cov", "col_cov"])
def test_reassigned_factor_is_factored_again(factor):
    fitted = fit_em(MASKED_SET).params
    p, q = fitted.p, fitted.q
    other = random_params(p, q, 46)
    setattr(fitted, factor, getattr(other, factor))
    fresh = MatrixNormalParams(fitted.mean, fitted.row_cov, fitted.col_cov, fitted.scale)
    np.testing.assert_array_equal(
        _log_densities(CLEAN, fitted), _log_densities(CLEAN, fresh)
    )
    pattern = detect_pattern(MASKED)
    got, want = _e_step(MASKED, pattern, fitted), _e_step(MASKED, pattern, fresh)
    np.testing.assert_array_equal(got[0], want[0])
    for a, b in zip(got[1], want[1]):
        np.testing.assert_array_equal(a, b)
    assert got[2] == want[2]


def _scipy_cholesky(a):
    return scipy.linalg.cholesky(a, lower=True)


def _scipy_inverse(a):
    chol = _scipy_cholesky(a)
    logdet = float(2.0 * np.sum(np.log(np.diag(chol))))
    inv = scipy.linalg.cho_solve((chol, True), np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0, logdet


def _ill_conditioned_values():
    """3 x 5 draws at factor condition about 1e3 and 1e4, 15% holes: em refines."""
    rng = np.random.default_rng(0)
    row = ill_conditioned_cov(rng, 3, 1e3)
    col = ill_conditioned_cov(rng, 5, 1e4)
    params = MatrixNormalParams(rng.standard_normal((3, 5)), row / row[0, 0], col / col[0, 0], 1.0)
    return knock_out(sample(params, 200, rng).values, 0.15, rng)


def _collapsing_gem_values():
    """The paper grid's 3 x 7, N=250, 20% cell at seed 1: gem's covariance nears singular."""
    params_rng, sample_rng, miss_rng = _replicate_rngs(1, 3, 7, 250, 0.2, 0)
    truth = random_params(3, 7, params_rng)
    return inject_missing(sample(truth, 250, sample_rng), 0.2, miss_rng).values


def _fingerprint(fitted):
    """A fit's trace and parameters as bytes."""
    if isinstance(fitted, tuple):  # fit_gem
        params, result = fitted
        arrays = [params.mean, params.cov]
    else:
        result = fitted
        arrays = [
            a
            for prm in getattr(fitted, "class_params", None) or [fitted.params]
            for a in (prm.mean, prm.row_cov, prm.col_cov, np.float64(prm.scale))
        ]
    return [np.asarray(result.loglik_trace).tobytes()] + [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize(
    "fit, refines",
    [
        (lambda: fit_mle(ObservationSet(CLEAN[:25])), False),
        (lambda: fit_mle(ObservationSet(sample(random_params(3, 7, 47), 1000, 48).values)), False),
        (lambda: fit_mm(MASKED_SET), False),
        (lambda: fit_em(MASKED_SET), False),
        (lambda: fit_em(ObservationSet(_ill_conditioned_values())), True),
        (lambda: fit_gem(MASKED_SET), False),
        (lambda: fit_gem(ObservationSet(_collapsing_gem_values())), True),
        (lambda: fit_class_models(LABELED_SET, "em"), False),
    ],
    ids=[
        "fit_mle-residuals", "fit_mle-r-factor-rows", "fit_mm", "fit_em", "fit_em-refined",
        "fit_gem", "fit_gem-collapsing", "fit_class_models-em",
    ],
)
def test_whole_fit_matches_scipy_factorizations_bit_for_bit(monkeypatch, fit, refines):
    # the factorizations call the LAPACK routines behind scipy.linalg's
    # wrappers directly; with scipy.linalg in their place at every binding
    # a fit must record the same trace and parameters, byte for byte
    direct = _fingerprint(fit())
    swap(monkeypatch, linalg.spd_cholesky, _scipy_cholesky)
    swap(monkeypatch, linalg.spd_inverse, _scipy_inverse)
    swap(monkeypatch, linalg.spd_solve, lambda chol, b: scipy.linalg.cho_solve((chol, True), b))
    swap(
        monkeypatch, linalg.lower_solve,
        lambda chol, b: scipy.linalg.solve_triangular(chol, b, lower=True),
    )
    refined = []  # the refined E-step is missing's one caller of spd_cholesky
    monkeypatch.setattr(missing, "spd_cholesky", lambda a: refined.append(a) or _scipy_cholesky(a))
    reference = _fingerprint(fit())
    assert bool(refined) == refines
    assert len(reference[0]) > 3 * 8
    assert direct == reference
