"""Each covariance factor is factored once per iteration, and handed on safely.

A fit builds every parameter set inside its loop with the inverse and log
determinant of the Cholesky factorization that checked each new factor;
the E-step and the next M-step read them instead of factoring again.
"""

import logging

import numpy as np
import pytest
from support import spy

from matnorm import linalg, mle
from matnorm.missing import _e_step, detect_pattern, fit_em, fit_gem, fit_mm
from matnorm.mle import FitConfig, fit_mle
from matnorm.model import MatrixNormalParams, ObservationSet, _log_densities, sample
from matnorm.simulate import inject_missing, random_params
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
