"""The iteration contract every fitter shares, and what its clock covers."""

import time

import numpy as np
import pytest
from support import ascends

from matnorm import missing, spectral
from matnorm.missing import fit_em, fit_gem, fit_mm
from matnorm.mle import FitConfig, _iterate, fit_mle
from matnorm.model import ObservationSet, sample
from matnorm.simulate import inject_missing, random_params
from matnorm.spectral import LabeledObservationSet, fit_class_models

CLEAN = sample(random_params(3, 4, 31), 60, 32).values
MASKED = inject_missing(ObservationSet(CLEAN), 0.15, 33).values
LABELS = np.repeat([1, 2], 30)

# Each entry fits with a given config and returns the record that carries
# the trace: a FitResult, or the ClassModel for the class fit.
FITS = {
    "fit_mle": lambda cfg: fit_mle(ObservationSet(CLEAN), cfg),
    "fit_mm": lambda cfg: fit_mm(ObservationSet(MASKED), cfg),
    "fit_em": lambda cfg: fit_em(ObservationSet(MASKED), cfg),
    "fit_gem": lambda cfg: fit_gem(ObservationSet(MASKED), cfg)[1],
    "fit_class_models": lambda cfg: fit_class_models(
        LabeledObservationSet(MASKED, LABELS), "em", cfg
    ),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_trace_iterations_and_convergence_contract(name):
    full = FITS[name](FitConfig())
    trace = full.loglik_trace
    assert full.converged
    assert full.iterations == len(trace) - 1
    assert ascends(trace)

    one = FITS[name](FitConfig(max_iters=1))
    assert not one.converged
    assert one.iterations == 1
    assert len(one.loglik_trace) == 2
    np.testing.assert_array_equal(one.loglik_trace, trace[:2])


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_ends_under_a_tol_below_roundoff(name):
    # a log-likelihood tolerance this small fires only on an exactly flat
    # update, so the fixed bound on the unit-free step must end the fit
    # unless the log likelihood stops moving first; either way, before the cap
    cfg = FitConfig(tol=1e-300)
    result = FITS[name](cfg)
    assert result.converged
    assert type(result.converged) is bool
    assert result.iterations < cfg.max_iters


def test_loop_stops_at_the_first_step_below_the_fixed_bound():
    # x halves on every update while the objective -x keeps rising, so only
    # the step bound can stop the loop: 2**-34 is the first step below 1e-10
    def e_step(x):
        return (-float(x[0]),)

    def m_step(x, moments):
        return x / 2.0

    def coordinates(x, like):
        return x

    _, _, result = _iterate(
        e_step, m_step, coordinates, np.ones(1), 1, FitConfig(tol=1e-300), 0.0
    )
    # a Python bool, not the array test's numpy bool
    assert result.converged is True
    assert result.iterations == 34


UNIT_CLEAN = sample(random_params(3, 7, 5), 300, 6).values
UNIT_MASKED = inject_missing(ObservationSet(UNIT_CLEAN), 0.15, 7).values


def _fitted_covariances(name, c):
    """Fit ``name`` on the data times c at the default config: record, covariances."""
    data = ObservationSet(c * (UNIT_CLEAN if name == "fit_mle" else UNIT_MASKED))
    if name == "fit_gem":
        params, result = fit_gem(data)
        return result, [params.cov]
    if name == "fit_class_models":
        labels = np.repeat([1, 2, 3], 100)
        fitted = fit_class_models(LabeledObservationSet(data.values, labels))
        return fitted, [prm.full_covariance() for prm in fitted.class_params]
    result = {"fit_mle": fit_mle, "fit_mm": fit_mm, "fit_em": fit_em}[name](data)
    return result, [result.params.full_covariance()]


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_does_not_depend_on_the_data_units(name):
    # the stop reads the log-likelihood change per observed entry and the
    # step on unit-free coordinates, so the fit of c * X stops after as
    # many iterations as the fit of X, with c**2 times its covariance
    unit, unit_covs = _fitted_covariances(name, 1.0)
    for c in (1e-5, 1e7):
        result, covs = _fitted_covariances(name, c)
        assert result.iterations == unit.iterations, f"data x {c:g}"
        for cov, ref in zip(covs, unit_covs):
            err = np.linalg.norm(cov - c**2 * ref) / np.linalg.norm(c**2 * ref)
            assert err <= 1e-10, f"data x {c:g}: covariance off by {err:.2e}"


@pytest.mark.parametrize(
    "name, binding",
    [
        ("fit_em", "detect_pattern"),
        ("fit_gem", "detect_pattern"),
        ("fit_class_models", "detect_pattern"),
        ("fit_mm", "_observed_cell_means"),
    ],
)
def test_wall_time_covers_the_whole_call(monkeypatch, name, binding):
    # a slow step before the iterations must show in the reported time
    def slowed(fn):
        def wrapper(*args, **kwargs):
            time.sleep(0.05)
            return fn(*args, **kwargs)

        return wrapper

    for module in (missing, spectral):
        if hasattr(module, binding):
            monkeypatch.setattr(module, binding, slowed(getattr(module, binding)))
    result = FITS[name](FitConfig(max_iters=2))
    assert result.wall_time >= 0.05


@pytest.mark.parametrize(
    "field, bad",
    [
        ("max_iters", 0),
        ("max_iters", 2.5),
        ("max_iters", float("nan")),
        ("tol", 0.0),
        ("tol", float("nan")),
        ("tol", float("inf")),
    ],
)
def test_config_rejects_bad_values(field, bad):
    with pytest.raises(ValueError, match=field):
        FitConfig(**{field: bad})
