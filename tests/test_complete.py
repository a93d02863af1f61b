"""Fits on fully observed data."""

import numpy as np
import pytest
from support import knock_out, random_params, spy

from matnorm import missing, mle, model
from matnorm.missing import fit_em, fit_mm
from matnorm.mle import (
    _STEP_TOL,
    EstimationError,
    FitConfig,
    SingularUpdateError,
    _initial_params,
    _residual_rows,
    _squarem_coordinates,
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
from matnorm.spectral import LabeledObservationSet, fit_class_models

TIGHT = FitConfig(max_iters=2000, tol=1e-14)


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


def _plain_flip_flop(values, cfg):
    """The flip-flop over all n observations, under ``fit_mle``'s start and stop.

    Every update re-centers the data and sums its scatters over the n
    residuals; every log likelihood sums the n log densities.
    """
    n, p, q = values.shape
    data, params = ObservationSet(values), _initial_params(values)
    trace = [full_log_likelihood(data, params)]
    while len(trace) <= cfg.max_iters:
        mean = values.mean(axis=0)
        resid = values - mean
        col = np.einsum("nij,ik,nkl->jl", resid, np.linalg.inv(params.row_cov), resid)
        col /= p * n
        row = np.einsum("nij,jl,nkl->ik", resid, np.linalg.inv(col / col[0, 0]), resid)
        row /= q * n * col[0, 0]
        new = MatrixNormalParams(
            mean, row / row[0, 0], col / col[0, 0], row[0, 0] * col[0, 0]
        )
        trace.append(full_log_likelihood(data, new))
        coords = [_squarem_coordinates([s], [params]) for s in (new, params)]
        params = new
        if (
            abs(trace[-1] - trace[-2]) < cfg.tol * values.size
            or np.abs(coords[0] - coords[1]).max() < _STEP_TOL
        ):
            break
    return params, np.array(trace)


@pytest.mark.parametrize(
    "p, q, n, rows",
    [
        (3, 5, 16, 16),  # n = pq + 1: the residuals themselves
        (3, 5, 31, 15),  # n = 2 pq + 1: the R factor's pq rows
        (3, 7, 1000, 21),
        (2, 3, 13, 6),
        (6, 12, 145, 72),  # pq = 4 (p + q), the widest shape that compresses
        (6, 14, 400, 400),  # pq > 4 (p + q)
        (4, 8, 20, 20),  # n < pq
    ],
)
def test_fit_on_residual_rows_matches_the_plain_flip_flop(p, q, n, rows):
    rng = np.random.default_rng(p * 1000 + n)
    values = sample(random_params(rng, p, q), n, rng).values
    assert _residual_rows(values - values.mean(axis=0)).shape == (rows, p, q)
    cfg = FitConfig()
    result = fit_mle(ObservationSet(values), cfg)
    ref, trace = _plain_flip_flop(values, cfg)
    assert result.iterations == len(trace) - 1
    assert abs(result.loglik_trace[-1] - trace[-1]) <= 1e-12 * abs(trace[-1])
    np.testing.assert_allclose(result.params.row_cov, ref.row_cov, rtol=0, atol=1e-10)
    np.testing.assert_allclose(result.params.col_cov, ref.col_cov, rtol=0, atol=1e-10)
    assert result.params.scale == pytest.approx(ref.scale, rel=1e-10)


def _ill_conditioned(rng, dim, cond):
    """A factor pinned to [0, 0] = 1 whose eigenvalues span ``cond``."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    shape = (basis * np.geomspace(1.0, 1.0 / cond, dim)) @ basis.T
    return shape / shape[0, 0]


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (3, 7), (5, 10)])
def test_trace_on_residual_rows_is_accurate_at_ill_conditioned_factors(p, q):
    # the summed forms over the R factor's rows keep the accuracy of the
    # per-observation forms (within 4e-11 relative here); rows taken from
    # the pq x pq scatter T.T @ T, by Cholesky or eigendecomposition, were
    # off by 3e-7 to 4e-5
    rng = np.random.default_rng(p * q)
    truth = MatrixNormalParams(
        rng.standard_normal((p, q)),
        _ill_conditioned(rng, p, 1e7),
        _ill_conditioned(rng, q, 1e7),
        1.0,
    )
    data = sample(truth, 1000, rng)
    assert _residual_rows(data.values - data.values.mean(axis=0)).shape[0] == p * q
    result = fit_mle(data)
    ref = full_log_likelihood(data, result.params)
    assert abs(result.loglik_trace[-1] - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize(
    "p, q, n",
    [
        (3, 5, 16),  # n <= 2 pq: the residuals themselves
        (3, 7, 1000),  # the R factor's pq rows
        (6, 14, 400),  # pq > 4 (p + q): the residuals themselves
    ],
)
def test_one_class_fit_on_complete_data_is_fit_mle(p, q, n):
    rng = np.random.default_rng(p * q + n)
    data = sample(random_params(rng, p, q), n, rng)
    ref = fit_mle(data)
    labeled = LabeledObservationSet(data.values, np.ones(n, dtype=int))
    for method in ("em", "mm"):
        model = fit_class_models(labeled, method)
        got = model.class_params[0]
        np.testing.assert_array_equal(model.loglik_trace, ref.loglik_trace)
        np.testing.assert_array_equal(got.mean, ref.params.mean)
        np.testing.assert_array_equal(got.row_cov, ref.params.row_cov)
        np.testing.assert_array_equal(got.col_cov, ref.params.col_cov)
        assert got.scale == ref.params.scale


def test_fits_without_holes_never_index_or_condition_holes(monkeypatch):
    # a class without holes reads its residual rows: mm fills its holes
    # first, so it never reaches the hole index or the missing-data E-step
    def refuse(*args, **kwargs):
        raise AssertionError("a fit without holes reached the missing-data path")

    rng = np.random.default_rng(8)
    data = sample(random_params(rng, 3, 5), 60, rng)
    holed = data.values.copy()
    holed[rng.random(holed.shape) < 0.1] = np.nan
    labels = np.repeat([1, 2], 30)
    monkeypatch.setattr(missing, "detect_pattern", refuse)
    monkeypatch.setattr(missing, "_e_step", refuse)
    # nor does it evaluate a quadratic form: its log likelihood is closed form
    forms = spy(monkeypatch, model._quadratic_forms)
    for fit in (fit_mle, fit_mm, fit_em):
        assert fit(data).converged
    assert fit_mm(ObservationSet(holed)).converged
    for values in (data.values, holed):
        assert fit_class_models(LabeledObservationSet(values, labels), "mm").converged
    assert fit_class_models(LabeledObservationSet(data.values, labels), "em").converged
    assert forms == []


def test_each_class_of_a_fit_without_holes_is_scanned_for_holes_once(monkeypatch):
    # fit_mle and fit_mm rule holes out on the way in and hand the driver a
    # class it does not scan again; em scans each class once, to find out
    rng = np.random.default_rng(9)
    data = sample(random_params(rng, 3, 5), 60, rng)
    labeled = LabeledObservationSet(data.values, np.repeat([1, 2, 3], 20))
    real = np.isnan
    scans = []

    def isnan(x, *args, **kwargs):
        if np.ndim(x) == 3:
            scans.append(len(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isnan", isnan)
    for fit, classes in (
        (lambda: fit_mle(data), [60]),
        (lambda: fit_mm(data), [60]),
        (lambda: fit_em(data), [60]),
        (lambda: fit_class_models(labeled, "mm"), [20] * 3),
        (lambda: fit_class_models(labeled, "em"), [20] * 3),
    ):
        scans.clear()
        fit()
        assert scans == classes


def test_a_class_fit_with_holes_sums_quadratic_forms(monkeypatch):
    rng = np.random.default_rng(8)
    values = sample(random_params(rng, 3, 5), 60, rng).values
    values[:30] = knock_out(values[:30], 0.1, rng)
    forms = spy(monkeypatch, model._quadratic_forms)
    fit_class_models(LabeledObservationSet(values, np.repeat([1, 2], 30)), "em")
    assert forms


def _three_classes(seed, method):
    """A 3 x 5 three-class set and its ``fit_class_models`` call; the classes it fits.

    With ``method`` "mm" the set has holes, which the fit fills first.
    """
    rng = np.random.default_rng(seed)
    sizes = (40, 50, 60)
    values = np.concatenate([sample(random_params(rng, 3, 5), n, rng).values for n in sizes])
    if method == "mm":
        values = knock_out(values, 0.1, rng)
    labels = np.repeat([1, 2, 3], sizes)
    classes = [missing._mean_filled(values[labels == c]) for c in (1, 2, 3)]
    return classes, lambda: fit_class_models(LabeledObservationSet(values, labels), method)


def _one_class(seed, p, q, n, fit, holes=0.0, cond=None):
    """A p x q set and the call of ``fit`` on it; the one class it fits.

    ``holes`` knocks out that share of entries; ``cond`` draws both true
    factors with that condition number.
    """
    rng = np.random.default_rng(seed)
    if cond is None:
        truth = random_params(rng, p, q)
    else:
        factors = _ill_conditioned(rng, p, cond), _ill_conditioned(rng, q, cond)
        truth = MatrixNormalParams(rng.standard_normal((p, q)), *factors, 1.0)
    values = knock_out(sample(truth, n, rng).values, holes, rng)
    return [missing._mean_filled(values)], lambda: fit(ObservationSet(values))


@pytest.mark.parametrize(
    "make, bound",
    [
        pytest.param(lambda: _one_class(40, 3, 5, 25, fit_mle), 1e-12, id="mle-residuals"),
        pytest.param(lambda: _one_class(41, 3, 7, 1000, fit_mle), 1e-12, id="mle-r-factor"),
        pytest.param(lambda: _one_class(42, 4, 6, 80, fit_mm, 0.15), 1e-12, id="mm-filled"),
        pytest.param(lambda: _one_class(43, 2, 4, 30, fit_em), 1e-12, id="em-complete"),
        pytest.param(lambda: _three_classes(44, "em"), 1e-12, id="classes-em"),
        pytest.param(lambda: _three_classes(45, "mm"), 1e-12, id="classes-mm"),
        # at factor condition 1e7 the direct forms and the identity at a
        # rounded update both carry roundoff of order eps * cond(row) *
        # cond(col): the two traces were 7.9e-11 apart on the R factor's
        # rows and 4.9e-10 on 25 residuals
        pytest.param(
            lambda: _one_class(46, 3, 7, 1000, fit_mle, cond=1e7), 1e-8, id="mle-r-factor-1e7"
        ),
        pytest.param(
            lambda: _one_class(47, 3, 5, 25, fit_mle, cond=1e7), 1e-8, id="mle-residuals-1e7"
        ),
    ],
)
def test_trace_of_a_fit_without_holes_is_its_log_likelihood(monkeypatch, make, bound):
    # every set the fit evaluates is its start or a flip-flop update, where
    # the scaled forms sum to pq * n_total; so the closed-form trace entry
    # is the log likelihood summed over the classes, set by set
    classes, fit = make()
    updates = spy(monkeypatch, mle._pooled_m_step)
    trace = fit().loglik_trace
    sets = [updates[0].args[2]] + [update.result for update in updates]
    assert len(sets) == len(trace) > 2
    direct = [
        sum(full_log_likelihood(ObservationSet(v), prm) for v, prm in zip(classes, each))
        for each in sets
    ]
    np.testing.assert_allclose(trace, direct, rtol=bound, atol=0)
