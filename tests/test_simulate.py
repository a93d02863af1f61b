import dataclasses
import logging

import numpy as np
import pytest

from matnorm import simulate
from matnorm.mle import EstimationError, FitConfig
from matnorm.model import MatrixNormalParams, sample
from matnorm.simulate import (
    SimConfig,
    SimReport,
    SimRow,
    inject_missing,
    random_params,
    relative_error_mean,
    relative_error_sigma,
    run_grid,
)


class TestRandomParams:
    def test_draws_are_valid_and_seeded(self):
        a = random_params(3, 5, 7)
        b = random_params(3, 5, 7)
        assert (a.p, a.q) == (3, 5)
        assert a.row_cov[0, 0] == 1.0
        assert a.col_cov[0, 0] == 1.0
        assert 0.5 <= a.scale <= 2.0
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.row_cov, b.row_cov)
        assert a.scale == b.scale

    def test_distinct_seeds_differ(self):
        a = random_params(2, 2, 0)
        b = random_params(2, 2, 1)
        assert not np.array_equal(a.mean, b.mean)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            random_params(0, 3, 0)


class TestInjectMissing:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        truth = random_params(3, 5, rng)
        data = sample(truth, 250, rng)
        masked = inject_missing(data, 0.05, rng)
        # round(0.05 * 250 * 15) entries blanked
        assert int(np.isnan(masked.values).sum()) == 188

    def test_count_rounds_to_nearest(self):
        rng = np.random.default_rng(1)
        data = sample(random_params(2, 2, rng), 10, rng)
        masked = inject_missing(data, 0.33, rng)
        assert int(np.isnan(masked.values).sum()) == round(0.33 * 40)

    def test_zero_proportion_copies(self):
        rng = np.random.default_rng(2)
        data = sample(random_params(2, 3, rng), 5, rng)
        masked = inject_missing(data, 0.0, rng)
        np.testing.assert_array_equal(masked.values, data.values)
        assert masked.values is not data.values

    def test_every_observation_keeps_an_entry(self):
        rng = np.random.default_rng(3)
        data = sample(random_params(2, 3, rng), 30, rng)
        for _ in range(20):
            masked = inject_missing(data, 0.5, rng)
            blank = np.isnan(masked.values).all(axis=(1, 2))
            assert not blank.any()

    def test_rejects_impossible_request(self):
        rng = np.random.default_rng(4)
        data = sample(random_params(2, 2, rng), 3, rng)
        with pytest.raises(ValueError):
            inject_missing(data, 0.99, rng)

    def test_gives_up_when_valid_masks_are_too_rare(self):
        # legal in count but nearly every draw blanks some 4-entry
        # observation, so the rejection loop exhausts its attempts
        from matnorm.mle import EstimationError

        rng = np.random.default_rng(5)
        data = sample(random_params(2, 2, rng), 30, rng)
        with pytest.raises(EstimationError, match="attempts"):
            inject_missing(data, 0.7, rng)

    def test_masking_is_seeded(self):
        rng = np.random.default_rng(5)
        data = sample(random_params(3, 4, rng), 20, rng)
        a = inject_missing(data, 0.2, 11).values
        b = inject_missing(data, 0.2, 11).values
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))

    def test_rate_is_near_nominal_on_average(self):
        rng = np.random.default_rng(6)
        data = sample(random_params(3, 4, rng), 50, rng)
        rates = [
            np.isnan(inject_missing(data, 0.15, np.random.default_rng(k)).values).mean()
            for k in range(20)
        ]
        assert abs(float(np.mean(rates)) - 0.15) < 0.005


class TestRelativeErrors:
    def test_zero_at_truth(self):
        truth = random_params(2, 3, 0)
        assert relative_error_sigma(truth, truth) == 0.0
        assert relative_error_mean(truth, truth) == 0.0

    def test_scales_linearly_in_perturbation(self):
        truth = random_params(2, 3, 1)
        bumped = MatrixNormalParams(
            truth.mean + 1.0, truth.row_cov, truth.col_cov, truth.scale
        )
        expected = np.sqrt(6.0) / np.linalg.norm(truth.mean)
        assert abs(relative_error_mean(bumped, truth) - expected) < 1e-12

    def test_covariance_error_sees_scale(self):
        truth = random_params(2, 3, 2)
        doubled = MatrixNormalParams(
            truth.mean, truth.row_cov, truth.col_cov, 2.0 * truth.scale
        )
        assert abs(relative_error_sigma(doubled, truth) - 1.0) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            relative_error_sigma(random_params(2, 2, 0), random_params(2, 3, 0))


class TestSimConfig:
    def test_methods_are_normalized_and_deduplicated(self):
        cfg = SimConfig(methods=("EM", "mm", "em"))
        assert cfg.methods == ("em", "mm")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SimConfig(methods=("mm", "mystery"))

    def test_rejects_bad_proportion(self):
        with pytest.raises(ValueError):
            SimConfig(miss_props=(0.5, 1.0))

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            SimConfig(sample_sizes=(1,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dims", ((3.7, 5),)),
            ("sample_sizes", (250.9,)),
            ("replicates", 2.5),
            ("seed", 1.5),
        ],
    )
    def test_rejects_numbers_that_are_not_whole(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=-1)

    def test_accepts_whole_floats(self):
        cfg = SimConfig(dims=((3.0, 5.0),), sample_sizes=(250.0,), replicates=2.0)
        assert cfg.dims == ((3, 5),) and cfg.sample_sizes == (250,)
        assert cfg.replicates == 2 and isinstance(cfg.replicates, int)

    def test_accepts_whole_float_and_large_seeds(self):
        cfg = SimConfig(seed=7.0)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert SimConfig(seed=2**70).seed == 2**70


SMALL = SimConfig(
    dims=((2, 3),),
    sample_sizes=(40,),
    miss_props=(0.1,),
    replicates=3,
    seed=9,
    methods=("mm", "em"),
    fit=FitConfig(max_iters=200),
)


class TestRunGrid:
    def test_row_count_and_labels(self):
        report = run_grid(SMALL)
        assert len(report.rows) == 6
        assert {r.method for r in report.rows} == {"mm", "em"}
        assert all(r.miss_prop == 0.1 for r in report.rows)
        assert all((r.p, r.q, r.n) == (2, 3, 40) for r in report.rows)

    def test_rerun_reproduces_everything_but_timings(self):
        a = run_grid(SMALL)
        b = run_grid(SMALL)
        for ra, rb in zip(a.sorted_rows(), b.sorted_rows()):
            assert (ra.method, ra.replicate) == (rb.method, rb.replicate)
            assert ra.rel_err_sigma == rb.rel_err_sigma
            assert ra.rel_err_mu == rb.rel_err_mu
            assert ra.iterations == rb.iterations
            assert ra.converged == rb.converged

    def test_data_is_method_independent(self):
        both = run_grid(SMALL)
        em_only = run_grid(dataclasses.replace(SMALL, methods=("em",)))
        em_rows_a = [r for r in both.sorted_rows() if r.method == "em"]
        em_rows_b = em_only.sorted_rows()
        for ra, rb in zip(em_rows_a, em_rows_b):
            assert ra.rel_err_sigma == rb.rel_err_sigma
            assert ra.iterations == rb.iterations

    def test_progress_callback_fires_per_cell(self):
        seen = []
        run_grid(SMALL, progress=seen.append)
        assert len(seen) == 1
        assert "N=40" in seen[0]

    def test_csv_shape_and_header(self):
        report = run_grid(SMALL)
        lines = report.csv_text().splitlines()
        assert lines[0] == (
            "method,p,q,N,miss_prop,replicate,rel_err_sigma,rel_err_mu,"
            "runtime_seconds,iterations,converged"
        )
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "em"
        assert first[-1] in ("true", "false")
        # all value fields parse back
        float(first[4])
        float(first[6])
        float(first[7])

    def test_csv_deterministic_except_runtime(self):
        def strip_runtime(text):
            out = []
            for line in text.splitlines()[1:]:
                parts = line.split(",")
                del parts[8]
                out.append(",".join(parts))
            return out

        a = run_grid(SMALL).csv_text()
        b = run_grid(SMALL).csv_text()
        assert strip_runtime(a) == strip_runtime(b)

    def test_summary_cells(self):
        report = run_grid(SMALL)
        summary = report.summary()
        assert summary["format_version"] == 1
        assert len(summary["cells"]) == 2
        for cell in summary["cells"]:
            assert cell["replicates"] == 3
            assert 0.0 <= cell["converged_fraction"] <= 1.0
            assert np.isfinite(cell["median_rel_err_sigma"])


def test_failed_replicates_become_nan_rows():
    rows = [
        SimRow("em", 2, 2, 10, 0.1, 0, float("nan"), float("nan"), float("nan"), 0, False),
        SimRow("em", 2, 2, 10, 0.1, 1, 0.5, 0.2, 0.01, 3, True),
    ]
    report = SimReport(rows=rows)
    text = report.csv_text()
    assert "nan" in text
    cell = report.summary()["cells"][0]
    assert cell["converged_fraction"] == 0.5
    # nanmedian skips the failed row
    assert cell["median_rel_err_sigma"] == 0.5


def test_fit_that_raises_inside_run_grid_becomes_a_nan_row(monkeypatch, caplog):
    real = simulate.fit_em
    fits = []

    def fail_second(data, cfg):
        fits.append(data)
        if len(fits) == 2:
            raise EstimationError("the fit failed")
        return real(data, cfg)

    monkeypatch.setattr(simulate, "fit_em", fail_second)
    with caplog.at_level(logging.WARNING, logger="matnorm"):
        report = run_grid(dataclasses.replace(SMALL, methods=("em",)))
    assert "fit em failed on replicate 1: the fit failed" in caplog.text
    failed, *done = sorted(report.rows, key=lambda r: r.replicate != 1)
    assert failed.replicate == 1 and len(fits) == 3
    assert np.isnan([failed.rel_err_sigma, failed.rel_err_mu, failed.runtime_seconds]).all()
    assert failed.iterations == 0 and failed.converged is False
    assert all(np.isfinite(r.runtime_seconds) and r.iterations > 0 for r in done)
    assert report.csv_text().splitlines()[2].endswith(",1,nan,nan,nan,0,false")
    cell = report.summary()["cells"][0]
    assert cell["median_iterations"] == np.median([r.iterations for r in done])
    assert cell["median_iterations"] != np.median([r.iterations for r in report.rows])
    assert cell["converged_fraction"] == sum(r.converged for r in done) / 3


def test_median_iterations_skips_failed_replicates():
    rows = [
        SimRow("em", 2, 2, 10, 0.1, 0, float("nan"), float("nan"), float("nan"), 0, False),
        SimRow("em", 2, 2, 10, 0.1, 1, 0.5, 0.2, 0.01, 3, True),
    ]
    cell = SimReport(rows=rows).summary()["cells"][0]
    assert cell["median_iterations"] == 3
    failed = SimReport(rows=rows[:1]).summary()["cells"][0]
    assert np.isnan(failed["median_iterations"])
