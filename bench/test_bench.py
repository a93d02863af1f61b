"""Tests of the benchmark itself: every check rejects a wrong answer, the
tracer attributes time correctly, and every workload runs at a tiny size.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import matnorm  # noqa: E402
from matnorm import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _params(fit):
    p = fit.params
    return p.mean, p.row_cov, p.col_cov, p.scale


@pytest.fixture(scope="module")
def masked():
    rng = np.random.default_rng(3)
    t = inputs.truth(3, 4)
    return t, inputs.mcar(inputs.draw(t, 120, rng), 0.2, rng)


@pytest.fixture(scope="module")
def em_fit(masked):
    return matnorm.fit_em(matnorm.ObservationSet(masked[1]))


def test_em_check_accepts_the_fit(masked, em_fit):
    t, values = masked
    errors, ll = checks.check_em(values, *_params(em_fit), em_fit.loglik_trace, t, "em")
    assert errors == []
    assert ll == pytest.approx(em_fit.loglik_trace[-1], rel=1e-10)


def test_em_check_rejects_perturbed_parameters(masked, em_fit):
    t, values = masked
    mean, row, col, scale = _params(em_fit)
    errors, _ = checks.check_em(values, mean + 0.05, row, col, scale, em_fit.loglik_trace, t, "em")
    assert any("observed loglik" in e for e in errors)
    errors, _ = checks.check_em(values, mean, row, col, 1.1 * scale, em_fit.loglik_trace, t, "em")
    assert errors


def test_em_check_rejects_a_truncated_trace(masked, em_fit):
    t, values = masked
    errors, _ = checks.check_em(values, *_params(em_fit), em_fit.loglik_trace[:-3], t, "em")
    assert any("final trace value" in e for e in errors)


def test_em_check_rejects_an_estimate_below_the_truth(masked):
    t, values = masked
    worse = inputs.Truth(t.mean + 0.5, t.row, t.col, t.scale)
    ll = checks.observed_loglik(values, checks._vec(worse.mean), worse.cov)
    errors, _ = checks.check_em(values, worse.mean, worse.row, worse.col, worse.scale,
                                np.array([ll - 1.0, ll]), t, "em")
    assert any("below the truth" in e for e in errors)


def test_trace_check_rejects_a_drop():
    assert checks.check_trace(np.array([-10.0, -9.0, -8.0]), "t") == []
    assert checks.check_trace(np.array([-10.0, -8.0, -9.0]), "t")
    assert checks.check_trace(np.array([-10.0]), "t")


def test_observed_loglik_matches_the_package_reference(masked, em_fit):
    values = masked[1]
    want = matnorm.observed_log_likelihood(matnorm.ObservationSet(values), em_fit.params)
    mean, row, col, scale = _params(em_fit)
    got = checks.observed_loglik(values, checks._vec(mean), scale * np.kron(col, row))
    assert got == pytest.approx(want, rel=1e-10)


def test_gem_check(masked, em_fit):
    values = masked[1]
    params, result = matnorm.fit_gem(matnorm.ObservationSet(values))
    assert result.converged
    ll_em = em_fit.loglik_trace[-1]
    assert checks.check_gem(values, params.mean, params.cov, True, ll_em, "gem") == []
    assert checks.check_gem(values, params.mean, 3.0 * params.cov, True, ll_em, "gem")
    # An unconverged fit carries no claim.
    assert checks.check_gem(values, params.mean, 3.0 * params.cov, False, ll_em, "gem") == []


def test_mm_check(masked):
    values = masked[1]
    mean, row, col, scale = _params(matnorm.fit_mm(matnorm.ObservationSet(values)))
    assert checks.check_mm(values, mean, row, col, scale, "mm") == []
    assert any("nanmean" in e for e in checks.check_mm(values, mean + 1e-6, row, col, scale, "mm"))
    bent = row + 0.02 * np.eye(3)
    assert checks.check_mm(values, mean, bent / bent[0, 0], col, scale, "mm")


def test_mle_check(masked):
    t = masked[0]
    clean = inputs.draw(t, 200, np.random.default_rng(4))
    mean, row, col, scale = _params(matnorm.fit_mle(matnorm.ObservationSet(clean)))
    assert checks.flip_flop_residual(clean, mean, row, col, scale) < checks.FIXED_POINT_TOL / 10
    assert checks.check_mle(clean, mean, row, col, scale, "mle") == []
    bent = col + 0.02 * np.eye(4)
    assert checks.check_mle(clean, mean, row, bent / bent[0, 0], scale, "mle")
    assert checks.check_mle(clean, mean, row, col, 1.01 * scale, "mle")
    assert checks.check_mle(clean, mean + 0.01, row, col, scale, "mle")


def test_rel_err_check(masked):
    t = masked[0]
    est = 1.1 * t.cov
    good = float(np.linalg.norm(est - t.cov) / np.linalg.norm(t.cov))
    assert checks.check_rel_err_sigma(est, t, good, "row") == []
    assert checks.check_rel_err_sigma(est, t, good * 1.001, "row")


@pytest.fixture(scope="module")
def classes():
    ct = inputs.class_truth(3, 4, 3, 0.5)
    rng = np.random.default_rng(5)
    values, labels = inputs.draw_labeled(ct, 40, rng)
    return ct, values, labels


def test_label_check_rejects_shuffled_labels(classes):
    ct, values, labels = classes
    params = [(t.mean, t.row, t.col, t.scale) for t in ct.classes]
    scores = checks.projected_scores(values, params, checks.leading_basis(ct.classes[0].row, 2))
    argmax = np.argmax(scores, axis=1) + 1
    assert checks.check_labels(scores, argmax, "c") == []
    shuffled = np.random.default_rng(0).permutation(argmax)
    assert checks.check_labels(scores, shuffled, "c")
    assert checks.check_labels(scores, argmax[:-1], "c")


def test_label_check_agrees_with_mle_classify(classes):
    ct, values, labels = classes
    params = [matnorm.MatrixNormalParams(t.mean, t.row, t.col, t.scale) for t in ct.classes]
    for prm in params:
        prm.row_cov = params[0].row_cov
    model = matnorm.ClassModel(params, values, labels, "em", np.zeros(1), 0, 0.0, True)
    pca = matnorm.pca_row_cov(model, 2)
    got = matnorm.mle_classify(values, model, pca, 2)
    scores = checks.projected_scores(
        values, [(t.mean, t.row, t.col, t.scale) for t in ct.classes],
        checks.leading_basis(ct.classes[0].row, 2),
    )
    assert checks.check_labels(scores, got, "c") == []


@pytest.fixture()
def report(classes, tmp_path):
    ct, values, labels = classes
    values = inputs.mcar(values, 0.1, np.random.default_rng(6))
    path = str(tmp_path / "labeled.csv")
    inputs.write_csv(path, values, labels)
    outdir = str(tmp_path / "report")
    assert cli.main(["analyze", "--input", path, "--method", "em", "--pcs", "2",
                     "--outdir", outdir]) in (0, 3)
    model = matnorm.fit_class_models(matnorm.LabeledObservationSet(values, labels), "em")
    scores = checks.projected_scores(
        model.completions,
        [(p.mean, p.row_cov, p.col_cov, p.scale) for p in model.class_params],
        checks.leading_basis(model.row_cov, 2),
    )
    return outdir, scores, labels, model.row_cov


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(edit(text))


def test_report_check_accepts_the_report(report):
    assert checks.check_report(*report, "a") == []


def test_report_check_rejects_a_wrong_label_set(report):
    outdir, scores, labels, row = report
    wrong = np.random.default_rng(1).permutation(labels)
    assert any("confusion" in e for e in checks.check_report(outdir, scores, wrong, row, "a"))


def test_report_check_rejects_wrong_pca(report):
    outdir, scores, labels, row = report
    assert any("PCA" in e for e in checks.check_report(outdir, scores, labels, 1.01 * row, "a"))


def test_report_check_rejects_an_asymmetric_distance_matrix(report):
    outdir = report[0]
    path = os.path.join(outdir, "distances.csv")
    _rewrite(path, lambda t: t.replace("\n2,", "\n2,1", 1))
    assert any("symmetric" in e for e in checks.check_report(*report, "a"))


def test_report_check_rejects_falling_dendrogram_heights(report):
    path = os.path.join(report[0], "dendrogram.json")
    with open(path, encoding="utf-8") as handle:
        tree = json.load(handle)
    tree["merges"][-1]["height"] = -1.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tree, handle)
    assert any("dendrogram" in e for e in checks.check_report(*report, "a"))


def test_report_check_rejects_a_wrong_accuracy(report):
    path = os.path.join(report[0], "summary.json")
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    summary["accuracy"] = summary["accuracy"] / 2 + 0.01
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    assert any("accuracy" in e for e in checks.check_report(*report, "a"))


def test_summarize_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
    ]
    s = tracer.summarize(spans)
    assert s["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert s["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert s["leaf"]["self_s"] == 1.0


def test_tracer_wraps_every_binding_and_restores_them():
    import matnorm.model
    import matnorm.spectral

    original = matnorm.model.log_density
    prm = matnorm.MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0)
    t = tracer.Tracer()
    with t.active():
        assert matnorm.spectral.log_density is matnorm.model.log_density
        assert matnorm.log_density is matnorm.model.log_density
        assert matnorm.model.log_density is not original
        matnorm.spectral.log_density(np.zeros((2, 2)), prm)
    assert matnorm.model.log_density is original
    assert matnorm.spectral.log_density is original
    s = t.summary()
    assert s["model.log_density"]["calls"] == 1
    assert t.spans[0][0] == "model.log_density"
    # log_density calls spd_inverse twice, through the model module's binding.
    inverses = [span for span in t.spans if span[0] == "linalg.spd_inverse"]
    assert len(inverses) == 2 and all(span[3] == 0 for span in inverses)


def test_tracer_meters_iterations_and_bytes(tmp_path, masked):
    t = tracer.Tracer()
    path = str(tmp_path / "out.txt")
    with t.active():
        result = matnorm.fit_em(matnorm.ObservationSet(masked[1]))
        matnorm.io.atomic_write_text(path, "héllo")
    assert t.counters["missing.fit_em.iterations"] == result.iterations
    assert t.counters["io.atomic_write_text.bytes"] == 6


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    import run

    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want = {name: unit for name, (_, _, unit) in workloads.END_TO_END.items()}
    want.update(setup_s="s", peak_rss_mb="MB")
    assert e2e == want
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(worker.PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_at_a_tiny_size(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = _benchmark_json()
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "sim-grid", "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
