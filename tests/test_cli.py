"""End-to-end command-line behavior: exit codes, files written, messages."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from support import random_params, shape_matrix

import matnorm
from matnorm import cli, simulate
from matnorm.cli import main
from matnorm.io import atomic_write_text, load_dataset, load_params, save_dataset
from matnorm.missing import UnstructuredParams
from matnorm.model import MatrixNormalParams, sample
from matnorm.spectral import (
    LabeledObservationSet,
    distance_matrix,
    fit_class_models,
    mle_classify,
    pca_row_cov,
    project,
    projected_class_stats,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(42)

    complete = sample(random_params(rng, 3, 4, scale=1.0), 60, rng).values
    save_dataset(str(root / "complete.csv"), complete)

    # fixed hole pattern at stacked indices 1, 2, 8, 12, 17, 18 of a 3x7
    # observation, applied to every fifth data row
    holey = sample(random_params(rng, 3, 7, scale=1.0), 50, rng).values
    for i in range(0, 50, 5):
        for idx in (1, 2, 8, 12, 17, 18):
            holey[i, idx % 3, idx // 3] = np.nan
    save_dataset(str(root / "missing.csv"), holey)

    row_cov = shape_matrix(rng, 3)
    c1 = MatrixNormalParams(
        rng.standard_normal((3, 5)), row_cov, shape_matrix(rng, 5), 1.0
    )
    c2 = MatrixNormalParams(
        c1.mean + 1.5, row_cov, shape_matrix(rng, 5), 1.2
    )
    labeled = np.concatenate(
        [sample(c1, 40, rng).values, sample(c2, 40, rng).values]
    )
    mask = rng.random(labeled.shape) < 0.08
    mask[:, 0, 0] = False
    labeled[mask] = np.nan
    save_dataset(str(root / "labeled.csv"), labeled, np.repeat([1, 2], 40))

    save_dataset(str(root / "oneclass.csv"), complete, np.ones(60, dtype=int))

    atomic_write_text(str(root / "ragged.csv"), "x_r1_c1,x_r2_c1\n1,2\n3\n")
    return root


class TestFit:
    def test_mle_on_complete_data(self, workdir, tmp_path):
        out = str(tmp_path / "mle.json")
        code = main(
            ["fit", "--input", str(workdir / "complete.csv"), "--method", "mle",
             "--p", "3", "--q", "4", "--output", out]
        )
        assert code == 0
        params, meta = load_params(out)
        assert isinstance(params, MatrixNormalParams)
        assert meta["method"] == "mle"
        assert meta["converged"] is True
        assert meta["iterations"] >= 1

    def test_em_on_missing_data(self, workdir, tmp_path):
        out = str(tmp_path / "em.json")
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "em",
             "--p", "3", "--q", "7", "--output", out]
        )
        assert code == 0
        params, meta = load_params(out)
        assert params.p == 3 and params.q == 7
        assert meta["converged"] is True

    def test_gem_writes_unstructured_params(self, workdir, tmp_path):
        out = str(tmp_path / "gem.json")
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "gem",
             "--p", "3", "--q", "7", "--output", out]
        )
        assert code == 0
        params, meta = load_params(out)
        assert isinstance(params, UnstructuredParams)
        assert meta["method"] == "gem"

    def test_em_and_mm_match_mle_on_complete_data(self, workdir, tmp_path):
        payloads = {}
        for method in ("mle", "em", "mm"):
            out = str(tmp_path / f"{method}.json")
            assert main(
                ["fit", "--input", str(workdir / "complete.csv"), "--method",
                 method, "--p", "3", "--q", "4", "--output", out]
            ) == 0
            payloads[method] = json.loads(Path(out).read_text())
            payloads[method].pop("meta")
        assert payloads["em"] == payloads["mle"]
        assert payloads["mm"] == payloads["mle"]

    def test_unconverged_exits_3_but_writes_output(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "em.json")
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "em",
             "--p", "3", "--q", "7", "--tol", "1e-15", "--max-iters", "2",
             "--output", out]
        )
        assert code == 3
        _, meta = load_params(out)
        assert meta["converged"] is False
        assert "without meeting the tolerance" in capsys.readouterr().err

    def test_infinite_tol_is_a_usage_error(self, workdir, tmp_path, capsys):
        # an infinite tol would stop every fit after one update as converged
        out = tmp_path / "em.json"
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "em",
             "--p", "3", "--q", "7", "--tol", "inf", "--output", str(out)]
        )
        assert code == 1
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_mle_with_missing_names_first_hole(self, workdir, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "mle",
             "--p", "3", "--q", "7", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        # argwhere scans the observation row by row, so (0, 4) wins over (1, 0)
        assert "data row 1, column x_r1_c5" in err
        assert "use mm, gem, or em" in err

    def test_shape_flags_must_match_header(self, workdir, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(workdir / "missing.csv"), "--method", "em",
             "--p", "4", "--q", "7", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "3x7 observation" in capsys.readouterr().err

    def test_ragged_input_names_line(self, workdir, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(workdir / "ragged.csv"), "--method", "em",
             "--p", "2", "--q", "1", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_absent_input_exits_1(self, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--method", "em",
             "--p", "2", "--q", "2", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_verbose_traces_iterations(self, workdir, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(workdir / "complete.csv"), "--method", "mle",
             "--p", "3", "--q", "4", "--verbose",
             "--output", str(tmp_path / "v.json")]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "iter 0: loglik" in err
        assert "iter 1: loglik" in err


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--method", "em", "--p", "2", "--q", "2"])
        assert exc.value.code == 2

    def test_unknown_method(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", "--input", str(workdir / "complete.csv"), "--method",
                 "ols", "--p", "3", "--q", "4",
                 "--output", str(tmp_path / "x.json")]
            )
        assert exc.value.code == 2

    def test_nonpositive_dimension(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", "--input", str(workdir / "complete.csv"), "--method",
                 "em", "--p", "0", "--q", "4",
                 "--output", str(tmp_path / "x.json")]
            )
        assert exc.value.code == 2

    def test_console_script_help(self, tmp_path):
        # An installed package puts the script on PATH. Run from the source
        # tree, write the launcher an installer writes for the entry point
        # that pyproject.toml declares, and run it as its own process.
        exe = shutil.which("matnorm")
        env = None
        if exe is None:
            tomllib = pytest.importorskip("tomllib")
            with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
                scripts = tomllib.load(fh)["project"].get("scripts", {})
            assert "matnorm" in scripts, "pyproject.toml declares no matnorm script"
            entry = EntryPoint(
                name="matnorm", value=scripts["matnorm"], group="console_scripts"
            )
            exe = tmp_path / "matnorm"
            exe.write_text(
                f"#!{sys.executable}\n"
                "import sys\n"
                f"from {entry.module} import {entry.attr}\n"
                f"sys.exit({entry.attr}())\n"
            )
            exe.chmod(0o755)
            src = str(Path(matnorm.__file__).resolve().parent.parent)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
        proc = subprocess.run(
            [str(exe), "--help"], capture_output=True, text=True, timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fit" in proc.stdout
        assert "simulate" in proc.stdout
        assert "analyze" in proc.stdout


class TestSimulate:
    ARGS = [
        "simulate", "--dims", "2x3", "--sizes", "30", "--miss", "0.1",
        "--replicates", "2", "--methods", "mm,em", "--seed", "5",
    ]

    def test_grid_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        summ = str(tmp_path / "sim.json")
        code = main(self.ARGS + ["--output", out, "--summary", summ])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == (
            "method,p,q,N,miss_prop,replicate,rel_err_sigma,rel_err_mu,"
            "runtime_seconds,iterations,converged"
        )
        assert len(lines) == 1 + 2 * 2  # two methods, two replicates, one cell
        summary = json.loads(Path(summ).read_text())
        assert summary["format_version"] == 1
        assert {c["method"] for c in summary["cells"]} == {"mm", "em"}
        assert "[1/1]" in capsys.readouterr().err

    def test_rerun_identical_except_runtime(self, tmp_path):
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        assert main(self.ARGS + ["--output", first]) == 0
        assert main(self.ARGS + ["--output", second]) == 0
        rows_a = [l.split(",") for l in Path(first).read_text().splitlines()]
        rows_b = [l.split(",") for l in Path(second).read_text().splitlines()]
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra[:8] == rb[:8]
            assert ra[9:] == rb[9:]

    def test_bad_shape_spec(self, tmp_path, capsys):
        code = main(
            ["simulate", "--dims", "3y5", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "cannot parse shape" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--sizes", "10,x", "cannot parse 'x' in --sizes"),
         ("--miss", ",", "--miss produced no values")],
    )
    def test_bad_number_list(self, tmp_path, capsys, flag, value, message):
        code = main(
            ["simulate", "--dims", "2x2", flag, value,
             "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_unknown_grid_method(self, tmp_path, capsys):
        code = main(
            ["simulate", "--dims", "2x2", "--methods", "bogus",
             "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        code = main(
            ["simulate", "--dims", "2x2", "--seed", "-1",
             "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err


EXPECTED_REPORTS = [
    "confusion.csv",
    "dendrogram.json",
    "distances.csv",
    "pca.csv",
    "projections.csv",
    "summary.json",
]


class TestAnalyze:
    def run_analyze(self, workdir, outdir, extra=()):
        return main(
            ["analyze", "--input", str(workdir / "labeled.csv"), "--method",
             "em", "--pcs", "2", "--outdir", str(outdir), *extra]
        )

    def test_writes_all_reports(self, workdir, tmp_path):
        outdir = tmp_path / "report"
        assert self.run_analyze(workdir, outdir) == 0
        assert sorted(f.name for f in outdir.iterdir()) == EXPECTED_REPORTS

        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["format_version"] == 1
        assert (summary["n_obs"], summary["p"], summary["q"]) == (80, 3, 5)
        assert summary["n_classes"] == 2
        assert summary["pcs"] == 2
        assert summary["converged"] is True
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert summary["separability"]["total"] > 0

        dendro = json.loads((outdir / "dendrogram.json").read_text())
        assert dendro["leaves"] == [1, 2]
        assert len(dendro["merges"]) == 1
        merge = dendro["merges"][0]
        assert {merge["left"], merge["right"]} == {1, 2}
        assert merge["size"] == 2

        pca_lines = (outdir / "pca.csv").read_text().splitlines()
        assert pca_lines[0] == (
            "component,eigenvalue,fraction,cumulative,"
            "loading_r1,loading_r2,loading_r3"
        )
        assert len(pca_lines) == 4  # header plus one row per observation row

        proj_lines = (outdir / "projections.csv").read_text().splitlines()
        assert proj_lines[0] == "label,pc1,pc2"
        assert len(proj_lines) == 81

        conf_lines = (outdir / "confusion.csv").read_text().splitlines()
        assert conf_lines[0] == "true_class,pred_1,pred_2"
        counts = [
            sum(int(v) for v in line.split(",")[1:]) for line in conf_lines[1:]
        ]
        assert counts == [40, 40]

    def test_reports_match_in_memory_results(self, workdir, tmp_path):
        outdir = tmp_path / "report"
        assert self.run_analyze(workdir, outdir) == 0
        values, labels = load_dataset(str(workdir / "labeled.csv"))
        model = fit_class_models(LabeledObservationSet(values, labels), "em")
        pca = pca_row_cov(model, 2)
        scores = project(model.completions, pca)
        dist = distance_matrix(projected_class_stats(scores, labels))
        predicted = mle_classify(model.completions, model, pca, 2)

        def table(name):
            return np.loadtxt(outdir / name, delimiter=",", skiprows=1, ndmin=2)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

        pca_table = table("pca.csv")
        np.testing.assert_array_equal(pca_table[:, 0], [1, 2, 3])
        close(pca_table[:, 1], pca.eigenvalues)
        close(pca_table[:, 2], pca.fractions)
        close(pca_table[:, 3], np.cumsum(pca.fractions))
        # row k of the loadings is eigenvector k, a column of the matrix
        close(pca_table[:, 4:], pca.eigenvectors.T)

        projections = table("projections.csv")
        np.testing.assert_array_equal(projections[:, 0], labels)
        close(projections[:, 1:], scores.mean(axis=2))

        distances = table("distances.csv")
        np.testing.assert_array_equal(distances[:, 0], [1, 2])
        close(distances[:, 1:], dist)

        confusion = table("confusion.csv")
        counts = [[np.sum((labels == i) & (predicted == j)) for j in (1, 2)] for i in (1, 2)]
        np.testing.assert_array_equal(confusion[:, 0], [1, 2])
        np.testing.assert_array_equal(confusion[:, 1:], counts)

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        assert self.run_analyze(workdir, first) == 0
        assert self.run_analyze(workdir, second) == 0
        for name in EXPECTED_REPORTS:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_fit_matches_in_memory_fit_bit_for_bit(self, tmp_path):
        # load_dataset hands back a transposed view of the parsed rows; the
        # fit must see the same C-ordered values, and so run its sums in the
        # same order, as an in-memory caller (this draw differs otherwise)
        rng = np.random.default_rng(27)
        truth = simulate.random_params(3, 4, rng)
        values = np.concatenate(
            [sample(truth, 20, rng).values, sample(truth, 20, rng).values + 1]
        )
        mask = rng.random(values.shape) < 0.1
        mask[:, 0, 0] = False
        values[mask] = np.nan
        labels = np.repeat([1, 2], 20)
        path = str(tmp_path / "labeled.csv")
        save_dataset(path, values, labels)
        outdir = tmp_path / "report"
        code = main(
            ["analyze", "--input", path, "--method", "em", "--pcs", "2",
             "--outdir", str(outdir)]
        )
        assert code == 0
        loaded, _ = load_dataset(path)
        assert LabeledObservationSet(loaded, labels).values.flags.c_contiguous
        model = fit_class_models(LabeledObservationSet(values, labels), "em")
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["loglik"] == float(model.loglik_trace[-1])

    def test_unlabeled_input_rejected(self, workdir, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(workdir / "complete.csv"), "--method",
             "em", "--pcs", "2", "--outdir", str(tmp_path / "r")]
        )
        assert code == 1
        assert "label column" in capsys.readouterr().err

    def test_single_class_rejected(self, workdir, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(workdir / "oneclass.csv"), "--method",
             "em", "--pcs", "2", "--outdir", str(tmp_path / "r")]
        )
        assert code == 1
        assert "two classes" in capsys.readouterr().err

    def test_too_many_components_rejected(self, workdir, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(workdir / "labeled.csv"), "--method",
             "em", "--pcs", "9", "--outdir", str(tmp_path / "r")]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    def test_unconverged_exits_3_with_reports(self, workdir, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = self.run_analyze(
            workdir, outdir, extra=["--tol", "1e-15", "--max-iters", "2"]
        )
        assert code == 3
        assert sorted(f.name for f in outdir.iterdir()) == EXPECTED_REPORTS
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["converged"] is False


def test_fit_defaults_come_from_fit_config(monkeypatch):
    monkeypatch.setattr(cli.FitConfig, "tol", 1e-5)
    monkeypatch.setattr(cli.FitConfig, "max_iters", 7)
    parser = cli._build_parser()
    for argv in (
        ["fit", "--input", "x.csv", "--method", "em", "--p", "2", "--q", "2", "--output", "y"],
        ["simulate", "--output", "y.csv"],
        ["analyze", "--input", "x.csv", "--method", "em", "--pcs", "1", "--outdir", "y"],
    ):
        args = parser.parse_args(argv)
        assert (args.tol, args.max_iters) == (1e-5, 7), argv[0]
