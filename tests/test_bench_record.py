"""The benchmark recorder's parsing and summary, on canned run output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _stdout(values, correct=True):
    result = {
        "correct": correct, "attempted": 40, "failed": 0,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
    }
    return "\n".join([
        'environment {"blas_threads": [1], "nproc": 2, "numpy": "2.4.6"}',
        "rounds 7 in 30.2 s, checks 1.1 s, probe kernel 0.002 s, setup_s samples [1.0]",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_environment_and_the_result_line():
    environment, result = bench_record.parse_run(_stdout({"fit_em_s": 0.15}))
    assert environment == {"blas_threads": [1], "nproc": 2, "numpy": "2.4.6"}
    assert result["correct"] is True
    assert result["metrics"]["fit_em_s"] == {"value": 0.15, "unit": "s"}


@pytest.mark.parametrize("stdout", [
    "",
    'environment {"nproc": 2}\nbenchmark: worker exited with -11\n',
    'environment {"nproc": 2}\n{"not": "a result"}\n',
])
def test_parse_run_finds_no_result_when_the_worker_died(stdout):
    assert bench_record.parse_run(stdout)[1] is None


def test_summary_gives_median_quartiles_and_spread_against_the_bound():
    runs = []
    for seed, (em, mm) in enumerate([(0.15, 0.10), (0.14, 0.20), (0.16, 0.10),
                                     (0.13, 0.30), (0.17, 0.10)], 1):
        run = {"seed": seed, "exit": 0}
        run["metrics"] = bench_record.parse_run(_stdout({"fit_em_s": em, "fit_mm_s": mm}))[1][
            "metrics"
        ]
        runs.append(run)
    runs.append({"seed": 6, "exit": 1})  # died before its result line: no metrics
    summary = bench_record.summarize(runs, {"fit_em_s": 0.25, "fit_mm_s": 0.25})
    em = summary["fit_em_s"]
    assert em["runs"] == 5
    assert (em["q1"], em["median"], em["q3"]) == pytest.approx((0.14, 0.15, 0.16))
    assert em["spread"] == pytest.approx(0.02 / 0.15)
    assert em["wider_than_bound"] is False
    mm = summary["fit_mm_s"]
    assert (mm["q1"], mm["median"], mm["q3"]) == pytest.approx((0.10, 0.10, 0.20))
    assert mm["spread"] == pytest.approx(1.0)
    assert mm["wider_than_bound"] is True


def test_summary_of_one_run_has_no_spread_and_an_unbounded_metric_no_flag():
    run = {"seed": 1, "exit": 0, "metrics": {"rounds": {"value": 7, "unit": "count"}}}
    rounds = bench_record.summarize([run], {})["rounds"]
    assert (rounds["q1"], rounds["median"], rounds["q3"], rounds["spread"]) == (7, 7, 7, 0)
    assert rounds["bound"] is None and rounds["wider_than_bound"] is None
