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


def _runs(values_by_seed, unit="s"):
    runs = []
    for seed, values in values_by_seed.items():
        if values is None:
            runs.append({"seed": seed, "exit": 1})  # no result line
            continue
        result = bench_record.parse_run(_stdout(values))[1]
        for name, metric in result["metrics"].items():
            metric["unit"] = "fits/s" if name.endswith("_per_s") else unit
        runs.append({"seed": seed, "exit": 0, "metrics": result["metrics"]})
    return runs


def test_throughputs_are_also_summarized_as_seconds_per_unit():
    runs = _runs({
        seed: {"grid_em_fits_per_s": rate, "classify_obs_per_s": 1000.0 * rate}
        for seed, rate in enumerate([50.0, 40.0, 100.0, 80.0, 25.0], 1)
    })
    summary = bench_record.summarize(runs, {"grid_em_fits_per_s": 0.25})
    em = summary["grid_em_s_per_fit"]
    assert em["unit"] == "s/fit" and em["runs"] == 5 and em["bound"] is None
    # 1/rate over the runs: 0.01, 0.0125, 0.02, 0.025, 0.04
    assert (em["q1"], em["median"], em["q3"]) == pytest.approx((0.0125, 0.02, 0.025))
    classify = summary["classify_s_per_1000_obs"]
    assert classify["unit"] == "s/1000 obs"
    assert classify["median"] == pytest.approx(0.02)
    assert summary["grid_em_fits_per_s"]["median"] == 50.0


def test_pair_tally_counts_seeds_won_and_compares_the_gap_with_the_quartiles():
    first = _runs({
        21: {"fit_em_s": 0.16, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 70.0},
        22: {"fit_em_s": 0.15, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 72.0},
        23: {"fit_em_s": 0.17, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 71.0},
        24: {"fit_em_s": 0.16, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 73.0},
        25: {"fit_em_s": 0.16, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 69.0},
    })
    second = _runs({
        21: {"fit_em_s": 0.13, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 71.0},
        22: {"fit_em_s": 0.16, "peak_rss_mb": 126.5, "grid_em_fits_per_s": 70.0},
        23: {"fit_em_s": 0.13, "peak_rss_mb": 125.5, "grid_em_fits_per_s": 72.0},
        24: {"fit_em_s": 0.12, "peak_rss_mb": 126.0, "grid_em_fits_per_s": 70.0},
        25: None,  # died: its pair counts on neither side
    })
    better = {"fit_em_s": "lower", "peak_rss_mb": "lower", "grid_em_fits_per_s": "higher"}
    tally = bench_record.tally_pairs(first, second, better)
    em = tally["fit_em_s"]
    assert (em["pairs"], em["second_won"]) == (4, 3)
    assert (em["median_first"], em["median_second"]) == pytest.approx((0.16, 0.13))
    assert em["first_quartile_distance"] == pytest.approx(0.0)
    assert em["apart"] is True
    rss = tally["peak_rss_mb"]
    assert (rss["pairs"], rss["second_won"], rss["apart"]) == (4, 1, False)  # a tie is no win
    rate = tally["grid_em_fits_per_s"]
    assert (rate["second_won"], rate["apart"]) == (2, False)
    # seconds per fit win exactly where the rate does, lower being better
    seconds = tally["grid_em_s_per_fit"]
    assert (seconds["pairs"], seconds["second_won"], seconds["apart"]) == (4, 2, False)
    # only metrics both sides recorded get a tally, seconds included
    assert set(tally) == set(better) | {"grid_em_s_per_fit"}
