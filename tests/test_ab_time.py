"""The paired timing tool, run on one checkout against itself."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


def test_times_a_checkout_against_itself_and_writes_nothing_in_it(tmp_path):
    before = sorted(p.name for p in ROOT.iterdir())
    env = dict(os.environ, TMPDIR=str(tmp_path))
    run = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--op", "class-em-3x7", "--pairs", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.strip().splitlines()
    record = json.loads(line)
    assert record["op"] == "class-em-3x7" and record["pairs"] == 2
    assert record["old_median_s"] > 0 and record["new_median_s"] > 0
    assert record["median_ratio"] > 0
    assert sorted(p.name for p in ROOT.iterdir()) == before
    # the copied packages went into a temporary directory that is gone
    assert list(tmp_path.iterdir()) == []


def test_refuses_a_directory_without_the_package(tmp_path):
    run = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), str(ROOT), "--op", "fit-em-3x7", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode != 0
    assert "no src/matnorm package" in run.stderr


@pytest.mark.parametrize("op", ["class-em-3x7", "class-em-dropout", "fit-em-3x7", "fit-em-8x16"])
def test_inputs_are_the_benchmarks_draws(op):
    spec = importlib.util.spec_from_file_location("ab_time", TOOL)
    ab_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_time)
    values, labels = ab_time.build(op)
    again, _ = ab_time.build(op)
    assert values.tobytes() == again.tobytes()
    kind, p, q, classes, n, _, _ = ab_time.OPS[op]
    assert values.shape == ((classes or 1) * n, p, q)
    assert (labels is None) == (kind == "fit")
