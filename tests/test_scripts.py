import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexotonic

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "scripts" / "boundedness_sweep.py"
BENCH = ROOT / "scripts" / "bench.py"


def sweep(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SWEEP), *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "argv, option",
    [(["--levels", "0"], "--levels"), (["--seed", "-1"], "--seed"), (["--trials", "-3"], "--trials")],
    ids=["levels-0", "seed-negative", "trials-negative"],
)
def test_boundedness_sweep_refuses_a_bad_argument_as_a_usage_error(argv, option):
    done = sweep(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"argument {option}: must be finite and at least" in done.stderr
    assert "Traceback" not in done.stderr


def test_boundedness_sweep_takes_zero_random_trials():
    # the skew coordinate directions are still tested
    done = sweep("--trials", "0", "--levels", "1")
    assert done.returncode == 0, done.stderr
    assert "nilpotent-pair: no infinite ray in 2 directions" in done.stdout


def test_bench_builds_its_cases_and_runs_every_map_call():
    # the bench is not run in the suite; this keeps a route change or an API
    # deletion from breaking it unnoticed
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench.cases(convexotonic, np)
    calls = {name: call for name, call in cases.items() if name.startswith("map_call.")}
    assert {"map_call.ut3.g6.n128", "map_call.nil8.g24.n32"} <= calls.keys()
    for call in calls.values():
        assert isinstance(call(), convexotonic.MatrixTuple)
