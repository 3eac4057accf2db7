import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "scripts" / "boundedness_sweep.py"


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
