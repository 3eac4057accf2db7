"""Smoke test of the benchmark at minimal length (one cycle per run).

    python3 -m pytest perfbench/test_smoke.py

Takes about three minutes on 2 cores; it is not part of the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, GATED, per_layer_names  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True,
        cwd=cwd, timeout=300,
    )
    return proc


def last_two(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["transport", "algebra", "probe", "cli"])
def test_workload_emits_end_to_end_metrics(workload):
    report, result = last_two(bench("--workload", workload, "--seed", "7",
                                    "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == dict(END_TO_END)
    assert result["metrics"] == {name: report["end_to_end"][name] for name in GATED}
    for name, metric in report["end_to_end"].items():
        assert metric["value"] > 0 or name == "fail_ratio", name
    assert report["end_to_end"]["fail_ratio"]["value"] == result["failed"] / result["attempted"]


def test_traced_run_reports_layers_and_repeats_counts():
    counts = []
    for _ in range(2):
        _, result = last_two(bench("--workload", "transport", "--seed", "7",
                                   "--seconds", "0", "--trace", "1"))
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == dict(per_layer_names())
        assert metrics["maps.call.n256.busy_s"]["value"] > 0
        assert metrics["factor.cond.calls"]["value"] > 0
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith("calls")})
    assert counts[0] == counts[1]


def test_fails_without_package_source():
    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "transport", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
