"""Smoke-sized run of every workload, with and without tracing.

    python3 -m pytest -q bench/test_smoke.py

Kept out of the tier-1 suite (pytest's testpaths is tests/).  Checks that
each run exits 0, emits every metric BENCHMARK.json names with its unit, and
that no command failed its checks (fail_frac is 0).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(str(tmp_path), "decide", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
