"""Smoke test of the benchmark harness itself.

Every workload runs at reduced size (``--smoke``), untraced and traced, and
must pass its correctness gate and report exactly the metrics that
BENCHMARK.json names.  Run from the repository root:

    python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, details_line, result_line = done.stdout.splitlines()
    details, result = json.loads(details_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    assert details["failed_ratio"] == 0.0
    assert len(details["output_digest"]) == 64
    assert set(details["environment"]) == {"python", "numpy", "cpu_count", "git_commit", "seed"}
    # the scale network has more links than the Sobol table has dimensions
    assert (details["skipped_ops"] > 0) == (workload == "scale-5k")
    if trace:
        layers = {"inp", "network", "bounds", "analytical", "bnb", "sampling", "report", "dae"}
        assert layers <= set(details["layer_self_s"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
