"""Smoke test of the benchmark harness: tiny workloads, checks, traced run.

Runs ``run.py --smoke`` on every workload and asserts that each metric named
in ``BENCHMARK.json`` is reported with its unit, that every operation
passes, and that the counts the calls determine repeat between traced runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = (
    "gbdt.fit.nodes",
    "features.tof_features.bars_per_call",
    "market_data.QuoteSeries.column.calls",
    "pipeline.tof_rows.repeat_share",
)


def _run(workload: str, trace: int, workdir: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--workdir", str(workdir)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload_reports_every_metric(workload, tmp_path):
    info, result = _result(_run(workload, 0, tmp_path))
    _assert_metrics(result, SPEC["end_to_end"])
    assert info["digest"] and info["samples"]["synth_s"] >= 1
    assert {"nproc", "python", "numpy", "git_commit", "loadavg_before", "loadavg_after"} <= set(
        info["env"]
    )

    traced_info, traced = _result(_run(workload, 1, tmp_path))
    _assert_metrics(traced, SPEC["per_layer"])
    assert traced_info["digest"] == info["digest"]


def test_traced_counts_repeat_exactly(tmp_path):
    first = _result(_run("sweep", 1, tmp_path / "a"))[1]["metrics"]
    second = _result(_run("sweep", 1, tmp_path / "b"))[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["gbdt.fit.nodes"]["value"] > 0
    assert first["pipeline.tof_rows.repeat_share"]["value"] > 0


def test_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run("walkthrough", 0, tmp_path / "work", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
