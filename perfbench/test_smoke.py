"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that no command fails, and that the exact counts of a traced run
repeat from one run to the next.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(result: dict, expected: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = run(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert "stage failed_share 0 1" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_counts(workload):
    first, lines = run(workload, 1)
    second, _ = run(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    assert "stage failed_share 0 1" in lines
    for name in ("solver.nodes", "graphs.realize_calls"):
        assert first["metrics"][name] == second["metrics"][name]
