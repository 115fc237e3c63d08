"""Self-test of the benchmark: a tiny run of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs in-process on a shrunken shape, untraced and traced.
The test checks that every catalogued metric is printed with its unit,
that the output checks pass, and that tracing leaves the output digest
unchanged.  Two subprocess tests pin the command-line interface.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, fleet, grid, layers, service

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "stream-observe": (fleet, "STREAM_SHAPE", {"copies": 1, "days": 12, "train_days": 10}),
    "durable-decide": (fleet, "DURABLE_SHAPE", {"copies": 1, "days": 10, "train_days": 7}),
    "grid-fig7": (grid, "GRID_SHAPE", {"days": 12, "history_days": 10}),
}
HANDLERS = {
    "stream-observe": fleet.stream_observe,
    "durable-decide": fleet.durable_decide,
    "service-mixed": service.service_mixed,
    "grid-fig7": grid.grid_fig7,
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    for module, name, shape in TINY.values():
        monkeypatch.setattr(module, name, shape)
    monkeypatch.setattr(service, "SLOTS", 2)
    monkeypatch.setattr(service, "DAYS", 8)
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)


def _run(workload: str, trace: bool) -> common.Run:
    run = common.Run(workload=workload, seed=3, seconds=0.2, trace=trace)
    try:
        HANDLERS[workload](run)
    finally:
        run.cleanup()
    return run


def test_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(HANDLERS)
    for key, catalogue in (("end_to_end", layers.END_TO_END),
                           ("per_layer", layers.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == list(catalogue)


@pytest.mark.parametrize("workload", list(HANDLERS))
def test_tiny_run(tiny, workload):
    plain = _run(workload, trace=False)
    assert {name: m["unit"] for name, m in plain.metrics.items()} == {
        name: unit for name, unit, _ in layers.END_TO_END
    }
    assert all(m["value"] > 0 for m in plain.metrics.values())
    assert plain.attempted >= 1 and plain.failed == 0

    traced = _run(workload, trace=True)
    assert {name: m["unit"] for name, m in traced.metrics.items()} == {
        name: unit for name, unit, _ in layers.PER_LAYER
    }
    assert traced.detail["digest"] == traced.detail["untraced_digest"]
    assert traced.detail["digest"] == plain.detail["digest"]
    assert traced.failed == 0


def test_cli_prints_result_last(tmp_path):
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-fig7", "--seed", "5",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _, _ in layers.END_TO_END}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-observe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
