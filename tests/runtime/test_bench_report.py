"""Every ``BENCH_perf.json`` writer merges its sections into the report."""

from __future__ import annotations

import json

from repro.runtime import bench


def test_quick_run_bench_keeps_an_existing_fleet_scale_section(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    scale = {"n_users": 12_500, "user_days": 100_000, "events_per_s": 1.0}
    out.write_text(json.dumps({"schema": 1, "fleet_scale": scale}))
    report = bench.run_bench(out, jobs=1, quick=True)
    on_disk = json.loads(out.read_text())
    assert on_disk["fleet_scale"] == scale
    assert {k: on_disk[k] for k in report} == report


def test_merge_report_starts_a_missing_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    merged = bench.merge_report(out, {"fleet_scale": {"events": 1}})
    assert merged == {"schema": 1, "fleet_scale": {"events": 1}}
    assert json.loads(out.read_text()) == merged
