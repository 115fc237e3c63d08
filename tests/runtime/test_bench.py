"""The perf harness behind BENCH_perf.json (quick workloads only)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.runtime import bench


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_perf.json"
    report = bench.run_bench(out, jobs=2, quick=True)
    return report, out


def test_report_schema(quick_report):
    report, out = quick_report
    on_disk = json.loads(out.read_text())
    assert on_disk == report
    assert report["schema"] == 1
    assert report["quick"] is True
    assert report["cpu_count"] >= 1
    for section, keys in {
        "cohort_generation": (
            "cold_s",
            "warm_s",
            "warm_speedup",
            "cache",
        ),
        "policy_sweep": (
            "serial_s",
            "parallel_s",
            "speedup",
            "parallel_regression",
            "identical_results",
            "task_mib",
            "result_mib",
        ),
        "fptas_batch": (
            "batch_s",
            "solves_per_s",
            "batch_solves_per_s",
            "memo_warm_solves_per_s",
            "total_profit",
        ),
        "replay_kernel": ("replay_s", "sims_per_s", "windows_per_s"),
        "stream": ("events", "elapsed_s", "stream_events_per_s"),
        "shard_recovery": (
            "wal_records",
            "wal_appends",
            "durable_events_per_s",
            "recovery_points",
            "full_recovery_s",
            "recovery_records_per_s",
        ),
    }.items():
        assert set(keys) <= set(report[section]), section


def test_warm_cache_beats_cold(quick_report):
    report, _ = quick_report
    cohort = report["cohort_generation"]
    assert cohort["warm_s"] < cohort["cold_s"]
    assert cohort["cache"]["hits"] >= 1


def test_memo_warm_batch_is_fastest(quick_report):
    report, _ = quick_report
    fptas = report["fptas_batch"]
    assert fptas["memo_entries"] >= 1
    assert fptas["memo_warm_solves_per_s"] > fptas["solves_per_s"]


def test_parallel_regression_flag_matches_timings(quick_report):
    report, _ = quick_report
    sweep = report["policy_sweep"]
    assert sweep["cpu_count"] == report["cpu_count"]
    assert sweep["parallel_regression"] == (
        sweep["parallel_s"] > sweep["serial_s"] and sweep["cpu_count"] > 1
    )


@pytest.mark.parametrize("cpu_count, flagged", [(1, False), (4, True)])
def test_slower_pool_is_a_regression_only_with_cores(monkeypatch, cpu_count, flagged):
    """A pool that loses to the serial loop is a regression on a
    multi-core host; on one core it is the expected outcome."""
    day = SimpleNamespace(user_id="u1")
    timings = iter([1.0, 2.0])  # serial, then the slower pool
    monkeypatch.setattr(bench, "_sweep_tasks", lambda *a: [SimpleNamespace(days=(day,))])
    monkeypatch.setattr(
        bench, "run_policy_tasks", lambda tasks, jobs: [[SimpleNamespace(energy_j=1.0)]]
    )
    monkeypatch.setattr(bench, "execute_policy_tasks", lambda tasks, jobs: [[None]])
    monkeypatch.setattr(bench, "_timed", lambda fn: (next(timings), fn()))
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpu_count)
    sweep = bench.bench_policy_sweep(jobs=2)
    assert sweep["cpu_count"] == cpu_count
    assert sweep["parallel_s"] > sweep["serial_s"]
    assert sweep["parallel_regression"] is flagged


def test_compare_reports_flags_regressions(quick_report):
    report, _ = quick_report
    # The live monitor overhead is one noisy reading with an absolute
    # bound of its own (checked below); pinned inside it, this test
    # checks only the baseline-relative gates.
    steady = json.loads(json.dumps(report))
    steady["monitor"]["overhead_frac"] = 0.05
    assert bench.compare_reports(steady, steady) == []
    inflated = json.loads(json.dumps(steady))
    inflated["fptas_batch"]["solves_per_s"] = report["fptas_batch"]["solves_per_s"] * 3
    inflated["cohort_generation"]["warm_s"] = report["cohort_generation"]["warm_s"] / 3
    failures = bench.compare_reports(steady, inflated)
    assert len(failures) == 2
    assert any("solves_per_s" in f for f in failures)
    assert any("warm_s" in f for f in failures)


@pytest.mark.parametrize("quick, bound", [(True, 0.25), (False, 0.10)], ids=["quick", "full"])
def test_compare_reports_bounds_monitor_overhead(quick_report, quick, bound):
    """The monitor may cost at most 25% of stream throughput in a quick
    report and 10% in a full one, whatever the baseline says."""
    report, _ = quick_report
    fresh = json.loads(json.dumps(report))
    fresh["quick"] = quick
    for overhead in (bound - 0.01, bound, bound + 0.01):
        fresh["monitor"]["overhead_frac"] = overhead
        failures = bench.compare_reports(fresh, fresh)
        if overhead > bound:
            assert failures == [
                f"monitor.overhead_frac exceeds the {bound:.0%} stream-path "
                f"budget: {overhead:.3f}"
            ]
        else:
            assert failures == []


def test_shard_recovery_points_grow_with_wal_length(quick_report):
    report, _ = quick_report
    shards = report["shard_recovery"]
    points = shards["recovery_points"]
    assert len(points) == 3
    counts = [p["wal_records"] for p in points]
    assert counts == sorted(counts)
    assert counts[-1] == shards["wal_records"]
    assert all(p["recovery_s"] > 0 for p in points)
    assert shards["durable_events_per_s"] > 0


def test_compare_tolerates_baselines_without_shard_section(quick_report):
    report, _ = quick_report
    old = json.loads(json.dumps(report))
    del old["shard_recovery"]
    del old["stream"]
    assert bench.compare_reports(report, old) == []


def test_sweep_is_deterministic(quick_report):
    report, _ = quick_report
    assert report["policy_sweep"]["identical_results"] is True
    assert report["policy_sweep"]["jobs"] == 2


def test_no_report_written_when_path_is_none():
    report = bench.bench_fptas_batch(n_solves=2, n_items=20)
    assert report["n_solves"] == 2
    assert report["total_profit"] > 0


@pytest.fixture(scope="module")
def scale_section():
    # Tiny cohort: the structure and invariants are what's under test
    # here; real scale numbers come from `python -m repro fleet-scale`.
    return bench.bench_fleet_scale(n_users=4, n_days=8, reference_divisor=2)


def test_fleet_scale_section_schema(scale_section):
    section = scale_section
    assert section["spec_source"] == "iterator"
    assert section["n_users"] == 4
    assert section["reference_users"] == 2
    assert section["user_days"] == 4 * 8
    assert section["summaries_spilled"] == 4
    assert section["events"] > 0
    assert section["events_per_s"] > 0
    assert section["user_days_per_s"] > 0
    assert section["peak_rss_bytes"] > 0
    assert section["rss_flatness_ratio"] >= 1.0  # ru_maxrss is monotonic


def test_fleet_scale_compare_clause(scale_section):
    mine = {"fleet_scale": scale_section}
    assert bench.compare_reports(mine, mine) == []
    impossible = json.loads(json.dumps(mine))
    impossible["fleet_scale"]["events_per_s"] = 1e12
    failures = bench.compare_reports(mine, impossible)
    assert any("fleet_scale" in f for f in failures)
    # Baselines predating the section are record-only, never a failure.
    assert bench.compare_reports(mine, {"schema": 1}) == []


def test_fleet_scale_validates_cohort_floor():
    with pytest.raises(ValueError, match="reference_divisor"):
        bench.bench_fleet_scale(n_users=3, reference_divisor=10)


def test_fleet_scale_cli_merges_into_existing_report(tmp_path, capsys):
    out = tmp_path / "perf.json"
    out.write_text(json.dumps({"schema": 1, "stream": {"events": 1}}))
    code = bench.fleet_scale_main(
        ["--quick", "--users", "4", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["stream"] == {"events": 1}  # merged, not clobbered
    assert report["fleet_scale"]["n_users"] == 4
    stdout = capsys.readouterr().out
    assert "user-days from an iterator source" in stdout
    assert "merged into" in stdout


def test_cli_check_mode(tmp_path, capsys):
    out = tmp_path / "perf.json"
    code = bench.main(["--quick", "--jobs", "2", "--check", "--out", str(out)])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "cohort generation" in stdout
    assert "policy sweep" in stdout
    assert "replay kernel" in stdout


def test_cli_compare_mode(tmp_path, capsys, quick_report, monkeypatch):
    report, _ = quick_report
    # ``main`` compares the fixture's report with itself, so no timing
    # enters the verdict; real timings are gated by test_cli_check_mode
    # and the perf smoke's --compare against BENCH_perf.json.
    monkeypatch.setattr(bench, "run_bench", lambda out, *, jobs, quick: report)
    out = tmp_path / "perf.json"
    # Self-comparison can never regress >2x.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(report))
    code = bench.main(
        ["--quick", "--jobs", "2", "--out", str(out), "--compare", str(baseline)]
    )
    assert code == 0
    assert "no >2x regressions" in capsys.readouterr().out
    # An impossible baseline must fail the comparison.
    impossible = json.loads(json.dumps(report))
    impossible["fptas_batch"]["solves_per_s"] = 1e12
    baseline.write_text(json.dumps(impossible))
    code = bench.main(
        ["--quick", "--jobs", "2", "--out", str(out), "--compare", str(baseline)]
    )
    assert code == 1
    assert "PERF CHECK FAILED" in capsys.readouterr().err
