"""MetricsRegistry: instruments, snapshots, merges, and the null twin."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    diff_snapshots,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            MetricsRegistry().inc("a", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.5)
        assert reg.gauge("g").value == 7.5

    def test_unwritten_gauge_not_snapshotted(self):
        reg = MetricsRegistry()
        reg.gauge("touched-not-written")
        assert reg.snapshot()["gauges"] == {}

    def test_histogram_buckets_and_sum(self):
        h = Histogram("h", (1.0, 10.0))
        for v in (0.5, 1.0, 2.0, 100.0):
            h.observe(v)
        # upper edges are inclusive: 1.0 lands in the first bucket
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(103.5)

    def test_histogram_percentiles(self):
        h = Histogram("h", (1.0, 10.0, 100.0))
        for _ in range(9):
            h.observe(0.5)
        h.observe(50.0)
        assert h.percentile(0.5) == 1.0
        assert h.percentile(1.0) == 100.0
        h.observe(1e9)  # overflow bucket
        assert h.percentile(1.0) == float("inf")

    def test_histogram_percentile_validates_q(self):
        with pytest.raises(ValueError, match="q must be"):
            Histogram("h").percentile(1.5)

    def test_histogram_empty_percentile(self):
        assert Histogram("h").percentile(0.9) == 0.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="needs >= 1"):
            Histogram("h", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (1.0, 1.0))

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError, match="already exists"):
            reg.histogram("h", (1.0, 3.0))
        # same bounds (or unspecified) is fine
        reg.histogram("h", (1.0, 2.0))
        reg.histogram("h")

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestSnapshotMerge:
    def test_snapshot_roundtrip_via_merge(self):
        a = MetricsRegistry()
        a.inc("c", 3)
        a.set_gauge("g", 2.0)
        a.observe("h", 0.5, (1.0, 10.0))
        b = MetricsRegistry()
        b.merge_snapshot(a.snapshot())
        assert b.snapshot() == a.snapshot()

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.inc("c", n)
            reg.observe("h", float(n), (1.0, 10.0))
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 7
        assert a.histogram("h").count == 2
        assert a.histogram("h").sum == pytest.approx(7.0)

    def test_merge_gauge_takes_incoming(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.merge_snapshot(b.snapshot())
        assert a.gauge("g").value == 9.0

    def test_merge_order_independent_for_sums(self):
        """Integer micro-unit sums: merge order cannot change the total."""
        values = [0.1, 0.2, 0.3, 1e-6, 123456.789]
        parts = []
        for v in values:
            r = MetricsRegistry()
            r.observe("h", v)
            parts.append(r.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for p in parts:
            fwd.merge_snapshot(p)
        for p in reversed(parts):
            rev.merge_snapshot(p)
        assert fwd.histogram("h").sum_micro == rev.histogram("h").sum_micro

    def test_merge_rejects_differing_bounds(self):
        a = MetricsRegistry()
        a.observe("h", 1.0, (1.0, 2.0))
        b = MetricsRegistry()
        b.observe("h", 1.0, (1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_diff_snapshots(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.observe("h", 0.5, (1.0,))
        before = reg.snapshot()
        reg.inc("a", 3)
        reg.inc("b")
        reg.set_gauge("g", 4.0)
        reg.observe("h", 2.0, (1.0,))
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["counters"] == {"a": 3, "b": 1}
        assert delta["gauges"] == {"g": 4.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["counts"] == [0, 1]

    def test_diff_snapshots_drops_unchanged(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        delta = diff_snapshots(snap, snap)
        assert delta["counters"] == {} and delta["histograms"] == {}


class TestNullRegistry:
    def test_null_registry_has_no_side_effects(self):
        reg = NullRegistry()
        assert reg.enabled is False
        reg.inc("a", 5)
        reg.set_gauge("g", 1.0)
        reg.observe("h", 2.0)
        reg.counter("a").inc()
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(4.0)
        reg.merge_snapshot({"counters": {"x": 1}})
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_registry_is_a_registry(self):
        # call sites hold the base type; the null twin must substitute
        assert isinstance(NullRegistry(), MetricsRegistry)
