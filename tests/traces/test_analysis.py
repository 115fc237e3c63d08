"""Tests for the Section III trace profiling analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import (
    active_app_share,
    app_intensity,
    cohort_traffic_split,
    cohort_utilization,
    rate_cdf,
    rate_percentile,
    rate_values,
    screen_utilization,
    traffic_split,
)
from repro.traces.events import Trace


class TestTrafficSplit:
    def test_counts(self, tiny_trace):
        split = traffic_split(tiny_trace)
        assert split.on_count == 2 and split.off_count == 2
        assert split.off_fraction == pytest.approx(0.5)

    def test_bytes(self, tiny_trace):
        split = traffic_split(tiny_trace)
        assert split.on_bytes == pytest.approx(54000.0)
        assert split.off_bytes == pytest.approx(4300.0)

    def test_empty_trace(self):
        split = traffic_split(Trace(user_id="e", n_days=1, start_weekday=0))
        assert split.total_count == 0
        assert split.off_fraction == 0.0
        assert split.on_bytes == split.off_bytes == 0.0

    def test_cohort_average(self, cohort):
        splits, avg = cohort_traffic_split(cohort)
        assert len(splits) == 8
        assert avg == pytest.approx(np.mean([s.off_fraction for s in splits]))

    def test_cohort_empty(self):
        assert cohort_traffic_split([]) == ([], 0.0)


class TestRates:
    def test_rate_values_sorted_and_filtered(self, tiny_trace):
        on = rate_values([tiny_trace], screen_on=True)
        off = rate_values([tiny_trace], screen_on=False)
        assert on.size == 2 and off.size == 2
        assert np.all(np.diff(on) >= 0)

    def test_rate_cdf_monotone(self, cohort):
        grid, cdf = rate_cdf(cohort, screen_on=True)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] <= 1.0

    def test_rate_cdf_empty(self):
        grid, cdf = rate_cdf([], screen_on=True)
        assert np.allclose(cdf, 0.0)

    def test_percentile_empty(self):
        assert rate_percentile([], 0.9, screen_on=True) == 0.0

    def test_screen_off_slower_than_on(self, cohort):
        p_off = rate_percentile(cohort, 0.5, screen_on=False)
        p_on = rate_percentile(cohort, 0.5, screen_on=True)
        assert p_off < p_on


class TestScreenUtilization:
    def test_tiny_trace_values(self, tiny_trace):
        stats = screen_utilization(tiny_trace)
        # Sessions: 30 s + 60 s; utilized: 10 s + 20 s.
        assert stats.avg_session_s == pytest.approx(45.0)
        assert stats.avg_utilized_s == pytest.approx(15.0)
        assert stats.utilization_ratio == pytest.approx(1.0 / 3.0)

    def test_empty(self):
        stats = screen_utilization(Trace(user_id="e", n_days=1, start_weekday=0))
        assert stats.avg_session_s == 0.0
        assert stats.utilization_ratio == 0.0

    def test_overlapping_transfers_not_double_counted(self):
        from repro.traces import NetworkActivity, ScreenSession

        trace = Trace(
            user_id="o",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(0.0, 100.0)],
            activities=[
                NetworkActivity(10.0, "a", 100.0, 0.0, 20.0, True),
                NetworkActivity(15.0, "b", 100.0, 0.0, 20.0, True),
            ],
        )
        stats = screen_utilization(trace)
        # Union of [10,30] and [15,35] is 25 s, not 40 s.
        assert stats.avg_utilized_s == pytest.approx(25.0)

    def test_cohort(self, cohort):
        stats, avg = cohort_utilization(cohort)
        assert len(stats) == 8
        assert 0.0 < avg < 1.0


class TestAppAnalyses:
    def test_app_intensity_hours(self, tiny_trace):
        intensity = app_intensity(tiny_trace)
        assert intensity["com.tencent.mm"][0] == 1.0
        assert intensity["browser"][2] == 1.0

    def test_active_app_share_requires_both(self, tiny_trace):
        share = active_app_share(tiny_trace)
        # Only apps with usage AND network traffic qualify; email and
        # facebook have traffic but no usage.
        assert set(share) == {"com.tencent.mm", "browser"}
        assert sum(share.values()) == pytest.approx(1.0)

    def test_active_app_share_empty(self):
        assert active_app_share(Trace(user_id="e", n_days=1, start_weekday=0)) == {}

    def test_fig5_structure_on_generated(self, cohort):
        """User 3's profile: few active apps, one dominant."""
        share = active_app_share(cohort[2])
        assert 4 <= len(share) <= 10  # paper: 8 of 23
        top = max(share.values())
        assert top > 0.4  # paper: 0.59
