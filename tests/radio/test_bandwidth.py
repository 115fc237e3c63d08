"""Tests for the link model and utilization statistics."""

from __future__ import annotations

import pytest

from repro._util import total_length
from repro.radio import DEFAULT_BANDWIDTH_BPS, LinkModel
from repro.radio.bandwidth import activity_digest, utilization_from_digest
from repro.traces import NetworkActivity


def utilization(activities, radio_on):
    """Utilization of ``activities`` over the ``radio_on`` intervals."""
    return utilization_from_digest(activity_digest(activities), total_length(radio_on))


class TestLinkModel:
    def test_default_bandwidth(self):
        assert LinkModel().bandwidth_bps == DEFAULT_BANDWIDTH_BPS

    def test_slot_capacity(self):
        link = LinkModel(bandwidth_bps=1000.0)
        assert link.slot_capacity_bytes(60.0) == 60_000.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bps=0.0)

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            LinkModel().slot_capacity_bytes(-1.0)


class TestUtilization:
    def _acts(self):
        return [
            NetworkActivity(0.0, "a", 8000.0, 2000.0, 10.0, True),
            NetworkActivity(100.0, "b", 4000.0, 1000.0, 5.0, True),
        ]

    def test_average_rates(self):
        stats = utilization(self._acts(), [(0.0, 50.0), (100.0, 150.0)])
        assert stats.avg_down_bps == pytest.approx(12000.0 / 100.0)
        assert stats.avg_up_bps == pytest.approx(3000.0 / 100.0)

    def test_peak_rates(self):
        stats = utilization(self._acts(), [(0.0, 200.0)])
        assert stats.peak_down_bps == pytest.approx(800.0)
        assert stats.peak_up_bps == pytest.approx(200.0)

    def test_less_radio_time_raises_utilization(self):
        acts = self._acts()
        wide = utilization(acts, [(0.0, 200.0)])
        tight = utilization(acts, [(0.0, 15.0)])
        assert tight.avg_down_bps > wide.avg_down_bps
        # Peak rates are channel properties; scheduling can't change them.
        assert tight.peak_down_bps == wide.peak_down_bps

    def test_empty(self):
        stats = utilization([], [])
        assert stats.avg_down_bps == 0.0
        assert stats.peak_up_bps == 0.0

