"""Tests for the real-time adjustment layer (gap servicing)."""

from __future__ import annotations

import pytest

from repro.core import GapServicer
from repro.traces import NetworkActivity


def _pending(t, dur=4.0):
    return NetworkActivity(t, "app", 1000.0, 100.0, dur, False)


class TestGapServicer:
    def test_idle_gap_only_wakes(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 300.0, [])
        assert result.executed == []
        assert result.serviced == 0
        # Exponential: wakes at 30, 91, 212.
        assert len(result.wake_windows) == 3

    def test_pending_serviced_at_first_wake_after_arrival(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 300.0, [_pending(10.0)])
        assert result.serviced == 1
        assert result.executed[0].time == pytest.approx(30.0)

    def test_service_resets_backoff(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 400.0, [_pending(10.0)])
        # After servicing at t=30 (4 s transfer + pack gap), the scheme
        # restarts at 30 s: next wakes near 64, then ~125, ~246.
        later = [lo for lo, _ in result.wake_windows]
        assert later[0] == pytest.approx(30.0 + 4.0 + 0.2 + 30.0)

    def test_multiple_pending_packed(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 300.0, [_pending(5.0), _pending(6.0)])
        assert result.serviced == 2
        a, b = sorted(result.executed, key=lambda x: x.time)
        assert b.time == pytest.approx(a.time + a.duration + 0.2)

    def test_carried_to_gap_end(self):
        # Pending arrives too late for any wake: it rides the gap end.
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 60.0, [_pending(55.0)])
        assert result.carried_to_end == 1
        assert result.executed[0].time == pytest.approx(60.0)

    def test_rejects_out_of_gap_pending(self):
        servicer = GapServicer()
        with pytest.raises(ValueError, match="outside gap"):
            servicer.service(0.0, 100.0, [_pending(500.0)])

    def test_rejects_inverted_gap(self):
        with pytest.raises(ValueError):
            GapServicer().service(100.0, 0.0, [])

    def test_short_gap_no_wakes(self):
        result = GapServicer(initial_s=30.0).service(0.0, 20.0, [])
        assert result.wake_windows == []

    def test_wake_window_length(self):
        servicer = GapServicer(initial_s=30.0, wake_window_s=2.0)
        result = servicer.service(0.0, 100.0, [])
        lo, hi = result.wake_windows[0]
        assert hi - lo == pytest.approx(2.0)

    def test_zero_length_gap(self):
        result = GapServicer(initial_s=30.0).service(50.0, 50.0, [])
        assert result.executed == []
        assert result.wake_windows == []
        assert result.serviced == 0

    def test_activity_exactly_at_gap_end_rejected(self):
        # The gap interval is half-open: an arrival at gap_end belongs
        # to the next screen session, not to this gap.
        servicer = GapServicer(initial_s=30.0)
        with pytest.raises(ValueError, match="outside gap"):
            servicer.service(0.0, 100.0, [_pending(100.0)])

    def test_activity_exactly_at_gap_start(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 300.0, [_pending(0.0)])
        assert result.serviced == 1
        assert result.executed[0].time == pytest.approx(30.0)

    def test_wake_exactly_on_gap_boundary(self):
        # initial_s equal to the gap length: the first wake would land
        # exactly on gap_end, where the screen is back on — no wake.
        result = GapServicer(initial_s=30.0).service(0.0, 30.0, [])
        assert result.wake_windows == []
        result = GapServicer(initial_s=30.0).service(0.0, 30.0 + 1e-6, [])
        assert len(result.wake_windows) == 1

    def test_backoff_resets_after_serviced_burst(self):
        servicer = GapServicer(initial_s=30.0)
        result = servicer.service(0.0, 2000.0, [_pending(10.0), _pending(400.0)])
        assert result.serviced == 2
        wakes = [lo for lo, _ in result.wake_windows]
        # First burst serviced at t=30; scheme restarts at 30 s intervals.
        first_after_burst = next(w for w in wakes if w > 30.0)
        assert first_after_burst == pytest.approx(30.0 + 4.0 + 0.2 + 30.0)
        # The second pending is serviced at the first wake after t=400,
        # and the interval right after it shrinks back to initial_s.
        second_service = sorted(result.executed, key=lambda a: a.time)[1].time
        first_after_second = next(w for w in wakes if w > second_service)
        assert first_after_second == pytest.approx(
            second_service + 4.0 + 0.2 + 30.0
        )
