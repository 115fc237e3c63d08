"""Stream ingestion: a trace's records as one chronological stream."""

from __future__ import annotations

from repro.stream import event_time, stream_trace
from repro.traces import AppUsage, NetworkActivity, ScreenSession


class TestEventTime:
    def test_session_keyed_on_start(self):
        assert event_time(ScreenSession(100.0, 200.0)) == 100.0

    def test_usage_and_activity_keyed_on_time(self):
        assert event_time(AppUsage(5.0, "a", 1.0)) == 5.0
        assert event_time(NetworkActivity(7.0, "a", 1.0, 1.0, 1.0, False)) == 7.0


class TestStreamTrace:
    def test_complete_and_chronological(self, volunteer):
        records = list(stream_trace(volunteer))
        n_expected = (
            len(volunteer.screen_sessions)
            + len(volunteer.usages)
            + len(volunteer.activities)
        )
        assert len(records) == n_expected
        times = [event_time(r) for r in records]
        assert times == sorted(times)

    def test_tie_break_prefers_sessions_then_usages(self, tiny_trace):
        # Session and usage both start at t=100; merge stability puts the
        # session (earlier source) first.
        records = list(stream_trace(tiny_trace))
        at_100 = [r for r in records if event_time(r) == 100.0]
        assert isinstance(at_100[0], ScreenSession)
        assert isinstance(at_100[1], AppUsage)

    def test_is_lazy(self, volunteer):
        stream = stream_trace(volunteer)
        assert not isinstance(stream, (list, tuple))
        first = next(stream)
        assert event_time(first) <= event_time(next(stream))
