"""OnlineHabitModel: bit-exact parity with the matrix oracle."""

from __future__ import annotations

import json

import pytest

from repro._util import DAY, HOUR
from repro.evaluation import split_history
from repro.stream import OnlineHabitModel, event_time, stream_trace
from repro.traces import NetworkActivity, ScreenSession

from tests.habits.habit_oracle import habit_models_equal, oracle_fit, oracle_registry


def _streamed(trace, **kwargs) -> OnlineHabitModel:
    online = OnlineHabitModel(
        trace.user_id, start_weekday=trace.start_weekday, **kwargs
    )
    online.observe_many(stream_trace(trace))
    online.close_through(trace.n_days)
    return online


class TestBitExactParity:
    def test_matches_offline_fit(self, volunteers):
        for trace in volunteers:
            online = _streamed(trace)
            assert habit_models_equal(online.to_model(), oracle_fit(trace))

    def test_registry_matches(self, volunteer):
        online = _streamed(volunteer)
        assert online.registry() == oracle_registry(volunteer)

    def test_parity_survives_state_round_trip(self, volunteer):
        online = OnlineHabitModel(
            volunteer.user_id, start_weekday=volunteer.start_weekday
        )
        records = list(stream_trace(volunteer))
        cut = len(records) // 2
        online.observe_many(records[:cut])
        online.close_through(int(event_time(records[cut]) // DAY))
        restored = OnlineHabitModel.load_state(
            json.loads(json.dumps(online.state_dict()))
        )
        restored.observe_many(records[cut:])
        restored.close_through(volunteer.n_days)
        assert habit_models_equal(restored.to_model(), oracle_fit(volunteer))

    def test_state_round_trip_is_byte_identical(self, volunteer):
        online = _streamed(volunteer)
        payload = json.dumps(online.state_dict())
        restored = OnlineHabitModel.load_state(json.loads(payload))
        assert json.dumps(restored.state_dict()) == payload
        assert habit_models_equal(restored.to_model(), online.to_model())

    def test_causality_pending_days_excluded(self, volunteer):
        online = OnlineHabitModel(
            volunteer.user_id, start_weekday=volunteer.start_weekday
        )
        online.observe_many(stream_trace(volunteer))
        online.close_through(10)  # days 10.. remain pending
        assert online.n_weekdays + online.n_weekends == 10
        clipped = oracle_fit(split_history(volunteer, 10)[0])
        assert habit_models_equal(online.to_model(), clipped)


class TestDrift:
    def test_out_of_profile_day_alerts(self):
        online = OnlineHabitModel("drift", drift_threshold=0.3)
        # Five habitual weekdays: screen on during hours 8-9 only.
        for day in range(4):
            online.observe(ScreenSession(day * DAY + 8 * HOUR, day * DAY + 10 * HOUR))
            assert online.close_day(day) <= 0.3
        assert online.drift_alerts == 0
        # Day 4 (a weekday): screen on for 16 completely different hours.
        online.observe(ScreenSession(4 * DAY + 10 * HOUR, 4 * DAY + 24 * HOUR - 1.0))
        assert online.close_day(4) > 0.3
        assert online.drift_alerts == 1

    def test_first_day_never_alerts(self):
        online = OnlineHabitModel("fresh", drift_threshold=0.0)
        online.observe(ScreenSession(0.0, 12 * HOUR))
        assert online.close_day(0) == 0.0
        assert online.drift_alerts == 0


class TestLifecycle:
    def test_days_close_strictly_in_order(self):
        online = OnlineHabitModel("o")
        online.close_day(0)
        with pytest.raises(ValueError, match="in order"):
            online.close_day(2)

    def test_midnight_crossing_session_splits_across_days(self):
        online = OnlineHabitModel("m")
        online.observe(ScreenSession(DAY - 30.0, DAY + 30.0))
        online.close_day(0)
        day0 = online.to_model()
        assert day0.weekday_user_probs[23] == 1.0
        assert day0.weekday_screen_seconds[23] == 30.0
        online.close_day(1)
        day1 = online.to_model()
        assert day1.weekday_user_probs[0] == 0.5  # hour 0 used on day 1 only
        assert day1.weekday_screen_seconds[0] == 15.0

    def test_screen_on_activities_ignored_in_rows(self):
        online = OnlineHabitModel("s")
        online.observe(NetworkActivity(HOUR, "app", 100.0, 10.0, 2.0, True))
        online.observe(NetworkActivity(2 * HOUR, "app", 100.0, 10.0, 2.0, False))
        online.close_day(0)
        counts = online.to_model().weekday_net_counts
        assert counts[1] == 0.0 and counts[2] == 1.0
