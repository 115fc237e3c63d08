"""Incremental habit-model updates: one closed day at a time.

The phone keeps monitoring after training; :class:`OnlineHabitModel`
refreshes the model as each day closes, and after every closed day the
model is the fit of that prefix, bit for bit.
"""

from __future__ import annotations

import pytest

from repro._util import DAY, HOUR
from repro.evaluation import split_history
from repro.habits import HabitModel
from repro.stream import OnlineHabitModel, stream_trace
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace

from tests.habits.habit_oracle import habit_models_equal
from tests.habits.test_prediction import _repeating_trace


def _fold_day_by_day(trace: Trace):
    """Fold a trace in, yielding ``(n_closed_days, model)`` after each close.

    Records of a day not yet closed stay pending, so folding them all
    first changes no intermediate model.
    """
    online = OnlineHabitModel(trace.user_id, start_weekday=trace.start_weekday)
    online.observe_many(stream_trace(trace))
    for day in range(trace.n_days):
        online.close_day(day)
        yield day + 1, online.to_model()


def _fitted_online(trace: Trace) -> OnlineHabitModel:
    online = OnlineHabitModel(trace.user_id, start_weekday=trace.start_weekday)
    online.observe_many(stream_trace(trace))
    online.close_through(trace.n_days)
    return online


def _use_new_hour(online: OnlineHabitModel, day: int) -> None:
    """Fold and close ``day``: one session at a brand-new hour (6am)."""
    t = day * DAY + 6 * HOUR
    online.observe(ScreenSession(t, t + 60.0))
    online.observe(AppUsage(t, "com.tencent.mm", 60.0))
    online.close_day(day)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("n_days", [2, 5, 7])
    def test_matches_batch_fit(self, n_days):
        trace = _repeating_trace(n_days=n_days)
        for closed, model in _fold_day_by_day(trace):
            prefix = trace if closed == n_days else split_history(trace, closed)[0]
            assert habit_models_equal(model, HabitModel.fit(prefix))

    def test_weekend_rows_match_too(self):
        trace = _repeating_trace(7)
        *_, (_, model) = _fold_day_by_day(trace)
        full = HabitModel.fit(trace)
        assert model.n_weekends == full.n_weekends == 2
        assert (model.weekend_user_probs == full.weekend_user_probs).all()
        assert (model.weekend_net_counts == full.weekend_net_counts).all()

    def test_special_apps_preserved(self):
        trace = _repeating_trace(5)
        *_, (_, model) = _fold_day_by_day(trace)
        assert model.special_apps == HabitModel.fit(trace).special_apps

    def test_predictions_agree(self):
        trace = _repeating_trace(6)
        *_, (_, model) = _fold_day_by_day(trace)
        full = HabitModel.fit(trace)
        assert model.user_slots(weekend=False).slots == full.user_slots(weekend=False).slots

    def test_app_used_one_day_and_networked_the_next_is_special(self):
        trace = Trace(
            user_id="u",
            n_days=2,
            start_weekday=0,
            screen_sessions=[ScreenSession(HOUR, HOUR + 60.0)],
            usages=[AppUsage(HOUR, "chat", 60.0)],
            activities=[
                NetworkActivity(DAY + 3 * HOUR, "chat", 500.0, 50.0, 2.0, False)
            ],
        )
        (_, day0), (_, day1) = _fold_day_by_day(trace)
        assert "chat" in day0.special_apps.seen
        assert not day0.special_apps.is_special("chat")
        assert day1.special_apps.special == {"chat"}
        assert habit_models_equal(day1, HabitModel.fit(trace))


class TestIncrementalSemantics:
    def test_does_not_mutate_original(self):
        online = _fitted_online(_repeating_trace(3))
        model = online.to_model()
        before = model.weekday_user_probs.copy()
        _use_new_hour(online, 3)
        assert online.to_model().weekday_user_probs[6] == 0.25
        assert (model.weekday_user_probs == before).all()
        assert model.n_weekdays == 3

    def test_new_habit_hour_appears_gradually(self):
        online = _fitted_online(_repeating_trace(5))
        model = online.to_model()
        online.close_through(7)  # days 5-6: an empty weekend
        _use_new_hour(online, 7)  # a Monday
        updated = online.to_model()
        assert model.weekday_user_probs[6] == 0.0
        assert 0.0 < updated.weekday_user_probs[6] < 0.5

    def test_volunteer_incremental_pipeline(self, volunteer):
        """Online operation: fold held-out days in one at a time."""
        online = OnlineHabitModel(
            volunteer.user_id, start_weekday=volunteer.start_weekday
        )
        online.observe_many(stream_trace(volunteer))
        online.close_through(10)
        assert habit_models_equal(
            online.to_model(), HabitModel.fit(split_history(volunteer, 10)[0])
        )
        online.close_through(12)
        model = online.to_model()
        assert model.n_weekdays + model.n_weekends == 12
        assert model.user_slots(weekend=False).slots  # still predicts sensibly
