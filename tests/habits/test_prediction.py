"""Tests for the HabitModel and slot prediction (Eqs. (2)-(4))."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import DAY, HOUR, HOURS_PER_DAY
from repro.habits import FixedDelta, HabitModel, ImpactBasedDelta, prediction_accuracy
from repro.habits.prediction import Slot, SlotPrediction, _merge_hours
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace


def _repeating_trace(n_days=6, hours=(9, 20)):
    """A trace using the phone at the same hours every day."""
    sessions, usages, activities = [], [], []
    for day in range(n_days):
        for hour in hours:
            t = day * DAY + hour * HOUR + 100.0
            sessions.append(ScreenSession(t, t + 60.0))
            usages.append(AppUsage(t, "com.tencent.mm", 60.0))
            activities.append(
                NetworkActivity(t + 5.0, "com.tencent.mm", 5000.0, 500.0, 20.0, True)
            )
        # One screen-off sync at 3am each day.
        activities.append(
            NetworkActivity(day * DAY + 3 * HOUR, "com.android.email", 1000.0, 100.0, 4.0, False)
        )
    return Trace(
        user_id="regular",
        n_days=n_days,
        start_weekday=0,
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )


class TestSlot:
    def test_valid(self):
        slot = Slot(3600.0, 7200.0)
        assert slot.duration == 3600.0
        assert slot.contains(3600.0) and not slot.contains(7200.0)

    def test_rejects_out_of_day(self):
        with pytest.raises(ValueError):
            Slot(-1.0, 100.0)
        with pytest.raises(ValueError):
            Slot(100.0, DAY + 1.0)


def any_covers(prediction: SlotPrediction, time_of_day) -> bool:
    """The slot test before it became a plain loop."""
    return any(s.contains(time_of_day) for s in prediction.slots)


#: Hour masks, the slots they merge into, and times of day that include
#: every slot boundary, as Python and numpy ints and floats.
hour_masks = st.lists(st.booleans(), min_size=HOURS_PER_DAY, max_size=HOURS_PER_DAY)
day_times = st.one_of(
    st.integers(-1, HOURS_PER_DAY + 1).map(lambda h: h * HOUR),
    st.floats(min_value=-HOUR, max_value=DAY + HOUR),
    st.integers(-3600, int(DAY) + 3600),
    st.integers(-3600, int(DAY) + 3600).map(np.int64),
    st.floats(min_value=-HOUR, max_value=DAY + HOUR).map(np.float64),
)


def slot_prediction(mask) -> SlotPrediction:
    return SlotPrediction(
        hour_probs=np.zeros(HOURS_PER_DAY), delta=0.2, slots=_merge_hours(np.array(mask))
    )


class TestCovers:
    @given(hour_masks, day_times)
    @settings(max_examples=500, deadline=None)
    def test_equals_any_over_the_slots(self, mask, time_of_day):
        prediction = slot_prediction(mask)
        assert prediction.covers(time_of_day) is any_covers(prediction, time_of_day)

    def test_half_open_slots(self):
        prediction = slot_prediction([h in (3, 4, 9) for h in range(HOURS_PER_DAY)])
        assert prediction.covers(3 * HOUR) and prediction.covers(5 * HOUR - 1e-9)
        assert not prediction.covers(5 * HOUR) and not prediction.covers(3 * HOUR - 1e-9)
        assert prediction.covers(9 * HOUR) and not prediction.covers(10 * HOUR)


class TestMergeHours:
    def test_consecutive_hours_merge(self):
        active = np.zeros(24, dtype=bool)
        active[[9, 10, 11, 20]] = True
        slots = _merge_hours(active)
        assert [(s.start / HOUR, s.end / HOUR) for s in slots] == [(9, 12), (20, 21)]

    def test_trailing_run_reaches_midnight(self):
        active = np.zeros(24, dtype=bool)
        active[22:] = True
        slots = _merge_hours(active)
        assert slots[-1].end == DAY

    def test_empty(self):
        assert _merge_hours(np.zeros(24, dtype=bool)) == ()


class TestHabitModelFit:
    def test_user_probs_one_for_daily_hours(self):
        model = HabitModel.fit(_repeating_trace())
        probs = model.user_probs(weekend=False)
        assert probs[9] == 1.0 and probs[20] == 1.0
        assert probs[3] == 0.0

    def test_net_counts_at_sync_hour(self):
        model = HabitModel.fit(_repeating_trace())
        # Weekday rows: days 0-4 of a Monday-start trace.
        assert model.net_counts(weekend=False)[3] == pytest.approx(1.0)
        assert model.net_counts(weekend=False)[12] == 0.0

    def test_net_bytes_and_seconds(self):
        model = HabitModel.fit(_repeating_trace())
        assert model.net_bytes(weekend=False)[3] == pytest.approx(1100.0)
        assert model.net_seconds(weekend=False)[3] == pytest.approx(4.0)

    def test_screen_seconds(self):
        model = HabitModel.fit(_repeating_trace())
        assert model.screen_seconds(weekend=False)[9] == pytest.approx(60.0)

    def test_weekend_split(self):
        model = HabitModel.fit(_repeating_trace(n_days=7))
        # Monday-start, 7 days: 5 weekdays + 2 weekend days, same habit.
        assert model.n_weekdays == 5 and model.n_weekends == 2
        assert model.user_probs(weekend=True)[9] == 1.0

    def test_special_apps_fitted(self):
        model = HabitModel.fit(_repeating_trace())
        assert model.special_apps.is_special("com.tencent.mm")
        assert not model.special_apps.is_special("com.android.email")


class TestUserSlots:
    def test_default_strategy_paper_deltas(self):
        model = HabitModel.fit(_repeating_trace())
        weekday = model.user_slots(weekend=False)
        assert weekday.delta == 0.2
        weekend = model.user_slots(weekend=True)
        assert weekend.delta == 0.1

    def test_slots_cover_habit_hours(self):
        model = HabitModel.fit(_repeating_trace())
        prediction = model.user_slots(weekend=False)
        assert prediction.covers(9 * HOUR + 100.0)
        assert prediction.covers(20 * HOUR)
        assert not prediction.covers(3 * HOUR)

    def test_active_hours_mask(self):
        model = HabitModel.fit(_repeating_trace())
        mask = model.user_slots(weekend=False).active_hours
        assert mask[9] and mask[20] and not mask[3]

    def test_higher_delta_fewer_slots(self, history):
        model = HabitModel.fit(history)
        low = model.user_slots(weekend=False, strategy=FixedDelta(0.05))
        high = model.user_slots(weekend=False, strategy=FixedDelta(0.8))
        assert low.active_hours.sum() >= high.active_hours.sum()

    def test_impact_based_strategy_resolves(self, history):
        model = HabitModel.fit(history)
        prediction = model.user_slots(
            weekend=False, strategy=ImpactBasedDelta(interrupt_budget=0.05)
        )
        assert 0.0 <= prediction.delta <= 1.0

    def test_zero_delta_means_any_usage(self):
        model = HabitModel.fit(_repeating_trace())
        prediction = model.user_slots(weekend=False, strategy=FixedDelta(0.0))
        assert prediction.active_hours.sum() == 2  # only hours ever used


_FITTED = HabitModel.fit(_repeating_trace())

#: Seconds of the day, hour boundaries and their float neighbours included.
_SECOND_OF_DAY = st.one_of(
    st.floats(0.0, DAY),
    st.integers(0, HOURS_PER_DAY).map(lambda h: h * HOUR),
    st.integers(0, HOURS_PER_DAY).map(
        lambda h: min(DAY, max(0.0, math.nextafter(h * HOUR, 0.0)))
    ),
    st.integers(0, HOURS_PER_DAY).map(lambda h: min(DAY, math.nextafter(h * HOUR, DAY))),
)


def _every_hour_integral(model, t0, t1, *, weekend):
    """The oracle: visit all 24 hours, skipping those without overlap."""
    probs = model.user_probs(weekend=weekend)
    total = 0.0
    for hour in range(HOURS_PER_DAY):
        lo, hi = hour * HOUR, (hour + 1) * HOUR
        overlap = min(t1, hi) - max(t0, lo)
        if overlap > 0:
            total += probs[hour] * overlap
    return total


class TestUsageProbIntegral:
    def test_whole_day(self):
        model = HabitModel.fit(_repeating_trace())
        total = model.usage_prob_integral(0.0, DAY, weekend=False)
        assert total == pytest.approx(2 * HOUR)  # two hours at prob 1

    def test_partial_hour(self):
        model = HabitModel.fit(_repeating_trace())
        half = model.usage_prob_integral(9 * HOUR, 9.5 * HOUR, weekend=False)
        assert half == pytest.approx(0.5 * HOUR)

    def test_zero_span(self):
        model = HabitModel.fit(_repeating_trace())
        assert model.usage_prob_integral(100.0, 100.0, weekend=False) == 0.0

    def test_rejects_inverted(self):
        model = HabitModel.fit(_repeating_trace())
        with pytest.raises(ValueError):
            model.usage_prob_integral(200.0, 100.0, weekend=False)

    @settings(max_examples=400, deadline=None)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=HOURS_PER_DAY, max_size=HOURS_PER_DAY),
        ends=st.tuples(_SECOND_OF_DAY, _SECOND_OF_DAY),
        empty=st.booleans(),
        weekend=st.booleans(),
    )
    @example(probs=[0.5] * HOURS_PER_DAY, ends=(0.0, DAY), empty=False, weekend=False)
    @example(probs=[0.5] * HOURS_PER_DAY, ends=(DAY, DAY), empty=False, weekend=True)
    @example(probs=[0.5] * HOURS_PER_DAY, ends=(9 * HOUR, 10 * HOUR), empty=False, weekend=False)
    def test_equals_the_every_hour_loop(self, probs, ends, empty, weekend):
        t0, t1 = sorted(ends)
        if empty:
            t1 = t0
        model = dataclasses.replace(
            _FITTED, weekday_user_probs=np.array(probs), weekend_user_probs=np.array(probs[::-1])
        )
        integral = model.usage_prob_integral(t0, t1, weekend=weekend)
        assert integral == _every_hour_integral(model, t0, t1, weekend=weekend)


class TestPredictionAccuracy:
    def test_perfect_on_habitual_day(self):
        trace = _repeating_trace()
        model = HabitModel.fit(trace)
        prediction = model.user_slots(weekend=False)
        assert prediction_accuracy(prediction, trace.day_view(0)) == 1.0

    def test_zero_when_usage_outside(self):
        trace = _repeating_trace()
        model = HabitModel.fit(trace)
        prediction = model.user_slots(weekend=False)
        odd_day = Trace(
            user_id="odd",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(5 * HOUR, 5 * HOUR + 30.0)],
            usages=[AppUsage(5 * HOUR, "browser", 30.0)],
        )
        assert prediction_accuracy(prediction, odd_day) == 0.0

    def test_empty_day_is_perfect(self):
        trace = _repeating_trace()
        model = HabitModel.fit(trace)
        prediction = model.user_slots(weekend=False)
        empty = Trace(user_id="empty", n_days=1, start_weekday=0)
        assert prediction_accuracy(prediction, empty) == 1.0

    def test_requires_single_day(self, two_day_trace):
        model = HabitModel.fit(_repeating_trace())
        prediction = model.user_slots(weekend=False)
        with pytest.raises(ValueError, match="single-day"):
            prediction_accuracy(prediction, two_day_trace)
