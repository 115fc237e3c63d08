"""Tests for the profit model and MKP instance construction."""

from __future__ import annotations

import pytest

from repro._util import HOUR
from repro.core import (
    PlannedActivity,
    ProfitParams,
    adjacent_slots,
    build_instance,
    expected_activities,
    placement_profit,
    slot_capacity_bytes,
)
from repro.habits import HabitModel
from repro.habits.prediction import Slot
from repro.radio import LinkModel, wcdma_model

from tests.habits.test_prediction import _repeating_trace


@pytest.fixture
def habit_model():
    return HabitModel.fit(_repeating_trace())


@pytest.fixture
def params():
    return ProfitParams(power=wcdma_model(), link=LinkModel(bandwidth_bps=1000.0))


class TestPlannedActivity:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannedActivity(hour=24, index=0, payload_bytes=1.0, duration_s=1.0, nominal_time=0.0)
        with pytest.raises(ValueError):
            PlannedActivity(hour=0, index=0, payload_bytes=1.0, duration_s=0.0, nominal_time=0.0)
        with pytest.raises(ValueError):
            PlannedActivity(hour=0, index=0, payload_bytes=1.0, duration_s=1.0, nominal_time=-1.0)


class TestExpectedActivities:
    def test_one_per_habitual_hour(self, habit_model):
        planned = expected_activities(habit_model, weekend=False)
        hours = {a.hour for a in planned}
        assert 3 in hours  # the nightly sync

    def test_counts_round(self, habit_model):
        planned = [a for a in expected_activities(habit_model, weekend=False) if a.hour == 3]
        assert len(planned) == 1
        assert planned[0].payload_bytes == pytest.approx(1100.0)
        assert planned[0].duration_s == pytest.approx(4.0)

    def test_min_expected_count_filter(self, habit_model):
        none = expected_activities(habit_model, weekend=False, min_expected_count=2.0)
        assert all(a.hour != 3 for a in none)

    def test_nominal_times_spread(self):
        # Synthetic: an hour with expected count 3 spreads pseudo-items.
        import numpy as np

        from repro.habits.prediction import HabitModel as HM

        model = HM(
            user_id="x",
            n_weekdays=1,
            n_weekends=0,
            weekday_user_probs=np.zeros(24),
            weekend_user_probs=np.zeros(24),
            weekday_net_counts=np.eye(1, 24, 5)[0] * 3.0,
            weekend_net_counts=np.zeros(24),
            weekday_net_bytes=np.eye(1, 24, 5)[0] * 3000.0,
            weekend_net_bytes=np.zeros(24),
            weekday_net_seconds=np.eye(1, 24, 5)[0] * 12.0,
            weekend_net_seconds=np.zeros(24),
            weekday_screen_seconds=np.zeros(24),
            weekend_screen_seconds=np.zeros(24),
        )
        planned = expected_activities(model, weekend=False)
        assert len(planned) == 3
        times = [a.nominal_time for a in planned]
        assert all(5 * HOUR < t < 6 * HOUR for t in times)
        assert times == sorted(times)


class TestSlotCapacity:
    def test_capacity_from_screen_seconds(self, habit_model, params):
        slot = Slot(9 * HOUR, 10 * HOUR)
        capacity = slot_capacity_bytes(habit_model, slot, params.link, weekend=False)
        # 60 screen-seconds expected in hour 9, at 1000 B/s.
        assert capacity == pytest.approx(60_000.0)

    def test_partial_hour_prorated(self, habit_model, params):
        slot = Slot(9 * HOUR, 9.5 * HOUR)
        capacity = slot_capacity_bytes(habit_model, slot, params.link, weekend=False)
        assert capacity == pytest.approx(30_000.0)


class TestAdjacentSlots:
    def test_between_two_slots(self):
        slots = (Slot(0.0, HOUR), Slot(5 * HOUR, 6 * HOUR))
        prev_idx, next_idx = adjacent_slots(slots, 3 * HOUR)
        assert (prev_idx, next_idx) == (0, 1)

    def test_before_all(self):
        slots = (Slot(5 * HOUR, 6 * HOUR),)
        assert adjacent_slots(slots, HOUR) == (None, 0)

    def test_after_all(self):
        slots = (Slot(5 * HOUR, 6 * HOUR),)
        assert adjacent_slots(slots, 10 * HOUR) == (0, None)

    def test_inside_slot(self):
        slots = (Slot(5 * HOUR, 6 * HOUR),)
        assert adjacent_slots(slots, 5.5 * HOUR) == (0, 0)


class TestPlacementProfit:
    def test_inside_slot_no_penalty(self, habit_model, params):
        activity = PlannedActivity(9, 0, 1000.0, 4.0, 9 * HOUR + 600.0)
        slot = Slot(9 * HOUR, 10 * HOUR)
        profit = placement_profit(activity, slot, habit_model, params, weekend=False)
        assert profit == pytest.approx(params.power.saved_energy_j(4.0))

    def test_penalty_free_when_no_usage_mass(self, habit_model, params):
        """Deferring across hours the user never touches costs nothing —
        the Eq. (4) integral is zero."""
        activity = PlannedActivity(3, 0, 1000.0, 4.0, 3 * HOUR + 1800.0)
        near = Slot(9 * HOUR, 10 * HOUR)
        profit = placement_profit(activity, near, habit_model, params, weekend=False)
        assert profit == pytest.approx(params.power.saved_energy_j(4.0))

    def test_deferral_across_usage_mass_penalized(self, habit_model, params):
        """Deferring past a probability-1 usage hour pays Eq. (4)."""
        activity = PlannedActivity(3, 0, 1000.0, 4.0, 3 * HOUR + 1800.0)
        far = Slot(20 * HOUR, 21 * HOUR)  # interval crosses hour 9 (Pr=1)
        profit = placement_profit(activity, far, habit_model, params, weekend=False)
        assert profit < params.power.saved_energy_j(4.0)

    def test_larger_et_means_lower_profit(self, habit_model):
        activity = PlannedActivity(3, 0, 1000.0, 4.0, 3 * HOUR + 1800.0)
        slot = Slot(20 * HOUR, 21 * HOUR)
        small = ProfitParams(power=wcdma_model(), et_w=1e-7)
        large = ProfitParams(power=wcdma_model(), et_w=1e-4)
        assert placement_profit(
            activity, slot, habit_model, small, weekend=False
        ) > placement_profit(activity, slot, habit_model, large, weekend=False)

    def test_prefetch_direction_symmetric(self, habit_model, params):
        """A slot before the activity is priced over the same interval."""
        activity = PlannedActivity(12, 0, 1000.0, 4.0, 12 * HOUR + 1800.0)
        before = Slot(9 * HOUR, 10 * HOUR)
        profit = placement_profit(activity, before, habit_model, params, weekend=False)
        assert profit <= params.power.saved_energy_j(4.0)


class TestBuildInstance:
    def test_instance_structure(self, habit_model, params):
        prediction = habit_model.user_slots(weekend=False)
        instance = build_instance(habit_model, prediction, params, weekend=False)
        assert len(instance.slots) == len(prediction.slots)
        # The 3am sync lies outside U and should become an item (its ΔE
        # dwarfs any penalty at default e_t).
        assert len(instance.items) >= 1
        for item in instance.items:
            activity = instance.activity_info[item.item_id]
            assert not prediction.active_hours[activity.hour]

    def test_in_slot_expectations_excluded(self, habit_model, params):
        prediction = habit_model.user_slots(weekend=False)
        instance = build_instance(habit_model, prediction, params, weekend=False)
        planned_hours = {instance.activity_info[i.item_id].hour for i in instance.items}
        assert 9 not in planned_hours and 20 not in planned_hours

    def test_unprofitable_items_unplaced(self):
        # A trace whose deferral interval crosses occasional usage (hour 6
        # used 1 day in 6, below delta but nonzero) plus an enormous e_t
        # makes every placement of the 3am sync unprofitable.
        from repro.traces import AppUsage, ScreenSession, Trace
        from repro._util import DAY

        base = _repeating_trace()
        extra_t = 6 * HOUR + 50.0
        trace = Trace(
            user_id=base.user_id,
            n_days=base.n_days,
            start_weekday=base.start_weekday,
            screen_sessions=base.screen_sessions
            + [ScreenSession(extra_t, extra_t + 30.0)],
            usages=base.usages + [AppUsage(extra_t, "browser", 30.0)],
            activities=base.activities,
        )
        model = HabitModel.fit(trace)
        params = ProfitParams(power=wcdma_model(), et_w=10.0)
        from repro.habits import FixedDelta

        prediction = model.user_slots(weekend=False, strategy=FixedDelta(0.25))
        assert not prediction.active_hours[6]  # Pr=0.2, below delta=0.25
        instance = build_instance(model, prediction, params, weekend=False)
        planned_hours = {instance.activity_info[i.item_id].hour for i in instance.items}
        assert 3 not in planned_hours
        assert any(a.hour == 3 for a in instance.unplaced)
