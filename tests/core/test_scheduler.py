"""Tests for the NetMaster scheduler and DayPlan runtime admission."""

from __future__ import annotations

import pytest

from repro._util import HOUR
from repro.core import NetMasterScheduler, ProfitParams
from repro.habits import HabitModel
from repro.radio import LinkModel, wcdma_model
from repro.traces import NetworkActivity
from repro.traces.events import PACK_GAP_S, pack_release

from tests.habits.test_prediction import _repeating_trace


@pytest.fixture
def scheduler():
    model = HabitModel.fit(_repeating_trace())
    params = ProfitParams(power=wcdma_model(), link=LinkModel(bandwidth_bps=1000.0))
    return NetMasterScheduler(habit=model, params=params, eps=0.1)


class TestPlanConstruction:
    def test_plan_builds(self, scheduler):
        plan = scheduler.plan(weekend=False)
        assert plan.weekend is False
        assert plan.prediction.delta == 0.2

    def test_night_sync_scheduled(self, scheduler):
        plan = scheduler.plan(weekend=False)
        assert 3 in plan.hour_slots
        slot_id = plan.hour_slots[3][0]
        slot = plan.instance.slot_info[slot_id]
        # Adjacent user-active slot: hour 9 or hour 20 of the day.
        assert slot.start in (9 * HOUR, 20 * HOUR)

    def test_eps_validation(self, scheduler):
        with pytest.raises(ValueError):
            NetMasterScheduler(habit=scheduler.habit, params=scheduler.params, eps=0.0)


class TestAdmission:
    def test_admit_consumes_capacity(self, scheduler):
        plan = scheduler.plan(weekend=False)
        slot_id = plan.hour_slots[3][0]
        before = plan.capacity_left[slot_id]
        admitted = plan.admit(3, 500.0)
        assert admitted == slot_id
        assert plan.capacity_left[slot_id] == pytest.approx(before - 500.0)

    def test_admit_unknown_hour(self, scheduler):
        plan = scheduler.plan(weekend=False)
        assert plan.admit(15, 100.0) is None

    def test_admit_over_capacity(self, scheduler):
        plan = scheduler.plan(weekend=False)
        assert plan.admit(3, 1e12) is None

    def test_admit_until_exhausted(self, scheduler):
        plan = scheduler.plan(weekend=False)
        slot_id = plan.hour_slots[3][0]
        payload = plan.capacity_left[slot_id] * 0.6
        assert plan.admit(3, payload) is not None
        assert plan.admit(3, payload) is None  # no slot can take a second

    def test_reset_restores(self, scheduler):
        plan = scheduler.plan(weekend=False)
        slot_id = plan.hour_slots[3][0]
        full = plan.capacity_left[slot_id]
        plan.admit(3, 500.0)
        plan.reset()
        assert plan.capacity_left[slot_id] == pytest.approx(full)


class TestExecutionTimes:
    """A slot's admitted transfers are packed from the slot start, keyed
    by slot id in the plan's own ``cursors``."""

    def test_packing_advances_cursor(self, scheduler):
        plan = scheduler.plan(weekend=False)
        slot_id = plan.hour_slots[3][0]
        start = plan.instance.slot_info[slot_id].start
        sync = NetworkActivity(3 * HOUR, "sync", 500.0, 0.0, 4.0, False)
        first = pack_release(plan.cursors, slot_id, start, sync, sync.duration)
        second = pack_release(plan.cursors, slot_id, start, sync, sync.duration)
        assert first.time == start
        assert second.time == first.end + PACK_GAP_S
        plan.reset()
        assert plan.cursors == {}

    def test_packed_transfers_stay_contiguous(self, scheduler):
        """Packed gaps are smaller than the DCH tail, so the whole batch
        rides one radio session."""
        assert PACK_GAP_S < wcdma_model().dch_tail_s
