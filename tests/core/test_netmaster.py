"""Integration tests for the NetMaster middleware facade."""

from __future__ import annotations

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import DAY, HOUR
from repro.core import NetMaster, NetMasterConfig
from repro.core.netmaster import _next_session_in_slot
from repro.habits import FixedDelta
from repro.radio import activities_energy, simulate, wcdma_model
from tests.habits.test_prediction import day_times, hour_masks, slot_prediction


def generator_next_session_in_slot(session_starts, time_s, prediction):
    """The search before it became a plain loop: the covering slot by a
    generator, then the next session start by bisection."""
    covering = next((s for s in prediction.slots if s.contains(time_s)), None)
    if covering is None:
        return None
    idx = bisect.bisect_left(session_starts, time_s)
    if idx < len(session_starts) and session_starts[idx] < covering.end:
        return idx
    return None


@given(
    hour_masks,
    st.lists(
        st.one_of(
            st.integers(0, 24).map(lambda h: h * HOUR),
            st.floats(min_value=0.0, max_value=DAY),
        ),
        max_size=10,
    ).map(sorted),
    day_times,
)
@settings(max_examples=500, deadline=None)
def test_next_session_in_slot_equals_the_generator_search(mask, session_starts, time_s):
    prediction = slot_prediction(mask)
    assert _next_session_in_slot(
        session_starts, time_s, prediction
    ) == generator_next_session_in_slot(session_starts, time_s, prediction)


@pytest.fixture(scope="module")
def trained(history):
    nm = NetMaster()
    nm.train(history)
    return nm


class TestLifecycle:
    def test_requires_training(self, test_day):
        nm = NetMaster()
        with pytest.raises(RuntimeError, match="train"):
            nm.execute_day(test_day)
        with pytest.raises(RuntimeError, match="train"):
            nm.plan_day(weekend=False)

    def test_train_populates_components(self, trained):
        assert trained.habit is not None
        assert trained.scheduler is not None
        assert trained.adjustment is not None

    def test_plan_day_fresh_each_call(self, trained):
        a = trained.plan_day(weekend=False)
        b = trained.plan_day(weekend=False)
        assert a is not b
        assert a.hour_slots == b.hour_slots

    def test_rejects_multiday_execution(self, trained, history):
        with pytest.raises(ValueError, match="single-day"):
            trained.execute_day(history)


class TestExecution:
    def test_payload_conserved(self, trained, test_day):
        execution = trained.execute_day(test_day)
        src = sum(a.total_bytes for a in test_day.activities)
        out = sum(a.total_bytes for a in execution.activities)
        assert out == pytest.approx(src)

    def test_activity_count_conserved(self, trained, test_day):
        execution = trained.execute_day(test_day)
        assert len(execution.activities) == len(test_day.activities)

    def test_tails_parallel_to_activities(self, trained, test_day):
        execution = trained.execute_day(test_day)
        assert len(execution.activity_tails) == len(execution.activities)
        assert all(t >= 0 for t in execution.activity_tails)

    def test_activities_sorted(self, trained, test_day):
        execution = trained.execute_day(test_day)
        times = [a.time for a in execution.activities]
        assert times == sorted(times)

    def test_dispatch_counts_add_up(self, trained, test_day):
        execution = trained.execute_day(test_day)
        screen_off = sum(1 for a in test_day.activities if not a.screen_on)
        handled = (
            execution.immediate
            + execution.deferred_to_slots
            + execution.duty_serviced
            + execution.carried_to_gap_end
        )
        assert handled == screen_off

    def test_saves_energy_vs_stock(self, trained, test_day):
        execution = trained.execute_day(test_day)
        model = wcdma_model()
        before = activities_energy(test_day.activities, model)
        after = simulate(
            [a.interval for a in execution.activities],
            model,
            window_tails=execution.activity_tails,
        )
        assert after.energy_j < 0.6 * before.energy_j

    def test_interrupts_below_one_percent(self, trained, test_day):
        execution = trained.execute_day(test_day)
        assert execution.interrupts < 0.01 * execution.user_interactions

    def test_user_interactions_counted(self, trained, test_day):
        execution = trained.execute_day(test_day)
        assert execution.user_interactions == len(test_day.usages)


class TestConfigVariants:
    def test_unoptimized_in_slot_traffic_keeps_stock_tails(self, history, test_day):
        config = NetMasterConfig(optimize_in_slot_traffic=False)
        nm = NetMaster(config)
        nm.train(history)
        execution = nm.execute_day(test_day)
        assert any(math.isinf(t) for t in execution.activity_tails)

    def test_optimized_never_uses_stock_tails(self, trained, test_day):
        execution = trained.execute_day(test_day)
        assert not any(math.isinf(t) for t in execution.activity_tails)

    def test_delta_strategy_threads_through(self, history):
        nm = NetMaster(NetMasterConfig(delta=FixedDelta(0.45)))
        nm.train(history)
        plan = nm.plan_day(weekend=False)
        assert plan.prediction.delta == 0.45

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetMasterConfig(eps=1.5)
        with pytest.raises(ValueError):
            NetMasterConfig(duty_initial_s=0.0)

    def test_guard_affects_energy(self, history, test_day):
        model = wcdma_model()

        def run(guard):
            nm = NetMaster(NetMasterConfig(guard_s=guard))
            nm.train(history)
            ex = nm.execute_day(test_day)
            return simulate(
                [a.interval for a in ex.activities],
                model,
                window_tails=ex.activity_tails,
            ).energy_j

        assert run(0.0) < run(5.0)
