"""A trained NetMaster plans each day type once, and no output shows it.

``NetMaster.train`` builds the weekday and weekend plan parts (slot
prediction, overlapped-MKP instance, solution, hour slots) once; every
replayed day wraps them in a fresh :class:`DayPlan`.  The oracle builds a
new :class:`NetMasterScheduler` (same habit, parameters, ε and δ) for
every day, as each day did before the parts were shared.
"""

from __future__ import annotations

import pickle

import pytest

from repro import telemetry
from repro.core.netmaster import NetMaster, NetMasterConfig
from repro.core.scheduler import NetMasterScheduler
from repro.evaluation import split_history
from repro.stream import OnlineNetMaster, stream_trace
from repro.traces import NetworkActivity, generate_cohort
from repro.traces.events import PACK_GAP_S, pack_release

from tests.core.day_fields import execution_fields

HISTORY_DAYS = 10


class FreshPlanNetMaster(NetMaster):
    """The oracle: a fresh scheduler, so a fresh plan build, every day."""

    def plan_day(self, *, weekend: bool):
        s = self.scheduler
        fresh = NetMasterScheduler(habit=s.habit, params=s.params, eps=s.eps, delta=s.delta)
        return fresh.plan(weekend=weekend)


@pytest.fixture(scope="module", params=["cohort-2014", "volunteers-43"])
def users(request, volunteers):
    """(history, held-out days) per user: 11 days each for the cohort."""
    traces = {
        "cohort-2014": lambda: generate_cohort(21, seed=2014),
        "volunteers-43": lambda: volunteers,
    }[request.param]()
    return [split_history(trace, HISTORY_DAYS) for trace in traces]


def _replay(nm: NetMaster, history, days) -> list[dict]:
    nm.train(history)
    return [execution_fields(nm.execute_day(day)) for day in days]


def test_replayed_days_equal_fresh_plans(users):
    planned = set()
    for history, days in users:
        shared = _replay(NetMaster(), history, days)
        assert shared == _replay(FreshPlanNetMaster(), history, days)
        planned.update(d["plan"]["weekend"] for d in shared if d["plan"] is not None)
        assert any(d["deferred_to_slots"] for d in shared)
    assert planned == {False, True}


def test_replay_leaves_the_prepared_parts_unchanged(users):
    for history, days in users:
        nm = NetMaster()
        nm.train(history)
        assert set(nm.scheduler.prepared) == {False, True}
        snapshot = pickle.dumps(nm.scheduler.prepared)
        for day in days:
            nm.execute_day(day)
        assert pickle.dumps(nm.scheduler.prepared) == snapshot


def test_each_plan_owns_its_admission_state(history):
    nm = NetMaster()
    nm.train(history)
    a = nm.plan_day(weekend=False)
    hour = min(a.hour_slots)
    slot_id = a.admit(hour, 1.0)
    start = a.instance.slot_info[slot_id].start
    pack_release(
        a.cursors, slot_id, start, NetworkActivity(0.0, "sync", 1.0, 0.0, 1.0, False), 1.0
    )
    b = nm.plan_day(weekend=False)
    assert b.instance is a.instance and b.hour_slots is a.hour_slots
    assert b.capacity_left[slot_id] == a.capacity_left[slot_id] + 1.0
    assert a.cursors == {slot_id: start + 1.0 + PACK_GAP_S}
    assert b.cursors == {}
    assert b._rotation == {}


def _plans_built(fn) -> int:
    with telemetry.isolated() as (reg, _):
        fn()
        return reg.snapshot()["counters"].get("core.scheduler.plans", 0)


class TestPlanBuilds:
    def test_train_builds_one_plan_per_day_type(self, history):
        assert _plans_built(lambda: NetMaster().train(history)) == 2

    def test_insufficient_history_builds_none(self, history):
        nm = NetMaster()
        assert _plans_built(lambda: nm.train(split_history(history, 1)[0])) == 0
        assert nm.insufficient_history and nm.scheduler.prepared == {}

    def test_replay_after_train_builds_none(self, history_and_days):
        history, days = history_and_days
        nm = NetMaster()
        nm.train(history)
        assert _plans_built(lambda: [nm.execute_day(day) for day in days]) == 0

    def test_online_engine_builds_one_per_planned_day_close(self, volunteer):
        engine = OnlineNetMaster(
            volunteer.user_id,
            config=NetMasterConfig(enable_circuit_breaker=False),
            start_weekday=volunteer.start_weekday,
            train_days=HISTORY_DAYS,
        )

        def run():
            for record in stream_trace(volunteer):
                engine.observe(record)
            engine.finish(volunteer.n_days)

        built = _plans_built(run)
        assert engine.days_executed == volunteer.n_days - HISTORY_DAYS
        assert engine.days_degraded == 0
        assert built == engine.days_executed
        assert engine.netmaster.scheduler.prepared == {}
