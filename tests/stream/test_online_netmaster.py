"""OnlineNetMaster: causal decision parity and checkpoint/restore."""

from __future__ import annotations

import json
import math

import pytest

from repro import telemetry
from repro._util import DAY, HOUR
from repro.core.netmaster import NetMaster, NetMasterConfig
from repro.evaluation import split_history
from repro.stream import OnlineNetMaster, event_time, stream_trace
from repro.traces import AppUsage, NetworkActivity, ScreenSession

TRAIN_DAYS = 10

#: Breaker disabled so the offline reference (fresh middleware per day,
#: breaker state reset) matches the long-lived online engine exactly.
CONFIG = NetMasterConfig(enable_circuit_breaker=False)


def _signature(execution):
    return (
        [
            (a.time, a.app, a.duration, a.total_bytes, a.screen_on)
            for a in execution.activities
        ],
        list(execution.activity_tails),
        list(execution.wake_windows),
        execution.interrupts,
        execution.user_interactions,
        execution.degraded,
    )


def _run_stream(trace, *, engine=None, checkpoint_at=None):
    """Stream a trace, optionally round-tripping through JSON at an
    event index; returns (engine, completed days in order)."""
    engine = engine or OnlineNetMaster(
        trace.user_id,
        config=CONFIG,
        start_weekday=trace.start_weekday,
        train_days=TRAIN_DAYS,
    )
    completed = []
    for i, record in enumerate(stream_trace(trace)):
        engine.observe(record)
        completed.extend(engine.drain())
        if checkpoint_at is not None and i == checkpoint_at:
            engine = OnlineNetMaster.from_json(engine.to_json())
    completed.extend(engine.finish(trace.n_days))
    return engine, completed


class TestDecisionParity:
    def test_every_day_matches_offline_training(self, volunteer):
        _, completed = _run_stream(volunteer)
        assert [c.day_index for c in completed] == list(
            range(TRAIN_DAYS, volunteer.n_days)
        )
        for c in completed:
            reference = NetMaster(CONFIG)
            reference.train(split_history(volunteer, c.day_index)[0])
            offline = reference.execute_day(volunteer.day_view(c.day_index))
            assert _signature(c.execution) == _signature(offline)

    def test_outcome_mirrors_execution(self, volunteer):
        _, completed = _run_stream(volunteer)
        c = completed[0]
        outcome = c.outcome()
        assert outcome.policy == "netmaster-online"
        assert outcome.activities == c.execution.activities
        assert outcome.interrupts == c.execution.interrupts
        assert (
            outcome.deferred
            == c.execution.deferred_to_slots + c.execution.duty_serviced
        )


class TestCheckpointRestore:
    @pytest.mark.parametrize("fraction", [0.55, 0.8])
    def test_mid_stream_restore_replays_identically(self, volunteer, fraction):
        records = list(stream_trace(volunteer))
        # Cut mid-stream, strictly after training so decisions exist on
        # both sides of the checkpoint.
        cut = next(
            i
            for i, r in enumerate(records)
            if event_time(r) >= fraction * volunteer.n_days * DAY
        )
        _, straight = _run_stream(volunteer)
        _, forked = _run_stream(volunteer, checkpoint_at=cut)
        assert [c.day_index for c in forked] == [c.day_index for c in straight]
        for a, b in zip(straight, forked):
            assert _signature(a.execution) == _signature(b.execution)

    def test_checkpoint_payload_round_trips_byte_identically(self, volunteer):
        engine, _ = _run_stream(volunteer)
        payload = engine.to_json()
        restored = OnlineNetMaster.from_json(payload)
        assert restored.to_json() == payload

    def test_restored_counters_match(self, volunteer):
        engine, _ = _run_stream(volunteer)
        restored = OnlineNetMaster.from_json(engine.to_json())
        assert restored.events == engine.events
        assert restored.days_executed == engine.days_executed
        assert restored.interrupts == engine.interrupts
        assert restored.day == engine.day

    def test_undrained_days_must_be_drained_first(self, volunteer):
        engine = OnlineNetMaster(
            volunteer.user_id,
            config=CONFIG,
            start_weekday=volunteer.start_weekday,
            train_days=TRAIN_DAYS,
        )
        engine.observe_many(stream_trace(volunteer))
        state = engine.state_dict()
        # The state is JSON-safe even with undrained days pending...
        json.dumps(state)
        # ...but the pending CompletedDays are deliberately not in it.
        restored = OnlineNetMaster.from_state(state)
        assert restored.drain() == []

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            OnlineNetMaster.from_state({"format": 99})


class TestStreamContract:
    def test_rejects_time_regression(self, volunteer):
        engine = OnlineNetMaster(volunteer.user_id, config=CONFIG)
        engine.observe(ScreenSession(1000.0, 1100.0))
        with pytest.raises(ValueError, match="backwards"):
            engine.observe(ScreenSession(500.0, 600.0))

    def test_rejects_nan_time_before_any_state_change(self):
        engine = OnlineNetMaster("u", config=CONFIG)
        engine.observe(ScreenSession(1000.0, 1100.0))
        before = (engine.events, engine.last_time, engine.day)
        with pytest.raises(ValueError, match="finite"):
            engine.observe(AppUsage(math.nan, "mail", 1.0))
        assert (engine.events, engine.last_time, engine.day) == before
        # The causal floor still holds after the rejected record.
        with pytest.raises(ValueError, match="backwards"):
            engine.observe(ScreenSession(5.0, 6.0))

    def test_rejects_infinite_time_without_closing_days(self, monkeypatch):
        engine = OnlineNetMaster("u", config=CONFIG)
        engine.observe(ScreenSession(1000.0, 1100.0))
        before = (engine.events, engine.last_time, engine.day)
        calls = 0
        close_day = OnlineNetMaster._close_day

        def spy(self):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise RuntimeError("an infinite time closes days forever")
            close_day(self)

        monkeypatch.setattr(OnlineNetMaster, "_close_day", spy)
        with pytest.raises(ValueError, match="finite"):
            engine.observe(NetworkActivity(math.inf, "sync", 10.0, 0.0, 1.0, False))
        assert calls == 0
        assert (engine.events, engine.last_time, engine.day) == before

    def test_ingest_stops_right_after_the_day_closing_record(self, volunteer):
        engine = OnlineNetMaster(
            volunteer.user_id,
            config=CONFIG,
            start_weekday=volunteer.start_weekday,
            train_days=TRAIN_DAYS,
        )
        records = list(stream_trace(volunteer))
        days = [event_time(r) // DAY for r in records]
        closing = [i + 1 for i in range(1, len(records)) if days[i] > days[i - 1]]
        stream = iter(records)
        stops = []
        while engine.ingest(stream):
            stops.append(engine.events)
            assert engine.day == days[engine.events - 1]
        assert stops == closing
        assert engine.events == len(records)

    def test_training_days_produce_no_decisions(self, volunteer):
        engine = OnlineNetMaster(
            volunteer.user_id,
            config=CONFIG,
            start_weekday=volunteer.start_weekday,
            train_days=volunteer.n_days,
        )
        engine.observe_many(stream_trace(volunteer))
        assert engine.finish(volunteer.n_days) == []
        assert engine.days_executed == 0

    def test_drain_releases_memory(self, volunteer):
        _, completed = _run_stream(volunteer)
        assert completed  # decisions happened...
        engine, _ = _run_stream(volunteer)
        assert engine.drain() == []  # ...and were all drained


class TestHabitCounters:
    def test_engine_counts_closed_days_and_drift_alerts(self):
        engine = OnlineNetMaster("drift", config=CONFIG, train_days=TRAIN_DAYS)
        engine.habits.drift_threshold = 0.3
        with telemetry.isolated(with_tracing=False) as (reg, _):
            # Four habitual weekdays (hours 8-9), then one far off profile.
            for day in range(4):
                engine.observe(ScreenSession(day * DAY + 8 * HOUR, day * DAY + 10 * HOUR))
            engine.observe(ScreenSession(4 * DAY + 10 * HOUR, 5 * DAY - 1.0))
            engine.finish(6)
            counters = reg.snapshot()["counters"]
        assert engine.habits.drift_alerts == 1
        assert counters["stream.habit_days_closed"] == 6
        assert counters["stream.drift_alerts"] == 1
