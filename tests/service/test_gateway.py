"""The single-writer service core: parity, atomicity, retention, state."""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import DAY
from repro.baselines.naive import NaivePolicy
from repro.evaluation.metrics import measure_outcome
from repro.monitor import MonitorConfig
from repro.service.gateway import (
    CausalityError,
    FleetGateway,
    ServiceOverloadError,
    UnknownUserError,
    reference_decisions,
)
from repro.service.schemas import MAX_DAYS_AHEAD, SchemaError
from repro.stream.fleet import stream_one_user
from repro.stream.ingest import event_time, stream_trace
from repro.stream.online_netmaster import CheckpointError, OnlineNetMaster
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession

from tests.retyped_fields import NO_SHRINK, retyped
from tests.service.conftest import service_config
from tests.traces.strategies import valid_traces


def drive(gateway: FleetGateway, trace, *, batches=None) -> None:
    """Stream a whole trace through the gateway and close it."""
    records = list(stream_trace(trace))
    if batches is None:
        batches = [records]
    else:
        assert sum(len(b) for b in batches) == len(records)
    for batch in batches:
        gateway.ingest(
            trace.user_id, batch, start_weekday=trace.start_weekday
        )
    gateway.finish(trace.user_id, trace.n_days)


def test_savings_match_hand_rolled_engine(service_trace):
    """Independent oracle: a bare engine + measure_outcome, no gateway."""
    config = service_config(checkpoint_every_days=None)
    engine = OnlineNetMaster(
        service_trace.user_id,
        config=config.netmaster,
        start_weekday=service_trace.start_weekday,
        train_days=config.train_days,
    )
    energy = naive_energy = 0.0
    days = 0
    for record in stream_trace(service_trace):
        engine.observe(record)
        for day in engine.drain():
            energy += measure_outcome(
                day.outcome(), config.netmaster.power, day.trace
            ).energy_j
            naive_energy += measure_outcome(
                NaivePolicy().execute_day(day.trace),
                config.netmaster.power,
                day.trace,
            ).energy_j
            days += 1
    for day in engine.finish(service_trace.n_days):
        energy += measure_outcome(
            day.outcome(), config.netmaster.power, day.trace
        ).energy_j
        naive_energy += measure_outcome(
            NaivePolicy().execute_day(day.trace),
            config.netmaster.power,
            day.trace,
        ).energy_j
        days += 1

    gateway = FleetGateway(config)
    drive(gateway, service_trace)
    savings = gateway.savings(service_trace.user_id)
    assert days > 0
    assert savings["days_executed"] == days
    assert savings["energy_j"] == energy
    assert savings["naive_energy_j"] == naive_energy


def test_aggregates_byte_equal_stream_one_user(service_traces):
    """The acceptance gate: gateway totals == library drive, bit for bit."""
    config = service_config()
    for trace in service_traces:
        lib = stream_one_user(trace, config=config)
        gateway = FleetGateway(config)
        drive(gateway, trace)
        savings = gateway.savings(trace.user_id)
        assert savings["energy_j"] == lib.energy_j
        assert savings["radio_on_s"] == lib.radio_on_s
        assert savings["interrupts"] == lib.interrupts
        assert savings["user_interactions"] == lib.user_interactions
        assert savings["deferred"] == lib.deferred
        assert savings["days_executed"] == lib.days_executed
        assert savings["checkpoints"] == lib.checkpoints
        assert savings["degraded_days"] == lib.degraded_days


@settings(max_examples=8, deadline=None)
@given(batch_size=st.integers(min_value=1, max_value=4000))
def test_batch_split_invariance(service_trace, batch_size):
    """Decisions are independent of how the stream is cut into batches."""
    config = service_config()
    records = list(stream_trace(service_trace))
    batches = [
        records[i : i + batch_size] for i in range(0, len(records), batch_size)
    ]
    gateway = FleetGateway(config)
    drive(gateway, service_trace, batches=batches)
    got = {
        "decisions": gateway.decisions(service_trace.user_id),
        "savings": gateway.savings(service_trace.user_id),
    }
    ref = reference_decisions(service_trace, config=config)
    assert json.dumps(got) == json.dumps(ref)


def _damages(records) -> list:
    """Every one-record damage of a valid stream: one network flag
    flipped, or one screen session stretched over the next."""
    sessions = [i for i, r in enumerate(records) if isinstance(r, ScreenSession)]
    flips = [
        (i, replace(r, screen_on=not r.screen_on))
        for i, r in enumerate(records)
        if isinstance(r, NetworkActivity)
    ]
    stretches = [
        (i, ScreenSession(records[i].start, records[j].end))
        for i, j in zip(sessions, sessions[1:])
        if records[j].end > records[i].end
    ]
    return flips + stretches


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(trace=valid_traces(), data=st.data())
def test_damaged_streams_raise_only_schema_error(trace, data):
    """A record that would break an executed day's trace refuses its
    batch whole (state unchanged); nothing else escapes, and the
    stream still finishes."""
    records = list(stream_trace(trace))
    damages = _damages(records)
    if damages:
        i, record = data.draw(st.sampled_from(damages), label="damage")
        records[i] = record
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(records)), max_size=4), label="cuts")
    )
    bounds = [0, *cuts, len(records)]
    gateway = FleetGateway(
        service_config(train_days=data.draw(st.integers(1, 3), label="train_days"))
    )
    gateway.ensure_user(trace.user_id, start_weekday=trace.start_weekday)
    for lo, hi in zip(bounds, bounds[1:]):
        before = json.dumps(gateway.state_dict())
        try:
            gateway.ingest(trace.user_id, records[lo:hi], start_weekday=trace.start_weekday)
        except SchemaError:
            assert json.dumps(gateway.state_dict()) == before
    gateway.finish(trace.user_id, trace.n_days)


class TestTraceConsistency:
    """The ingest refuses a record that would break an executed day's
    trace, reading what earlier batches left in the day buffers."""

    @staticmethod
    def transfer(t: float, screen_on: bool) -> NetworkActivity:
        return NetworkActivity(t, "mail", 10.0, 1.0, 1.0, screen_on)

    def test_checks_carry_across_batches(self):
        gateway = FleetGateway(service_config(train_days=1))
        gateway.ingest("u", [ScreenSession(DAY + 100.0, DAY + 1000.0)])
        refused = [
            ([self.transfer(DAY + 150.0, False)], "screen_on=False"),
            ([ScreenSession(DAY + 500.0, DAY + 600.0)], "before the previous one ends"),
        ]
        for batch, message in refused:
            with pytest.raises(SchemaError, match=message):
                gateway.ingest("u", batch)
        gateway.ingest("u", [self.transfer(DAY + 1100.0, False)])
        with pytest.raises(SchemaError, match="network record at that time"):
            gateway.ingest("u", [ScreenSession(DAY + 1100.0, DAY + 1200.0)])
        gateway.finish("u", 3)
        assert gateway.savings("u")["days_executed"] == 2

    def test_training_day_overlap_is_refused_only_past_midnight(self):
        gateway = FleetGateway(service_config(train_days=1))
        crossing = ScreenSession(DAY - 600.0, DAY + 600.0)
        with pytest.raises(SchemaError, match="before the previous one ends"):
            gateway.ingest("u", [crossing, ScreenSession(DAY - 300.0, DAY + 300.0)])
        # No trace is built for a training day, so an overlap inside one
        # breaks nothing.
        gateway.ingest("u", [crossing, ScreenSession(DAY - 300.0, DAY - 200.0)])
        gateway.finish("u", 2)
        assert gateway.savings("u")["days_executed"] == 1


def test_out_of_order_batch_rejected_atomically(service_trace):
    config = service_config()
    gateway = FleetGateway(config)
    records = list(stream_trace(service_trace))
    gateway.ingest(
        service_trace.user_id, records[:500],
        start_weekday=service_trace.start_weekday,
    )
    before = json.dumps(gateway.state_dict())
    # A batch that starts fine but travels back in time mid-way.
    bad = records[500:510] + records[100:110]
    with pytest.raises(CausalityError, match="stream went backwards"):
        gateway.ingest(service_trace.user_id, bad)
    assert json.dumps(gateway.state_dict()) == before  # nothing leaked


@pytest.mark.parametrize("bad_time", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected_whole(service_trace, monkeypatch, bad_time):
    # A spy ends the endless day-closing an infinite time would cause.
    close_day = OnlineNetMaster._close_day
    calls = 0

    def spy(self):
        nonlocal calls
        calls += 1
        if calls > 100:
            raise RuntimeError("an infinite time closes days forever")
        close_day(self)

    monkeypatch.setattr(OnlineNetMaster, "_close_day", spy)
    gateway = FleetGateway(service_config())
    records = list(stream_trace(service_trace))
    gateway.ingest(
        service_trace.user_id, records[:500],
        start_weekday=service_trace.start_weekday,
    )
    before = json.dumps(gateway.state_dict())
    bad = records[500:510] + [AppUsage(bad_time, "mail", 1.0)] + records[510:520]
    with pytest.raises(SchemaError, match="non-finite"):
        gateway.ingest(service_trace.user_id, bad)
    assert json.dumps(gateway.state_dict()) == before  # nothing leaked
    # The stream continues where it stood.
    gateway.ingest(service_trace.user_id, records[500:520])
    assert gateway.savings(service_trace.user_id)["events"] == 520


def test_unknown_user_raises():
    gateway = FleetGateway(service_config())
    with pytest.raises(UnknownUserError):
        gateway.decisions("stranger")
    with pytest.raises(UnknownUserError):
        gateway.savings("stranger")
    with pytest.raises(UnknownUserError):
        gateway.finish("stranger", 9)


def test_event_budget_sheds_batches(service_trace):
    records = list(stream_trace(service_trace))
    gateway = FleetGateway(service_config(event_budget=100))
    gateway.ingest(service_trace.user_id, records[:100])
    with pytest.raises(ServiceOverloadError):
        gateway.ingest(service_trace.user_id, records[100:110])
    assert gateway.events_total == 100


def test_retention_bounds_memory_and_savings_stay_complete(service_trace):
    """Eviction drops day records but never the compacted aggregate."""
    full = FleetGateway(service_config())
    drive(full, service_trace)
    bounded = FleetGateway(service_config(retention_days=2))
    drive(bounded, service_trace)

    full_dec = full.decisions(service_trace.user_id)
    bounded_dec = bounded.decisions(service_trace.user_id)
    assert full_dec["evicted_days"] == 0
    assert len(bounded_dec["retained"]) == 2
    assert (
        bounded_dec["evicted_days"]
        == full_dec["days_executed"] - 2
    )
    # The retained window is the *newest* days, byte-equal to the full run.
    assert bounded_dec["retained"] == full_dec["retained"][-2:]
    # Savings read the aggregate: identical despite the eviction.
    full_sav = full.savings(service_trace.user_id)
    bounded_sav = bounded.savings(service_trace.user_id)
    for key in ("energy_j", "naive_energy_j", "saving", "radio_on_s",
                "interrupts", "deferred", "days_executed"):
        assert bounded_sav[key] == full_sav[key]
    assert bounded_sav["retained_days"] == 2
    assert bounded_sav["evicted_days"] == bounded_dec["evicted_days"]


def test_checkpoint_restore_resumes_byte_identically(service_trace, tmp_path):
    config = service_config()
    records = list(stream_trace(service_trace))
    cut = len(records) // 2

    straight = FleetGateway(config)
    drive(straight, service_trace)

    resumed = FleetGateway(config)
    resumed.ingest(
        service_trace.user_id, records[:cut],
        start_weekday=service_trace.start_weekday,
    )
    path = tmp_path / "service.json"
    resumed.checkpoint(path)
    fresh = FleetGateway(config)
    fresh.restore(path)
    fresh.ingest(service_trace.user_id, records[cut:])
    fresh.finish(service_trace.user_id, service_trace.n_days)

    assert json.dumps(fresh.decisions(service_trace.user_id)) == json.dumps(
        straight.decisions(service_trace.user_id)
    )
    assert json.dumps(fresh.savings(service_trace.user_id)) == json.dumps(
        straight.savings(service_trace.user_id)
    )


def test_restore_rejects_garbage(tmp_path):
    gateway = FleetGateway(service_config())
    with pytest.raises(SchemaError):
        gateway.restore(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ truncated", encoding="utf-8")
    with pytest.raises(CheckpointError):
        gateway.restore(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": 99, "users": {}}), encoding="utf-8")
    with pytest.raises(CheckpointError, match="format"):
        gateway.restore(wrong)


def test_restore_rejects_overflowing_integer(service_trace, tmp_path):
    """``1e400`` parses as infinity, which no integer field takes."""
    gateway = FleetGateway(service_config())
    gateway.ingest(
        service_trace.user_id, list(stream_trace(service_trace))[:500],
        start_weekday=service_trace.start_weekday,
    )
    path = gateway.checkpoint(tmp_path / "service.json")
    text = path.read_text(encoding="utf-8")
    assert text.count('"evicted_days": 0') == 1
    path.write_text(text.replace('"evicted_days": 0', '"evicted_days": 1e400'))
    fresh = FleetGateway(service_config())
    with pytest.raises(CheckpointError, match="OverflowError"):
        fresh.restore(path)
    assert fresh.user_ids() == []


class TestIngestHorizon:
    """One request moves a user's open day at most MAX_DAYS_AHEAD days."""

    @pytest.fixture
    def gateway(self, service_trace):
        gateway = FleetGateway(service_config())
        gateway.ingest(
            service_trace.user_id, list(stream_trace(service_trace))[:500],
            start_weekday=service_trace.start_weekday,
        )
        return gateway

    @pytest.fixture
    def closed(self, gateway, monkeypatch):
        """The days any engine closes after ``gateway`` was set up."""
        days = []
        close = OnlineNetMaster._close_day
        monkeypatch.setattr(
            OnlineNetMaster, "_close_day",
            lambda engine: (days.append(engine.day), close(engine)),
        )
        return days

    @staticmethod
    def _position(gateway, user_id):
        engine = gateway.session(user_id).engine
        return engine.day, engine.events, engine.last_time

    def test_far_future_record_rejected_whole(self, gateway, closed, service_trace):
        uid = service_trace.user_id
        before, state = self._position(gateway, uid), json.dumps(gateway.state_dict())
        records = list(stream_trace(service_trace))[500:510]
        far = AppUsage((before[0] + 2000) * DAY, "mail", 1.0)
        with pytest.raises(SchemaError, match="days past the open day"):
            gateway.ingest(uid, records + [far])
        assert self._position(gateway, uid) == before
        assert json.dumps(gateway.state_dict()) == state
        assert not closed
        gateway.ingest(uid, records)  # the stream continues where it stood
        assert self._position(gateway, uid)[1] == before[1] + len(records)

    def test_far_session_end_rejected_quickly(self, gateway, closed, service_trace):
        """A session's end obeys the horizon too: the engine would buffer
        it into every day it spans, one piece per day."""
        uid = service_trace.user_id
        before, state = self._position(gateway, uid), json.dumps(gateway.state_dict())
        session_end, _ = gateway.session(uid).engine.buffered_tail()
        start = max(before[2], session_end) + 1.0
        t0 = time.perf_counter()
        with pytest.raises(SchemaError, match="ending at"):
            gateway.ingest(uid, [ScreenSession(start, 1e12)])
        assert time.perf_counter() - t0 < 1.0
        assert self._position(gateway, uid) == before
        assert json.dumps(gateway.state_dict()) == state
        assert not closed
        horizon = (before[0] + MAX_DAYS_AHEAD + 1) * DAY
        with pytest.raises(SchemaError, match="ending at"):
            gateway.ingest(uid, [ScreenSession(start, horizon + 1.0)])
        gateway.ingest(uid, [ScreenSession(start, horizon)])  # at the limit
        assert self._position(gateway, uid)[1] == before[1] + 1

    def test_far_finish_rejected(self, gateway, closed, service_trace):
        uid = service_trace.user_id
        before, state = self._position(gateway, uid), json.dumps(gateway.state_dict())
        with pytest.raises(SchemaError, match="days past the open day"):
            gateway.finish(uid, 10**6)
        assert self._position(gateway, uid) == before
        assert json.dumps(gateway.state_dict()) == state
        assert not closed

    def test_requests_at_the_limit_are_accepted(self, gateway, service_trace):
        uid = service_trace.user_id
        open_day = self._position(gateway, uid)[0]
        limit = open_day + MAX_DAYS_AHEAD
        with pytest.raises(SchemaError):
            gateway.ingest(uid, [AppUsage((limit + 1) * DAY, "mail", 1.0)])
        last_second = AppUsage((limit + 1) * DAY - 1.0, "mail", 1.0)
        reply = gateway.ingest(uid, [last_second])
        assert reply["day"] == limit
        with pytest.raises(SchemaError):
            gateway.finish(uid, limit + MAX_DAYS_AHEAD + 1)
        reply = gateway.finish(uid, limit + MAX_DAYS_AHEAD)
        assert reply["days_closed"] == MAX_DAYS_AHEAD
        assert gateway.session(uid).engine.day == limit + MAX_DAYS_AHEAD


@pytest.fixture(scope="module")
def monitored_state(service_traces):
    """A monitored gateway mid-stream: engines with open-day buffers,
    monitor state, retained and evicted decisions."""
    gateway = FleetGateway(service_config(monitor=MonitorConfig(), retention_days=1))
    trace = service_traces[0]
    cut = (trace.n_days - 0.5) * DAY
    gateway.ingest(
        trace.user_id, [r for r in stream_trace(trace) if event_time(r) < cut],
        start_weekday=trace.start_weekday,
    )
    state = json.loads(json.dumps(gateway.state_dict()))
    doc = state["users"][trace.user_id]
    assert doc["decisions"] and doc["evicted_days"] and doc["monitor"]
    return state


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_retyped_state_fields_raise_only_checkpoint_error(monitored_state, data):
    """Each field of the gateway document, in turn, becomes a value of
    another JSON type or an out-of-range number: loading it either
    succeeds or raises
    :class:`CheckpointError` (which ``POST /v1/restore`` maps to 409)."""
    for case, doc in retyped(monitored_state, data):
        gateway = FleetGateway(service_config(monitor=MonitorConfig()))
        with case:
            try:
                gateway.load_state(doc)
            except CheckpointError:
                pass
