"""The batched ingest loop against the per-record drive it replaced.

``oracle_feed`` is that drive, kept here as the reference: observe one
record the way the engine used to (``oracle_observe``), drain, and close
the drained days.  ``UserDriver.feed`` must give the same day-close
states, checkpoint payloads, summaries and registry counters however
the stream is cut into chunks, with or without a checkpoint cadence, a
WAL sink and a monitor hook, from a fresh engine or a mid-day resume,
and must stop at a bad record exactly where the oracle stops.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._util import DAY, HOUR
from repro.core.netmaster import NetMasterConfig
from repro.monitor import MonitorConfig
from repro.stream import FleetConfig, OnlineNetMaster, event_time, stream_trace
from repro.stream.fleet import UserDriver, _monitor_hook
from repro.stream.shards.service import _RecordingSink
from repro.telemetry import isolated, metrics
from repro.traces import ScreenSession, Trace
from repro.traces.generator import generate_volunteers

N_DAYS = 10

PLAIN = FleetConfig(
    train_days=6, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)
CONFIGS = {
    "plain": PLAIN,
    "checkpointed": replace(PLAIN, checkpoint_every_days=2),
    # Durable drive: checkpoint every day, a WAL sink and a monitor hook.
    "durable": replace(PLAIN, checkpoint_every_days=1, monitor=MonitorConfig()),
}


def oracle_observe(engine: OnlineNetMaster, record) -> None:
    """One record, folded the way the engine did before batching."""
    time = event_time(record)
    if time < engine._last_time:
        raise ValueError(
            f"stream went backwards: event at t={time} after t={engine._last_time}"
        )
    engine._last_time = time
    while time >= (engine.day + 1) * DAY:
        engine._close_day()
    engine.events += 1
    metrics().inc("stream.events")
    engine.habits.observe(record)
    engine._buffer(record)


def oracle_feed(driver: UserDriver, records) -> int:
    """The per-record drive: observe, drain, close what drained."""
    closed = 0
    for record in records:
        oracle_observe(driver.engine, record)
        done = driver.engine.drain()
        if done:
            closed += len(done)
            driver._close(done)
    return closed


def batched_feed(driver: UserDriver, records) -> int:
    return driver.feed(records)


def _with_edge_sessions(trace: Trace) -> Trace:
    """``trace`` plus a session across every midnight and a zero-length
    session each night, placed where the generated events leave room."""
    taken = [(s.start, s.end) for s in trace.screen_sessions]
    taken += [(a.time, a.time) for a in trace.activities]

    def free(lo: float, hi: float) -> bool:
        return all(end < lo or start > hi for start, end in taken)

    extra = []
    for day in range(1, trace.n_days):
        midnight = day * DAY
        width = next(w for w in (60.0, 10.0, 1.0) if free(midnight - w, midnight + w))
        extra.append(ScreenSession(midnight - width, midnight + width))
    for day in range(trace.n_days):
        t = day * DAY + 3 * HOUR + 0.5
        if free(t, t):
            extra.append(ScreenSession(t, t))
    return Trace(
        user_id=trace.user_id,
        n_days=trace.n_days,
        start_weekday=trace.start_weekday,
        screen_sessions=trace.screen_sessions + extra,
        usages=trace.usages,
        activities=trace.activities,
    )


@pytest.fixture(scope="module")
def trace():
    trace = _with_edge_sessions(generate_volunteers(N_DAYS, seed=7)[1])
    # The session into the first executed day starts on a training day.
    boundary = PLAIN.train_days * DAY
    assert any(s.start < boundary < s.end for s in trace.screen_sessions)
    assert any(s.start == s.end for s in trace.screen_sessions)
    return trace


@pytest.fixture(scope="module")
def records(trace):
    return list(stream_trace(trace))


def _closing_cuts(records) -> list[int]:
    """Cut points right after each record that opens a later day."""
    return [
        i + 1
        for i in range(1, len(records))
        if event_time(records[i]) // DAY > event_time(records[i - 1]) // DAY
    ]


def _chunks(records, cuts) -> list[list]:
    bounds = [0, *sorted(set(cuts)), len(records)]
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


def _driver(trace, config, *, resume=None):
    alerts: list = []
    sink = _RecordingSink() if config.monitor is not None else None
    driver = UserDriver(
        trace.user_id,
        config,
        start_weekday=trace.start_weekday,
        resume=resume,
        on_days=(
            _monitor_hook(trace.user_id, config.monitor, alerts)
            if config.monitor is not None
            else None
        ),
        sink=sink,
    )
    return driver, sink, alerts


def run(trace, config, chunks, feed, *, resume=None, finish=True) -> dict:
    """Drive ``chunks`` through ``feed``; everything observable.

    That is: days closed per call, every checkpoint payload, every
    executed day's buffered events, the WAL records, alerts, the final
    driver state and summary, and the registry counters.

    A ``ValueError`` from a chunk ends the drive there (no finish), with
    the error message recorded.
    """
    payloads: list[str] = []
    days: list[tuple] = []
    to_json = OnlineNetMaster.to_json
    day_trace = OnlineNetMaster._day_trace

    def recording(engine):
        payload = to_json(engine)
        payloads.append(payload)
        return payload

    def recording_day(engine, day):
        trace = day_trace(engine, day)
        days.append((day, trace.screen_sessions, trace.usages, trace.activities))
        return trace

    error = None
    with pytest.MonkeyPatch.context() as mp, isolated(with_tracing=False) as (
        registry,
        _,
    ):
        mp.setattr(OnlineNetMaster, "to_json", recording)
        mp.setattr(OnlineNetMaster, "_day_trace", recording_day)
        driver, sink, alerts = _driver(trace, config, resume=resume)
        closed = []
        try:
            for chunk in chunks:
                closed.append(feed(driver, chunk))
        except ValueError as exc:
            error = str(exc)
        if finish and error is None:
            closed.append(driver.finish(trace.n_days))
        counters = registry.snapshot()["counters"]
    engine = driver.engine
    return {
        "closed": closed,
        "error": error,
        "payloads": payloads,
        "days": days,
        "wal": json.dumps(sink.records) if sink is not None else None,
        "alerts": [a.as_dict() for a in alerts],
        "state": json.dumps(driver.state_dict()),
        "summary": driver.acc.summary(engine, trace.n_days).as_dict(),
        "counters": counters,
        "position": (engine.events, engine.last_time, engine.day),
    }


def assert_same(got: dict, want: dict) -> None:
    for key in want:
        assert got[key] == want[key], key


def cut_strategy(records):
    """Random cuts, mixed with cuts right after a day-closing record."""
    if len(records) < 2:
        return st.just([])
    cuts = st.integers(min_value=1, max_value=len(records) - 1)
    closing = _closing_cuts(records)
    if closing:
        cuts = st.one_of(cuts, st.sampled_from(closing))
    return st.lists(cuts, max_size=24)


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestEqualToOracle:
    def test_whole_stream(self, trace, records, name):
        config = CONFIGS[name]
        want = run(trace, config, [records], oracle_feed)
        got = run(trace, config, [records], batched_feed)
        assert_same(got, want)
        assert got["counters"]["stream.events"] == len(records)
        assert sum(got["closed"]) == N_DAYS - config.train_days
        if config.checkpoint_every_days:
            assert got["payloads"]
        if config.monitor is not None:
            assert json.loads(got["wal"])

    def test_one_record_chunks(self, trace, records, name):
        config = CONFIGS[name]
        chunks = [[r] for r in records]
        assert_same(
            run(trace, config, chunks, batched_feed),
            run(trace, config, chunks, oracle_feed),
        )

    def test_cut_after_every_day_closing_record(self, trace, records, name):
        config = CONFIGS[name]
        chunks = _chunks(records, _closing_cuts(records))
        assert len(chunks) >= N_DAYS
        assert_same(
            run(trace, config, chunks, batched_feed),
            run(trace, config, chunks, oracle_feed),
        )

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_chunks(self, trace, records, name, data):
        config = CONFIGS[name]
        chunks = _chunks(records, data.draw(cut_strategy(records)))
        assert_same(
            run(trace, config, chunks, batched_feed),
            run(trace, config, chunks, oracle_feed),
        )

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_resume_from_mid_day_state(self, trace, records, name, data):
        config = CONFIGS[name]
        cut = data.draw(st.integers(min_value=1, max_value=len(records) - 1))
        # A mid-day cut: the next record stays in the open day.
        assume(event_time(records[cut]) // DAY == event_time(records[cut - 1]) // DAY)
        head = run(trace, config, [records[:cut]], oracle_feed, finish=False)
        resume = json.loads(head["state"])
        assert resume["engine"]["events"] == cut
        rest = records[resume["engine"]["events"]:]
        chunks = _chunks(rest, data.draw(cut_strategy(rest)))
        assert_same(
            run(trace, config, chunks, batched_feed, resume=resume),
            run(trace, config, chunks, oracle_feed, resume=resume),
        )

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_backwards_record_stops_where_the_oracle_stops(
        self, trace, records, name, data
    ):
        config = CONFIGS[name]
        k = data.draw(st.integers(min_value=2, max_value=len(records) - 1))
        assume(event_time(records[0]) < event_time(records[k - 1]))
        bad = records[:k] + [records[0]] + records[k:]
        chunks = _chunks(bad, data.draw(cut_strategy(bad)))
        got = run(trace, config, chunks, batched_feed)
        want = run(trace, config, chunks, oracle_feed)
        assert "stream went backwards" in want["error"]
        assert_same(got, want)
        assert got["position"][0] == k
        assert got["counters"]["stream.events"] == k
