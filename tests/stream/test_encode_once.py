"""Each closed habit day is encoded once; the bytes are the plain encoder's.

The engine's JSON text (``OnlineNetMaster.to_json`` / ``state_json``)
and the WAL's day-close lines splice in the cached text of every
retained closed habit day instead of encoding the whole history again.
The plain encoders they replace are kept here as the oracle:

* a checkpoint is ``json.dumps(engine.state_dict())``;
* a WAL line is the CRC framing of
  ``json.dumps(payload, separators=(",", ":"))``.

Every serialization of a drive must equal the oracle's — at every day
close, at every checkpoint round trip (and on the engine it restores),
on every WAL line — however the stream is chunked, and for engines
resumed from a WAL state.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import DAY
from repro.stream import FleetConfig, OnlineNetMaster, event_time
from repro.stream.fleet import UserDriver
from repro.stream.ingest import stream_trace
from repro.stream.online_habits import OnlineHabitModel
from repro.stream.shards.store import DayCloseLog
from repro.stream.shards.wal import decode_record
from repro.traces.generator import generate_volunteers

N_DAYS = 12

CONFIG = FleetConfig(train_days=7, checkpoint_every_days=2)


def oracle_json(engine: OnlineNetMaster) -> str:
    return json.dumps(engine.state_dict())


def oracle_line(payload: dict) -> str:
    body = json.dumps(payload, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}"


class OracleSink(DayCloseLog):
    """A WAL sink that checks every line and every logged engine."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def append(self, payload: dict, line: str | None = None) -> None:
        assert line == oracle_line(payload)
        self.lines.append(line)

    def log_day(self, driver: UserDriver) -> None:
        super().log_day(driver)
        # After a round trip this is the restored engine.
        assert driver.engine.to_json() == oracle_json(driver.engine)

    def log_done(self, driver: UserDriver, summary: dict) -> None:
        super().log_done(driver, summary)
        assert driver.engine.to_json() == oracle_json(driver.engine)


@contextmanager
def checked(*, probe: bool = False):
    """Check every ``to_json`` and habit ``state_json`` against the
    oracle as it is made; with ``probe``, also check the engine's text
    right after every day close, training days included."""
    to_json = OnlineNetMaster.to_json
    habits_json = OnlineHabitModel.state_json
    close_day = OnlineNetMaster._close_day

    def checked_to_json(engine):
        payload = to_json(engine)
        assert payload == oracle_json(engine)
        return payload

    def checked_habits_json(habits, separators=(", ", ": ")):
        text = habits_json(habits, separators)
        assert text == json.dumps(habits.state_dict(), separators=separators)
        return text

    def probed(engine):
        close_day(engine)
        assert engine.to_json() == oracle_json(engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OnlineNetMaster, "to_json", checked_to_json)
        mp.setattr(OnlineHabitModel, "state_json", checked_habits_json)
        if probe:
            mp.setattr(OnlineNetMaster, "_close_day", probed)
        yield


@pytest.fixture(scope="module")
def trace():
    return generate_volunteers(N_DAYS, seed=7)[1]


@pytest.fixture(scope="module")
def records(trace):
    return list(stream_trace(trace))


def _chunks(records, cuts) -> list[list]:
    bounds = [0, *sorted(set(cuts)), len(records)]
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


def _cuts(records):
    if len(records) < 2:
        return st.just([])
    return st.lists(st.integers(min_value=1, max_value=len(records) - 1), max_size=16)


def _drive(driver: UserDriver, chunks, n_days: int) -> None:
    for chunk in chunks:
        driver.feed(chunk)
    driver.finish(n_days)


def _resume_state(line: str) -> dict:
    """The driver state a WAL line carries, as recovery decodes it."""
    payload = decode_record(line.encode("utf-8"))
    return {"engine": payload["engine"], "acc": payload["acc"]}


def _split(records, data) -> tuple[list, list]:
    """The stream cut into a head and a tail, each randomly chunked."""
    cut = data.draw(st.integers(min_value=1, max_value=len(records) - 1), label="cut")
    head, tail = records[:cut], records[cut:]
    return (
        _chunks(head, data.draw(_cuts(head), label="head cuts")),
        _chunks(tail, data.draw(_cuts(tail), label="tail cuts")),
    )


class TestEncodeOnce:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_probed_at_every_day_close(self, trace, records, data):
        sink = OracleSink()
        driver = UserDriver(
            trace.user_id, CONFIG, start_weekday=trace.start_weekday, sink=sink
        )
        with checked(probe=True):
            _drive(driver, _chunks(records, data.draw(_cuts(records))), trace.n_days)
        assert len(sink.lines) == N_DAYS - CONFIG.train_days
        assert driver.acc.checkpoints == (N_DAYS - CONFIG.train_days - 1) // 2

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_resumed_engines(self, trace, records, data):
        head, tail = _split(records, data)
        with checked():
            self._resume(trace, records, head, tail)

    @staticmethod
    def _resume(trace, records, head, tail) -> None:
        start = {"start_weekday": trace.start_weekday}
        first = UserDriver(trace.user_id, CONFIG, sink=OracleSink(), **start)
        for chunk in head:
            first.feed(chunk)
        wal = list(first.sink.lines)
        _drive(first, tail, trace.n_days)

        # Resumed from the last WAL state: no closed day is cached yet.
        if wal:
            state = _resume_state(wal[-1])
            resumed = UserDriver(
                trace.user_id, CONFIG, sink=OracleSink(), resume=state, **start
            )
            rest = records[resumed.engine.events:]
            _drive(resumed, _chunks(rest, [len(rest) // 2]), trace.n_days)


def test_round_trip_hands_over_the_cached_text(trace, records):
    """The engine a round trip restores reuses the text of the days it
    decoded, and serializes to the same bytes."""
    with checked():
        _hand_over(trace, records)


def _hand_over(trace, records) -> None:
    engine = OnlineNetMaster(trace.user_id, start_weekday=trace.start_weekday)
    cut = next(i for i, r in enumerate(records) if event_time(r) >= 9 * DAY)
    engine.observe_many(records[:cut])
    payload = engine.to_json()
    restored = OnlineNetMaster.from_json(payload)
    restored.habits.take_encoded(engine.habits)
    for daytype, days in restored.habits._days.items():
        theirs = engine.habits._days[daytype]
        assert [d.text for d in days] == [d.text for d in theirs]
        assert all(d.text is not None for d in days)
    assert restored.to_json() == payload
