"""The wire-document layer: parse/render round trips and rejections."""

from __future__ import annotations

import json

import pytest

from repro.service.schemas import (
    MAX_BATCH_EVENTS,
    SchemaError,
    parse_checkpoint,
    parse_event_batch,
    parse_finish,
    record_to_doc,
    saving_of,
)
from repro.stream.ingest import stream_trace
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession


def test_event_batch_round_trip(service_trace):
    records = list(stream_trace(service_trace))
    doc = {
        "events": [record_to_doc(r) for r in records],
        "start_weekday": service_trace.start_weekday,
    }
    parsed, weekday = parse_event_batch(doc)
    assert weekday == service_trace.start_weekday
    assert parsed == records


def test_record_to_doc_covers_all_kinds():
    assert record_to_doc(ScreenSession(10.0, 20.0))["kind"] == "screen"
    assert record_to_doc(AppUsage(5.0, "mail", 3.0))["kind"] == "usage"
    net = record_to_doc(NetworkActivity(7.0, "sync", 100, 50, 2.0, False))
    assert net["kind"] == "network"
    assert net["screen_on"] is False
    with pytest.raises(TypeError):
        record_to_doc("not a record")


@pytest.mark.parametrize(
    "doc",
    [
        "not an object",
        {},
        {"events": "nope"},
        {"events": [], "start_weekday": 7},
        {"events": [], "start_weekday": "mon"},
        {"events": ["not an object"]},
        {"events": [{"kind": "mystery"}]},
        {"events": [{"kind": "screen", "start": 1.0}]},
        *(
            {"events": [{"kind": "network", "time": 1.0, "app": "a", "down_bytes": 1.0,
                         "up_bytes": 0.0, "duration": 1.0, "screen_on": flag}]}
            for flag in ("false", 0, None)
        ),
        *(
            {"events": [{"kind": "usage", "time": 1.0, "app": app, "duration": 1.0}]}
            for app in (None, 5)
        ),
        # Numbers must be JSON numbers: no strings, booleans or null.
        *(
            {"events": [{"kind": "usage", "time": time, "app": "a", "duration": 1.0}]}
            for time in ("5", True, None, [5.0])
        ),
        {"events": [{"kind": "usage", "time": 1.0, "app": "a", "duration": True}]},
        {"events": [{"kind": "screen", "start": 0.0, "end": "9"}]},
        {"events": [{"kind": "network", "time": 1.0, "app": "a", "down_bytes": False,
                     "up_bytes": 0.0, "duration": 1.0, "screen_on": False}]},
        # An integer no float holds (json.loads parses it as an int).
        {"events": [{"kind": "usage", "time": 10**400, "app": "a", "duration": 1.0}]},
        {"events": [], "start_weekday": True},
    ],
)
def test_bad_event_batches_raise_schema_error(doc):
    with pytest.raises(SchemaError):
        parse_event_batch(doc)


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(
            '{"kind": "network", "time": NaN, "app": "a", "down_bytes": 1.0,'
            ' "up_bytes": 0.0, "duration": 1.0, "screen_on": false}',
            id="nan-time",
        ),
        pytest.param(
            '{"kind": "usage", "time": Infinity, "app": "a", "duration": 1.0}',
            id="infinite-time",
        ),
        pytest.param(
            '{"kind": "usage", "time": 1e400, "app": "a", "duration": 1.0}',
            id="overflowing-time",
        ),
        pytest.param(
            '{"kind": "screen", "start": -Infinity, "end": 1.0}', id="-inf-start"
        ),
        pytest.param('{"kind": "screen", "start": 1.0, "end": NaN}', id="nan-end"),
        pytest.param(
            '{"kind": "network", "time": 1.0, "app": "a", "down_bytes": Infinity,'
            ' "up_bytes": 0.0, "duration": 1.0, "screen_on": false}',
            id="infinite-bytes",
        ),
        pytest.param(
            '{"kind": "usage", "time": 1.0, "app": "a", "duration": NaN}',
            id="nan-duration",
        ),
    ],
)
def test_non_finite_numbers_raise_schema_error(body):
    # json.loads accepts these literals; the schema must not.
    doc = json.loads('{"events": [' + body + "]}")
    with pytest.raises(SchemaError, match="finite"):
        parse_event_batch(doc)


def test_json_integers_are_numbers():
    doc = {"events": [{"kind": "usage", "time": 5, "app": "a", "duration": 2}]}
    (usage,), _ = parse_event_batch(doc)
    assert usage == AppUsage(5.0, "a", 2.0)
    assert isinstance(usage.time, float)


def test_oversized_batch_rejected():
    record = {"kind": "usage", "time": 0.0, "app": "a", "duration": 1.0}
    with pytest.raises(SchemaError, match="cap"):
        parse_event_batch({"events": [record] * (MAX_BATCH_EVENTS + 1)})


def test_parse_finish():
    assert parse_finish({"n_days": 9}) == 9
    for bad in ({}, {"n_days": 0}, {"n_days": -3}, {"n_days": "many"},
                {"n_days": True}, []):
        with pytest.raises(SchemaError):
            parse_finish(bad)


def test_parse_checkpoint():
    assert parse_checkpoint(None) is None
    assert parse_checkpoint({}) is None
    assert parse_checkpoint({"path": "x.json"}) == "x.json"
    with pytest.raises(SchemaError):
        parse_checkpoint({"path": ""})
    with pytest.raises(SchemaError):
        parse_checkpoint({"path": 3})


def test_saving_of():
    assert saving_of(50.0, 100.0) == 0.5
    assert saving_of(1.0, 0.0) == 0.0
