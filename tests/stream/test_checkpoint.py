"""OnlineNetMaster checkpoint hardening: strict errors, lenient salvage."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import CheckpointError, OnlineNetMaster, load_checkpoint, stream_trace

from tests.retyped_fields import NO_SHRINK, retyped


@pytest.fixture()
def payload(volunteer):
    engine = OnlineNetMaster(volunteer.user_id, train_days=10)
    for record in stream_trace(volunteer):
        engine.observe(record)
        engine.drain()
    return engine.to_json()


class TestStrict:
    def test_clean_checkpoint_loads_ok(self, payload):
        load = load_checkpoint(payload)
        assert load.ok and not load.salvaged
        assert load.engine.events > 0

    def test_truncated_json_raises_checkpoint_error(self, payload):
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(payload[: len(payload) // 2])

    def test_unknown_format_raises_checkpoint_error(self, payload):
        doc = json.loads(payload)
        doc["format"] = 999
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(json.dumps(doc))

    def test_checkpoint_error_is_a_value_error(self):
        # Pre-hardening callers caught ValueError; they must keep working.
        assert issubclass(CheckpointError, ValueError)

    def test_from_json_never_leaks_json_decode_error(self):
        with pytest.raises(CheckpointError):
            OnlineNetMaster.from_json("{not json")


class TestLenient:
    def test_truncated_json_reports_instead_of_raising(self, payload):
        load = load_checkpoint(payload[: len(payload) // 2], strict=False)
        assert load.engine is None
        assert not load.ok
        assert any("truncated or corrupt" in issue for issue in load.issues)

    def test_corrupt_day_buffer_is_dropped_and_reported(self, payload):
        doc = json.loads(payload)
        day_key = next(iter(doc["buffers"]), None)
        if day_key is None:
            doc["buffers"]["0"] = {}
            day_key = "0"
        doc["buffers"][day_key] = {"sessions": "not-a-list"}
        load = load_checkpoint(json.dumps(doc), strict=False)
        assert load.salvaged
        assert any(f"day buffer '{day_key}'" in issue for issue in load.issues)

    def test_broken_breaker_salvages_fresh_breaker(self, payload):
        doc = json.loads(payload)
        doc["breaker"] = {"bogus": True}
        load = load_checkpoint(json.dumps(doc), strict=False)
        assert load.salvaged
        assert any("breaker" in issue for issue in load.issues)

    def test_broken_counter_defaults_and_reports(self, payload):
        doc = json.loads(payload)
        doc["events"] = "many"
        load = load_checkpoint(json.dumps(doc), strict=False)
        assert load.salvaged
        assert load.engine.events == 0
        assert any("'events'" in issue for issue in load.issues)

    def test_unusable_core_reports_nothing_salvageable(self, payload):
        doc = json.loads(payload)
        del doc["habits"]
        load = load_checkpoint(json.dumps(doc), strict=False)
        assert load.engine is None
        assert any("nothing salvageable" in issue for issue in load.issues)

    def test_salvaged_engine_keeps_streaming(self, volunteer, payload):
        doc = json.loads(payload)
        doc["breaker"] = {"bogus": True}
        load = load_checkpoint(json.dumps(doc), strict=False)
        engine = load.engine
        completed = engine.finish(volunteer.n_days)
        assert engine.day == volunteer.n_days
        assert isinstance(completed, list)


class TestWrongShapedCore:
    """A core part of another JSON type is an unusable core, not a crash."""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.__setitem__("habits", []),
            lambda doc: doc.__setitem__("config", []),
            lambda doc: doc["habits"].__setitem__("pending_rows", 3),
        ],
        ids=["habits-list", "config-list", "pending-rows-number"],
    )
    def test_reported_lenient_and_typed_strict(self, damage):
        doc = OnlineNetMaster("u").state_dict()
        damage(doc)
        payload = json.dumps(doc)
        load = load_checkpoint(payload, strict=False)
        assert load.engine is None
        assert any("nothing salvageable" in issue for issue in load.issues)
        with pytest.raises(CheckpointError, match="core state"):
            load_checkpoint(payload)


@pytest.fixture(scope="module", params=["unbounded", "window", "decay"])
def mid_stream(request, volunteers):
    """A real mid-stream checkpoint: closed and pending habit rows,
    executed days, an open-day buffer and monitor feedback windows."""
    volunteer = volunteers[0]
    retention = {"unbounded": {}, "window": {"window_days": 3}, "decay": {"decay": 0.9}}
    engine = OnlineNetMaster(volunteer.user_id, train_days=8, **retention[request.param])
    records = list(stream_trace(volunteer))
    engine.observe_many(records[: 3 * len(records) // 4])
    engine.drain()
    engine.quarantined_until = engine.day + 1
    engine.adoption_frozen_until = engine.day + 2
    doc = engine.state_dict()
    assert doc["buffers"] and doc["habits"]["pending_rows"]
    return doc


class TestRetypedFields:
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_every_retyped_field_gives_a_typed_outcome(self, mid_stream, data):
        """Each field of the checkpoint, in turn, becomes a value of
        another JSON type or an out-of-range number: the lenient load
        never raises, the strict one raises only :class:`CheckpointError`
        (exactly when the lenient one reports an issue), and an engine
        either returns serializes to the plain encoder's bytes."""
        for case, doc in retyped(mid_stream, data):
            with case:
                payload = json.dumps(doc)
                lenient = load_checkpoint(payload, strict=False)
                try:
                    strict = load_checkpoint(payload)
                except CheckpointError:
                    assert lenient.issues
                else:
                    assert strict.ok and not lenient.issues
                if lenient.engine is not None:
                    engine = lenient.engine
                    assert engine.to_json() == json.dumps(engine.state_dict())
