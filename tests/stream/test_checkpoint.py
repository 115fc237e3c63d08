"""OnlineNetMaster checkpoint hardening: one strict loader, typed errors."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import CheckpointError, OnlineNetMaster, stream_trace

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
        engine = OnlineNetMaster.from_json(payload)
        assert engine.events > 0
        assert engine.to_json() == payload

    def test_truncated_json_raises_checkpoint_error(self, payload):
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            OnlineNetMaster.from_json(payload[: len(payload) // 2])

    def test_unknown_format_raises_checkpoint_error(self, payload):
        doc = json.loads(payload)
        doc["format"] = 999
        with pytest.raises(CheckpointError, match="format"):
            OnlineNetMaster.from_json(json.dumps(doc))

    def test_checkpoint_error_is_a_value_error(self):
        # Pre-hardening callers caught ValueError; they must keep working.
        assert issubclass(CheckpointError, ValueError)

    def test_from_json_never_leaks_json_decode_error(self):
        with pytest.raises(CheckpointError):
            OnlineNetMaster.from_json("{not json")


class TestWrongShapedCore:
    """A core part of another JSON type is a typed error, not a crash."""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.__setitem__("habits", []),
            lambda doc: doc.__setitem__("config", []),
            lambda doc: doc["habits"].__setitem__("pending_rows", 3),
        ],
        ids=["habits-list", "config-list", "pending-rows-number"],
    )
    def test_typed_strict(self, damage):
        doc = OnlineNetMaster("u").state_dict()
        damage(doc)
        with pytest.raises(CheckpointError, match="corrupt stream checkpoint"):
            OnlineNetMaster.from_json(json.dumps(doc))


@pytest.fixture(scope="module")
def mid_stream(volunteers):
    """A real mid-stream checkpoint: closed and pending habit rows,
    executed days, an open-day buffer and a monitor quarantine window."""
    volunteer = volunteers[0]
    engine = OnlineNetMaster(volunteer.user_id, train_days=8)
    records = list(stream_trace(volunteer))
    engine.observe_many(records[: 3 * len(records) // 4])
    engine.drain()
    engine.quarantined_until = engine.day + 1
    doc = engine.state_dict()
    assert doc["buffers"] and doc["habits"]["pending_rows"]
    assert all(doc["habits"]["rows"].values())
    return doc


class TestInconsistentHabitState:
    """Documents whose fields all have their JSON types but whose habit
    state no engine writes.  Loaded, they would raise a bare error at a
    later day close or count closed days wrongly, so they are refused."""

    def test_counts_missing_a_day_type_are_refused(self, mid_stream):
        doc = json.loads(json.dumps(mid_stream))
        del doc["habits"]["counts"]["weekend"]
        with pytest.raises(CheckpointError, match="disagree"):
            OnlineNetMaster.from_state(doc)

    @pytest.mark.parametrize("field", ["counts", "rows"])
    def test_an_extra_day_type_is_refused(self, mid_stream, field):
        doc = json.loads(json.dumps(mid_stream))
        doc["habits"][field]["holiday"] = 0 if field == "counts" else []
        with pytest.raises(CheckpointError):
            OnlineNetMaster.from_state(doc)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_counts_that_disagree_with_the_rows_are_refused(self, mid_stream, delta):
        doc = json.loads(json.dumps(mid_stream))
        doc["habits"]["counts"]["weekday"] += delta
        with pytest.raises(CheckpointError, match="disagree"):
            OnlineNetMaster.from_state(doc)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_next_day_off_the_engine_day_is_refused(self, mid_stream, delta):
        doc = json.loads(json.dumps(mid_stream))
        doc["habits"]["next_day"] += delta
        with pytest.raises(CheckpointError, match="engine is on day"):
            OnlineNetMaster.from_state(doc)


class TestFixedFields:
    """Format 1 keeps ``update_model``, ``window_days``, ``decay`` and
    ``frozen`` with one value each, and has no ``adoption_frozen_until``:
    every closed day is kept and folded, and every executed day adopts
    the freshly mined model.  Any other value is refused, even one of
    the same JSON type."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("update_model",), False),
            (("update_model",), 1),
            (("habits", "window_days"), 3),
            (("habits", "decay"), 0.9),
            (("habits", "frozen"), True),
            (("habits", "frozen"), 0),
            (("adoption_frozen_until",), 10**6),
        ],
        ids=lambda v: repr(v),
    )
    def test_any_other_value_is_refused(self, mid_stream, path, value):
        doc = json.loads(json.dumps(mid_stream))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(CheckpointError, match=path[-1]):
            OnlineNetMaster.from_state(doc)


class TestRetypedFields:
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_every_retyped_field_gives_a_typed_outcome(self, mid_stream, data):
        """Each field of the checkpoint, in turn, becomes a value of
        another JSON type or an out-of-range number: the load raises
        only :class:`CheckpointError`, and an engine it returns
        serializes to the plain encoder's bytes."""
        for case, doc in retyped(mid_stream, data):
            with case:
                try:
                    engine = OnlineNetMaster.from_json(json.dumps(doc))
                except CheckpointError:
                    continue
                assert engine.to_json() == json.dumps(engine.state_dict())
