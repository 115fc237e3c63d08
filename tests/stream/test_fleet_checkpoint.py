"""FleetService.checkpoint: atomic writes, exact round-trips, errors."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netmaster import NetMasterConfig
from repro.stream import CheckpointError, FleetConfig, FleetService, FleetUserSpec

from tests.retyped_fields import NO_SHRINK, retyped

CONFIG = FleetConfig(
    train_days=10, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)


@pytest.fixture(scope="module")
def result(volunteers):
    specs = [
        FleetUserSpec(user_id=t.user_id, n_days=t.n_days, trace=t) for t in volunteers
    ]
    return FleetService(CONFIG).run(specs)


class TestRoundTrip:
    def test_load_rebuilds_an_equal_result(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        FleetService.checkpoint(path, result)
        loaded = FleetService.load_checkpoint(path)
        assert loaded.summaries == result.summaries
        assert loaded.shed_users == result.shed_users
        assert loaded.elapsed_s == result.elapsed_s

    def test_write_leaves_no_temp_files(self, result, tmp_path):
        FleetService.checkpoint(tmp_path / "fleet.json", result)
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.json"]

    def test_overwrite_is_atomic_replace(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("old document")
        FleetService.checkpoint(path, result)
        doc = json.loads(path.read_text())
        assert doc["format"] == 2

    def test_rollup_round_trips_bit_exactly(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        FleetService.checkpoint(path, result)
        loaded = FleetService.load_checkpoint(path)
        assert loaded.rollup == result.rollup


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            FleetService.load_checkpoint(tmp_path / "nope.json")

    def test_truncated_json(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        FleetService.checkpoint(path, result)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError, match="unreadable"):
            FleetService.load_checkpoint(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"format": 99, "summaries": []}))
        with pytest.raises(CheckpointError, match="format"):
            FleetService.load_checkpoint(path)

    def test_structurally_broken_document(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps({"format": 2, "summaries": [{"user_id": "u"}]})
        )
        with pytest.raises(CheckpointError, match="corrupt"):
            FleetService.load_checkpoint(path)

    def test_old_format_raises_strict(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps({"format": 1, "summaries": [], "shed_users": 0, "elapsed_s": 0.1})
        )
        with pytest.raises(CheckpointError, match="format"):
            FleetService.load_checkpoint(path)


class TestLenientLoad:
    def test_current_format_loads_clean(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        FleetService.checkpoint(path, result)
        load = FleetService.load_checkpoint(path, strict=False)
        assert load.ok and not load.salvaged
        assert load.result.summaries == result.summaries
        assert load.result.rollup == result.rollup

    def test_format_1_upgrades_by_refolding(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "summaries": [s.as_dict() for s in result.summaries],
                    "shed_users": result.shed_users,
                    "elapsed_s": result.elapsed_s,
                }
            )
        )
        load = FleetService.load_checkpoint(path, strict=False)
        assert load.salvaged
        assert any("pre-rollup" in issue for issue in load.issues)
        assert load.result.summaries == result.summaries
        assert load.result.rollup == result.rollup
        assert load.result.shed_users == result.shed_users

    def test_format_1_drops_corrupt_summaries(self, result, tmp_path):
        docs = [s.as_dict() for s in result.summaries]
        docs.insert(1, {"user_id": "broken"})
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                {"format": 1, "summaries": docs, "shed_users": 0, "elapsed_s": 0.5}
            )
        )
        load = FleetService.load_checkpoint(path, strict=False)
        assert load.salvaged
        assert any("dropped" in issue for issue in load.issues)
        assert load.result.summaries == result.summaries

    def test_unreadable_document_yields_no_result(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{ torn")
        load = FleetService.load_checkpoint(path, strict=False)
        assert load.result is None and not load.ok
        assert any("unreadable" in issue for issue in load.issues)

    def test_unknown_format_yields_no_result(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"format": 99}))
        load = FleetService.load_checkpoint(path, strict=False)
        assert load.result is None
        assert any("format" in issue for issue in load.issues)


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_every_retyped_field_gives_a_typed_outcome(result, tmp_path_factory, data):
    """Each field of the fleet document, in turn, becomes a value of
    another JSON type or an out-of-range number: the lenient load never
    raises, and the strict one raises only :class:`CheckpointError`,
    exactly when the lenient one reports an issue."""
    root = tmp_path_factory.mktemp("retyped")
    FleetService.checkpoint(root / "fleet.json", result)
    fleet_doc = json.loads((root / "fleet.json").read_text())
    path = root / "retyped.json"
    for case, doc in retyped(fleet_doc, data):
        with case:
            path.write_text(json.dumps(doc))
            lenient = FleetService.load_checkpoint(path, strict=False)
            try:
                FleetService.load_checkpoint(path)
            except CheckpointError:
                assert lenient.issues
            else:
                assert not lenient.issues


def test_format_1_summary_that_cannot_fold_is_dropped(result, tmp_path):
    """A pre-rollup summary whose per-day energy overflows (an executed-day
    count no float holds) is dropped with an issue, not raised."""
    docs = [s.as_dict() for s in result.summaries]
    docs[0]["days_executed"] = 2**1100
    path = tmp_path / "fleet.json"
    path.write_text(
        json.dumps({"format": 1, "summaries": docs, "shed_users": 0, "elapsed_s": 0.5})
    )
    load = FleetService.load_checkpoint(path, strict=False)
    assert any("summary #0 corrupt (OverflowError" in issue for issue in load.issues)
    assert load.result.summaries == result.summaries[1:]
    assert load.result.rollup.users == len(result.summaries) - 1


def test_overflowing_integer_is_a_typed_error(result, tmp_path):
    """``1e400`` parses as infinity: an integer field holding it is a
    :class:`CheckpointError` strictly and an issue leniently."""
    path = tmp_path / "fleet.json"
    FleetService.checkpoint(path, result)
    doc = json.loads(path.read_text())
    doc["summaries"][0]["events"] = "1e400"
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    load = FleetService.load_checkpoint(path, strict=False)
    assert load.result is None and "OverflowError" in load.issues[0]
    with pytest.raises(CheckpointError, match="OverflowError"):
        FleetService.load_checkpoint(path)
