"""Acceptance gate: the HTTP surface equals driving the fleet library
directly — FleetService, ShardedFleetService, and across a
checkpoint/restore cycle performed through the endpoints."""

from __future__ import annotations

import json
from pathlib import Path

from repro.stream.fleet import FleetService, FleetUserSpec
from repro.stream.shards import ShardConfig, ShardedFleetService
from repro.stream.ingest import stream_trace

from tests.service.conftest import service_config
from tests.service.test_http_surface import batch_doc, drive_http


def specs_of(traces) -> list[FleetUserSpec]:
    return [
        FleetUserSpec(
            user_id=t.user_id,
            n_days=t.n_days,
            start_weekday=t.start_weekday,
            trace=t,
        )
        for t in traces
    ]


def assert_savings_match_summary(savings: dict, summary) -> None:
    assert savings["energy_j"] == summary.energy_j
    assert savings["radio_on_s"] == summary.radio_on_s
    assert savings["interrupts"] == summary.interrupts
    assert savings["user_interactions"] == summary.user_interactions
    assert savings["deferred"] == summary.deferred
    assert savings["days_executed"] == summary.days_executed
    assert savings["events"] == summary.events
    assert savings["checkpoints"] == summary.checkpoints


def test_http_equals_fleet_service(server, service_traces):
    config = service_config()
    result = FleetService(config).run(specs_of(service_traces), jobs=1)
    for trace in service_traces:
        drive_http(server, trace, batch_size=900)
    for trace, summary in zip(service_traces, result.summaries):
        assert summary.user_id == trace.user_id
        _, savings = server.request(
            "GET", f"/v1/users/{trace.user_id}/savings"
        )
        assert_savings_match_summary(savings, summary)


def test_http_equals_sharded_fleet_service(make_server, service_traces,
                                           tmp_path):
    config = service_config()
    sharded = ShardedFleetService(
        config, shards=ShardConfig(root=tmp_path / "shards", n_shards=2)
    )
    result = sharded.run(specs_of(service_traces), jobs=1)
    server = make_server(config)
    for trace in service_traces:
        drive_http(server, trace, batch_size=900)
    by_user = {s.user_id: s for s in result.summaries}
    for trace in service_traces:
        _, savings = server.request(
            "GET", f"/v1/users/{trace.user_id}/savings"
        )
        assert_savings_match_summary(savings, by_user[trace.user_id])


def test_checkpoint_restore_through_endpoints(make_server, service_trace,
                                              tmp_path):
    """Half the stream, POST /v1/checkpoint, restore on a *new* server,
    second half there — byte-equal to one uninterrupted server."""
    records = list(stream_trace(service_trace))
    cut = len(records) // 2
    path = str(tmp_path / "service-ckpt.json")
    uid = service_trace.user_id

    straight = make_server()
    drive_http(straight, service_trace, batch_size=800)
    _, straight_dec = straight.request("GET", f"/v1/users/{uid}/decisions")
    _, straight_sav = straight.request("GET", f"/v1/users/{uid}/savings")

    first = make_server(checkpoint_dir=tmp_path)
    status, _ = first.request(
        "POST", f"/v1/users/{uid}/events",
        batch_doc(service_trace, records[:cut]),
    )
    assert status == 200
    status, doc = first.request("POST", "/v1/checkpoint", {"path": path})
    assert status == 200
    assert Path(doc["path"]) == (tmp_path / "service-ckpt.json").resolve()
    assert doc["bytes"] > 0

    second = make_server(checkpoint_dir=tmp_path)
    status, doc = second.request("POST", "/v1/restore", {"path": path})
    assert status == 200
    assert doc["users"] == 1
    status, _ = second.request(
        "POST", f"/v1/users/{uid}/events",
        batch_doc(service_trace, records[cut:]),
    )
    assert status == 200
    status, _ = second.request(
        "POST", f"/v1/users/{uid}/finish", {"n_days": service_trace.n_days}
    )
    assert status == 200

    _, resumed_dec = second.request("GET", f"/v1/users/{uid}/decisions")
    _, resumed_sav = second.request("GET", f"/v1/users/{uid}/savings")
    assert json.dumps(resumed_dec) == json.dumps(straight_dec)
    assert json.dumps(resumed_sav) == json.dumps(straight_sav)


def test_checkpoint_without_path_is_400(make_server):
    server = make_server()  # no --checkpoint configured
    status, doc = server.request("POST", "/v1/checkpoint")
    assert status == 400
    assert doc["error"]["code"] == "no-checkpoint-path"


def test_restore_missing_file_is_400_and_corrupt_is_409(make_server,
                                                        tmp_path):
    server = make_server(checkpoint_dir=tmp_path)
    status, doc = server.request(
        "POST", "/v1/restore", {"path": str(tmp_path / "absent.json")}
    )
    assert status == 400
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    status, doc = server.request("POST", "/v1/restore", {"path": str(bad)})
    assert status == 409
    assert doc["error"]["code"] == "bad-checkpoint"
    # An integer field holding 1e400 (infinity once parsed) is corrupt too.
    overflow = tmp_path / "overflow.json"
    overflow.write_text(
        '{"format": 1, "events_total": 1e400, "users": {}}', encoding="utf-8"
    )
    status, doc = server.request("POST", "/v1/restore", {"path": str(overflow)})
    assert status == 409
    assert doc["error"]["code"] == "bad-checkpoint"
    status, health = server.request("GET", "/health")
    assert status == 200 and health["status"] == "ok"


def test_restore_refuses_inconsistent_habit_state(make_server, service_trace,
                                                  tmp_path):
    """Engine state no engine writes — habit counts without a day type,
    counts off the row lists, a next day off the engine's day, a
    frozen-adoption window — is a 409, and the gateway keeps serving the
    state it had."""
    uid = service_trace.user_id
    records = list(stream_trace(service_trace))
    cut = len(records) // 2
    server = make_server(checkpoint_dir=tmp_path)
    status, _ = server.request(
        "POST", f"/v1/users/{uid}/events", batch_doc(service_trace, records[:cut])
    )
    assert status == 200
    path = tmp_path / "state.json"
    status, _ = server.request("POST", "/v1/checkpoint", {"path": str(path)})
    assert status == 200
    state = json.loads(path.read_text(encoding="utf-8"))
    _, before = server.request("GET", f"/v1/users/{uid}/savings")

    def bump(habits, key, field):
        habits[key][field] = habits[key][field] + 1

    damages = {
        "counts-without-weekend": lambda engine: engine["habits"]["counts"].pop(
            "weekend"
        ),
        "counts-off-rows": lambda engine: bump(engine["habits"], "counts", "weekday"),
        "next-day-off-day": lambda engine: engine["habits"].__setitem__(
            "next_day", engine["habits"]["next_day"] + 1
        ),
        "adoption-frozen-until": lambda engine: engine.__setitem__(
            "adoption_frozen_until", engine["day"] + 2
        ),
    }
    for name, damage in damages.items():
        doc = json.loads(json.dumps(state))
        damage(doc["users"][uid]["engine"])
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        status, reply = server.request("POST", "/v1/restore", {"path": str(bad)})
        assert status == 409, (name, reply)
        assert reply["error"]["code"] == "bad-checkpoint"

    _, after = server.request("GET", f"/v1/users/{uid}/savings")
    assert after == before
    status, _ = server.request(
        "POST", f"/v1/users/{uid}/events", batch_doc(service_trace, records[cut:])
    )
    assert status == 200
    status, _ = server.request(
        "POST", f"/v1/users/{uid}/finish", {"n_days": service_trace.n_days}
    )
    assert status == 200


def test_client_paths_forbidden_without_checkpoint_dir(make_server, tmp_path):
    """No --checkpoint-dir: a client-supplied path is a 403, both ways."""
    server = make_server()
    for endpoint in ("/v1/checkpoint", "/v1/restore"):
        status, doc = server.request(
            "POST", endpoint, {"path": str(tmp_path / "x.json")}
        )
        assert status == 403
        assert doc["error"]["code"] == "path-forbidden"


def test_client_path_escaping_checkpoint_dir_is_403(make_server, tmp_path):
    """Absolute and ../-relative escapes are rejected after resolution;
    paths inside the directory (relative or absolute) are honoured."""
    root = tmp_path / "ckpts"
    root.mkdir()
    server = make_server(checkpoint_dir=root)
    for escape in (
        str(tmp_path / "outside.json"),  # absolute, outside the root
        "../outside.json",               # relative traversal
        "a/../../outside.json",          # nested traversal
    ):
        status, doc = server.request("POST", "/v1/checkpoint", {"path": escape})
        assert status == 403, escape
        assert doc["error"]["code"] == "path-forbidden"
        assert not (tmp_path / "outside.json").exists()
    status, doc = server.request("POST", "/v1/checkpoint", {"path": "in.json"})
    assert status == 200
    assert Path(doc["path"]) == (root / "in.json").resolve()
