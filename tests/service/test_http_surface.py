"""The HTTP surface: status codes, error bodies, health, metrics,
and concurrent clients versus the serial library run."""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import replace

from repro._util import DAY
from repro.service.gateway import reference_decisions
from repro.service.schemas import MAX_DAYS_AHEAD, record_to_doc
from repro.stream.ingest import event_time, stream_trace
from repro.traces.events import NetworkActivity, ScreenSession
from repro.traces.generator import generate_cohort

from tests.service.conftest import service_config


def batch_doc(trace, records) -> dict:
    return {
        "events": [record_to_doc(r) for r in records],
        "start_weekday": trace.start_weekday,
    }


def drive_http(server, trace, *, batch_size=None) -> None:
    records = list(stream_trace(trace))
    size = batch_size or len(records)
    for i in range(0, len(records), size):
        status, doc = server.request(
            "POST",
            f"/v1/users/{trace.user_id}/events",
            batch_doc(trace, records[i : i + size]),
        )
        assert status == 200, doc
    status, doc = server.request(
        "POST", f"/v1/users/{trace.user_id}/finish", {"n_days": trace.n_days}
    )
    assert status == 200, doc


def test_lifecycle_matches_reference(server, service_trace):
    drive_http(server, service_trace, batch_size=700)
    status, decisions = server.request(
        "GET", f"/v1/users/{service_trace.user_id}/decisions"
    )
    assert status == 200
    status, savings = server.request(
        "GET", f"/v1/users/{service_trace.user_id}/savings"
    )
    assert status == 200
    ref = reference_decisions(service_trace, config=service_config())
    assert json.dumps(decisions) == json.dumps(ref["decisions"])
    assert json.dumps(savings) == json.dumps(ref["savings"])

    status, users = server.request("GET", "/v1/users")
    assert status == 200
    assert users == {"users": [service_trace.user_id]}


def test_malformed_json_is_400(server):
    status, doc = server.request(
        "POST", "/v1/users/u1/events", raw_body=b"{not json",
    )
    assert status == 400
    assert doc["error"]["code"] == "bad-json"
    # Valid JSON, invalid schema -> still 400, different tag.
    status, doc = server.request("POST", "/v1/users/u1/events", {"bogus": 1})
    assert status == 400
    assert doc["error"]["code"] == "bad-request"


def test_non_finite_event_time_is_400_and_service_stays_up(server):
    body = (
        b'{"events": [{"kind": "usage", "time": 10.0, "app": "a", "duration": 1.0},'
        b' {"kind": "usage", "time": NaN, "app": "a", "duration": 1.0}]}'
    )
    status, doc = server.request("POST", "/v1/users/u1/events", raw_body=body)
    assert status == 400
    assert doc["error"]["code"] == "bad-request"
    assert "finite" in doc["error"]["message"]
    status, health = server.request("GET", "/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["events"] == 0
    # The causal floor is intact: a later batch starts from zero.
    status, doc = server.request(
        "POST", "/v1/users/u1/events",
        {"events": [{"kind": "usage", "time": 5.0, "app": "a", "duration": 1.0}]},
    )
    assert status == 200, doc


def test_huge_integer_is_400_and_service_stays_up(server):
    """An integer no float holds is a bad request, not a server error."""
    body = (
        b'{"events": [{"kind": "usage", "time": ' + b"9" * 400
        + b', "app": "a", "duration": 1.0}]}'
    )
    status, doc = server.request("POST", "/v1/users/u1/events", raw_body=body)
    assert status == 400
    assert doc["error"]["code"] == "bad-request"
    assert "too large for a float" in doc["error"]["message"]
    status, health = server.request("GET", "/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["events"] == 0
    status, doc = server.request(
        "POST", "/v1/users/u1/events",
        {"events": [{"kind": "usage", "time": 5.0, "app": "a", "duration": 1.0}]},
    )
    assert status == 200, doc


def test_far_future_requests_are_400_and_service_stays_up(server):
    """One request may move a user's stream at most MAX_DAYS_AHEAD days."""
    usage = {"kind": "usage", "time": 10.0, "app": "a", "duration": 1.0}
    status, doc = server.request("POST", "/v1/users/u1/events", {"events": [usage]})
    assert status == 200, doc
    far = {**usage, "time": 2000 * DAY}
    status, doc = server.request("POST", "/v1/users/u1/events", {"events": [far]})
    assert status == 400
    assert doc["error"]["code"] == "bad-request"
    assert "days past the open day" in doc["error"]["message"]
    status, doc = server.request("POST", "/v1/users/u1/finish", {"n_days": 10**6})
    assert status == 400
    assert "days past the open day" in doc["error"]["message"]
    status, savings = server.request("GET", "/v1/users/u1/savings")
    assert status == 200
    assert (savings["day"], savings["events"], savings["days_executed"]) == (0, 1, 0)
    status, health = server.request("GET", "/health")
    assert status == 200 and health["status"] == "ok"
    # At the limit both are accepted.
    last = {**usage, "time": (MAX_DAYS_AHEAD + 1) * DAY - 1.0}
    status, doc = server.request("POST", "/v1/users/u1/events", {"events": [last]})
    assert status == 200 and doc["day"] == MAX_DAYS_AHEAD
    status, doc = server.request(
        "POST", "/v1/users/u1/finish", {"n_days": 2 * MAX_DAYS_AHEAD}
    )
    assert status == 200, doc


def test_contradictory_screen_flag_is_400_and_service_stays_up(make_server):
    """A batch whose records would break an executed day's trace is
    refused whole; the user's stream then carries on unharmed."""
    config = service_config(train_days=7)
    server = make_server(config)
    trace = generate_cohort(10, seed=2014)[0]
    records = list(stream_trace(trace))
    day7 = next(i for i, r in enumerate(records) if event_time(r) >= 7 * DAY)
    day9 = next(i for i, r in enumerate(records) if event_time(r) >= 9 * DAY)
    head, days_7_8, tail = records[:day7], records[day7:day9], records[day9:]
    path = f"/v1/users/{trace.user_id}"

    status, doc = server.request("POST", f"{path}/events", batch_doc(trace, head))
    assert status == 200, doc
    _, savings = server.request("GET", f"{path}/savings")

    # Day 7 closes inside the batch: one screen-off transfer re-tagged on,
    # then one screen session uploaded twice.
    off = next(
        i for i, r in enumerate(days_7_8)
        if isinstance(r, NetworkActivity) and not r.screen_on and r.time < 8 * DAY
    )
    flipped = list(days_7_8)
    flipped[off] = replace(days_7_8[off], screen_on=True)
    first = next(i for i, r in enumerate(days_7_8) if isinstance(r, ScreenSession))
    doubled = days_7_8[: first + 1] + days_7_8[first:]
    for bad, message in (
        (flipped, "tagged screen_on=True"),
        (doubled, "before the previous one ends"),
    ):
        status, doc = server.request("POST", f"{path}/events", batch_doc(trace, bad))
        assert status == 400, doc
        assert doc["error"]["code"] == "bad-request"
        assert message in doc["error"]["message"]
        assert server.request("GET", f"{path}/savings") == (200, savings)

    for batch in (days_7_8, tail):
        status, doc = server.request("POST", f"{path}/events", batch_doc(trace, batch))
        assert status == 200, doc
    status, doc = server.request("POST", f"{path}/finish", {"n_days": trace.n_days})
    assert status == 200, doc
    ref = reference_decisions(trace, config=config)
    for read in ("decisions", "savings"):
        status, doc = server.request("GET", f"{path}/{read}")
        assert status == 200
        assert json.dumps(doc) == json.dumps(ref[read])
    assert server.request("GET", "/health")[1]["status"] == "ok"


def test_unknown_user_is_404(server):
    status, doc = server.request("GET", "/v1/users/stranger/savings")
    assert status == 404
    assert doc["error"]["code"] == "unknown-user"
    status, doc = server.request("GET", "/v1/users/stranger/decisions")
    assert status == 404


def test_unknown_route_and_wrong_method(server):
    status, doc = server.request("GET", "/v1/nope")
    assert status == 404
    assert doc["error"]["code"] == "not-found"
    status, doc = server.request("PUT", "/health")
    assert status == 405
    assert doc["error"]["code"] == "method-not-allowed"


def test_oversized_body_is_413(make_server):
    server = make_server(max_body_bytes=1024)
    status, doc = server.request(
        "POST", "/v1/users/u1/events", raw_body=b"x" * 2048
    )
    assert status == 413
    assert doc["error"]["code"] == "body-too-large"


def raw_exchange(server, payload: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection((server.host, server.port),
                                  timeout=30) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_transfer_encoding_is_rejected(server):
    """Chunked bodies would desync the keep-alive stream (the parser
    only speaks Content-Length), so they are refused with 400+close —
    the smuggling payload never parses as a pipelined request."""
    response = raw_exchange(
        server,
        b"POST /v1/checkpoint HTTP/1.1\r\n"
        b"Host: t\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"\r\n"
        b"2\r\nhi\r\n0\r\n\r\n"
        # A smuggled pipelined request: must never be answered.
        b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"Transfer-Encoding is not supported" in response
    assert response.count(b"HTTP/1.1 ") == 1  # connection closed after the 400


def test_duplicate_content_length_is_rejected(server):
    response = raw_exchange(
        server,
        b"GET /health HTTP/1.1\r\n"
        b"Host: t\r\n"
        b"Content-Length: 0\r\n"
        b"Content-Length: 5\r\n"
        b"\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"duplicate Content-Length" in response


def test_out_of_order_batch_is_409(server, service_trace):
    records = list(stream_trace(service_trace))
    status, _ = server.request(
        "POST",
        f"/v1/users/{service_trace.user_id}/events",
        batch_doc(service_trace, records[:300]),
    )
    assert status == 200
    status, doc = server.request(
        "POST",
        f"/v1/users/{service_trace.user_id}/events",
        batch_doc(service_trace, records[:10]),
    )
    assert status == 409
    assert doc["error"]["code"] == "causality"
    assert "stream went backwards" in doc["error"]["message"]
    # The rejection was atomic: the stream continues from where it was.
    status, after = server.request(
        "POST",
        f"/v1/users/{service_trace.user_id}/events",
        batch_doc(service_trace, records[300:600]),
    )
    assert status == 200
    assert after["events"] == 600


def test_exhausted_budget_is_429(make_server, service_trace):
    server = make_server(service_config(event_budget=50))
    records = list(stream_trace(service_trace))
    status, _ = server.request(
        "POST",
        f"/v1/users/{service_trace.user_id}/events",
        batch_doc(service_trace, records[:50]),
    )
    assert status == 200
    status, doc = server.request(
        "POST",
        f"/v1/users/{service_trace.user_id}/events",
        batch_doc(service_trace, records[50:60]),
    )
    assert status == 429
    assert doc["error"]["code"] == "overloaded"


def test_health_and_metrics(server, service_trace):
    status, health = server.request("GET", "/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["users"] == 0
    # The registry is process-wide (other tests feed it too), so counter
    # assertions are deltas around this server's traffic.
    _, before = server.request("GET", "/metrics")
    ingested_before = before["overall"]["counters"].get(
        "service.events_ingested", 0
    )
    drive_http(server, service_trace)
    status, health = server.request("GET", "/health")
    assert health["users"] == 1
    assert health["events"] > 0
    assert health["days_executed"] > 0

    status, doc = server.request("GET", "/metrics")
    assert status == 200
    assert doc["schema"] == 1
    counters = doc["overall"]["counters"]
    assert counters["service.req.ingest"] >= 1
    assert counters["service.req.health"] >= 2
    assert (
        counters["service.events_ingested"] - ingested_before
        == health["events"]
    )
    latency = doc["overall"]["histograms"]["service.latency_s.ingest"]
    assert latency["count"] >= 1
    assert latency["sum_micro"] > 0
    # Fleet-scale instruments are pre-registered by the gateway so they
    # appear in /metrics even before any fleet run spills or batches.
    assert "fleet.summaries_spilled" in counters
    gauges = doc["overall"]["gauges"]
    assert gauges["fleet.active_users"] >= 1
    assert gauges["fleet.peak_rss_bytes"] > 0


def test_concurrent_clients_equal_serial_library_run(server, service_traces):
    """Three clients race their own users; every result equals the
    single-threaded library drive."""
    errors: list = []

    def client(trace) -> None:
        try:
            drive_http(server, trace, batch_size=500)
        except Exception as exc:  # surfaced below
            errors.append((trace.user_id, exc))

    threads = [
        threading.Thread(target=client, args=(trace,))
        for trace in service_traces
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    config = service_config()
    for trace in service_traces:
        _, decisions = server.request(
            "GET", f"/v1/users/{trace.user_id}/decisions"
        )
        _, savings = server.request(
            "GET", f"/v1/users/{trace.user_id}/savings"
        )
        ref = reference_decisions(trace, config=config)
        assert json.dumps(decisions) == json.dumps(ref["decisions"])
        assert json.dumps(savings) == json.dumps(ref["savings"])
