"""Async load driver for the fleet service.

Replays a generated cohort against a *running* server over real
sockets: N worker tasks share a queue of users, each worker holds one
keep-alive connection and drives its users through the full lifecycle —
event batches in causal order, ``finish``, then the ``decisions`` and
``savings`` reads.  Every request's wall-clock latency is recorded, and
the report carries sustained events/s plus p50/p95/p99 — the
``service_load`` section of ``BENCH_perf.json``.

The driver is stdlib-only (``asyncio.open_connection`` + hand-rolled
HTTP/1.1), mirroring the server's own transport, so the benchmark
numbers measure the service and not a client framework.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

from repro.service.schemas import record_to_doc
from repro.stream.experiment import fleet_specs
from repro.stream.fleet import FleetUserSpec, _spec_trace
from repro.stream.ingest import stream_trace

#: Default records per ingest batch — roughly one day of events for the
#: generated cohorts, so batches and day closes interleave realistically.
DEFAULT_BATCH_EVENTS = 256


@dataclass
class LoadOptions:
    """Shape of one load run."""

    host: str = "127.0.0.1"
    port: int = 8341
    n_users: int = 8
    n_days: int = 9
    seed: int = 2014
    concurrency: int = 4
    batch_events: int = DEFAULT_BATCH_EVENTS


@dataclass
class _Tally:
    """Mutable counters shared by the worker tasks."""

    events: int = 0
    requests: int = 0
    errors: int = 0
    days_closed: int = 0
    latencies_s: list[float] = field(default_factory=list)


class _Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
            self._reader = self._writer = None

    async def request(
        self, method: str, path: str, doc: object | None = None
    ) -> tuple[int, dict]:
        """One request/response round trip on the keep-alive connection."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status, length, close = await self._read_head()
        payload = await self._reader.readexactly(length) if length else b"{}"
        if close:
            await self.close()
        return status, json.loads(payload)

    async def _read_head(self) -> tuple[int, int, bool]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        return status, length, close


def _batches(spec: FleetUserSpec, batch_events: int) -> list[list[dict]]:
    """A user's whole trace as causally ordered wire batches."""
    records = [record_to_doc(r) for r in stream_trace(_spec_trace(spec))]
    return [
        records[i : i + batch_events]
        for i in range(0, len(records), batch_events)
    ] or [[]]


def percentile(sorted_values: list[float], q: float) -> float:
    """The q-quantile of an ascending list (nearest-rank, 0 on empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


async def _timed(client: _Client, tally: _Tally, method: str, path: str,
                 doc: object | None = None) -> tuple[int, dict]:
    start = time.perf_counter()
    status, payload = await client.request(method, path, doc)
    tally.latencies_s.append(time.perf_counter() - start)
    tally.requests += 1
    if status != 200:
        tally.errors += 1
    return status, payload


async def _worker(
    options: LoadOptions, queue: asyncio.Queue, tally: _Tally
) -> None:
    client = _Client(options.host, options.port)
    await client.connect()
    try:
        while True:
            try:
                spec = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            base = f"/v1/users/{spec.user_id}"
            trace = _spec_trace(spec)
            for batch in _batches(spec, options.batch_events):
                status, doc = await _timed(
                    client, tally, "POST", f"{base}/events",
                    {"events": batch, "start_weekday": trace.start_weekday},
                )
                if status == 200:
                    tally.events += doc.get("accepted", 0)
                    tally.days_closed += doc.get("days_closed", 0)
            status, doc = await _timed(
                client, tally, "POST", f"{base}/finish",
                {"n_days": trace.n_days},
            )
            if status == 200:
                tally.days_closed += doc.get("days_closed", 0)
            await _timed(client, tally, "GET", f"{base}/decisions")
            await _timed(client, tally, "GET", f"{base}/savings")
            queue.task_done()
    finally:
        await client.close()


async def run_load(options: LoadOptions | None = None) -> dict:
    """Drive one full load run; returns the ``service_load`` report."""
    options = options or LoadOptions()
    specs = fleet_specs(
        seed=options.seed, n_users=options.n_users, n_days=options.n_days
    )
    queue: asyncio.Queue = asyncio.Queue()
    for spec in specs:
        queue.put_nowait(spec)
    tally = _Tally()
    start = time.perf_counter()
    workers = [
        asyncio.create_task(_worker(options, queue, tally))
        for _ in range(max(1, options.concurrency))
    ]
    await asyncio.gather(*workers)
    elapsed = time.perf_counter() - start

    probe = _Client(options.host, options.port)
    health = metrics_doc = alerts_doc = {}
    try:
        _, health = await probe.request("GET", "/health")
        _, metrics_doc = await probe.request("GET", "/metrics")
        _, alerts_doc = await probe.request("GET", "/v1/alerts")
    finally:
        await probe.close()

    lat = sorted(tally.latencies_s)
    return {
        "n_users": options.n_users,
        "n_days": options.n_days,
        "concurrency": options.concurrency,
        "batch_events": options.batch_events,
        "events": tally.events,
        "requests": tally.requests,
        "errors": tally.errors,
        "days_closed": tally.days_closed,
        "elapsed_s": elapsed,
        "service_events_per_s": tally.events / elapsed if elapsed > 0 else 0.0,
        "requests_per_s": tally.requests / elapsed if elapsed > 0 else 0.0,
        "latency_p50_s": percentile(lat, 0.50),
        "latency_p95_s": percentile(lat, 0.95),
        "latency_p99_s": percentile(lat, 0.99),
        "health": health,
        "alerts": {
            "monitoring": alerts_doc.get("monitoring", False),
            "published": alerts_doc.get("published", 0),
            "by_kind": alerts_doc.get("by_kind", {}),
            "quarantined_users": alerts_doc.get("quarantined_users", 0),
            "sink_errors": alerts_doc.get("sink_errors", 0),
        },
        "metrics_counters": len(
            metrics_doc.get("overall", {}).get("counters", {})
        ),
    }
