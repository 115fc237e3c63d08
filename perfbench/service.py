"""``service-mixed``: ``python -m repro serve`` driven by an open-loop generator.

Set-up generates a seeded cohort, pre-encodes every HTTP request (event
batches, ``finish`` closes and ``GET`` reads) and starts the server as a
subprocess with the CLI defaults.  The generator then sends each
request at its *due* time, whatever the server is doing: requests are
pipelined on keep-alive connections (at most ``nproc``), each user
pinned to one connection so its batches arrive in order, and every
user interleaved with every other so all engines stay resident.

Each user follows the lifecycle of ``repro.service.loadgen``: its
events in batches of ``DEFAULT_BATCH_EVENTS`` (about one user-day),
``finish``, then ``GET decisions`` and ``GET savings``.  Users stream
on a conveyor: :data:`SLOTS` slots each stream one user after another,
with the slots' start times staggered over one user lifetime, so once
the warm-up has passed the server sees a steady mix of training days,
decision days and reads.  The schedule then runs two measured parts,
set in :data:`PLAN`:

* a fixed-rate phase: ingest and read latency, timed from the due time;
* a ladder of fixed rates: the highest rate whose ingest p99 meets
  :data:`P99_LIMIT_MS` with no growing backlog.

``events_per_s`` is the events ingested per second of server CPU time
over the whole schedule: the rate the single-threaded server sustains
when it is kept busy.  Unlike the in-process workloads' figures it is
not scaled to the reference host speed: no calibration can run during
the schedule without stalling the generator, and passes made around it
made the figure less steady, not more.  Afterwards every user's final
decisions and savings documents must equal ``reference_decisions``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.common import ROOT, Run, check, digest
from perfbench.fleet import cohort
from perfbench.layers import counter_deltas, per_layer_metrics
from repro.service.cli import _config as cli_config
from repro.service.cli import build_parser as cli_parser
from repro.service.gateway import reference_decisions
from repro.service.loadgen import DEFAULT_BATCH_EVENTS, percentile
from repro.service.schemas import record_to_doc
from repro.stream.ingest import stream_trace

#: Days per user (the CLI default trains on 7, so 3 days are decided).
DAYS = 10
#: Ingest p99 a ladder rate must meet, milliseconds.
P99_LIMIT_MS = 50.0
#: Users streaming at once (the conveyor's slots).
SLOTS = 16
#: The reads that follow each user's ``finish``, as in ``loadgen``.
READS = ("decisions", "savings")
#: The schedule after the warm-up: (phase, offered events/s, share of
#: ``--seconds``).  The warm-up runs at the first rate for one user
#: lifetime of every slot.
PLAN = (
    ("fixed", 20_000, 0.35),
    ("ladder-1", 25_000, 0.1),
    ("ladder-2", 30_000, 0.1),
    ("ladder-3", 35_000, 0.1),
    ("ladder-4", 40_000, 0.1),
    ("ladder-5", 45_000, 0.1),
)
#: Seconds to wait for the server's ready line.
READY_TIMEOUT_S = 60.0
#: Seconds to wait for the last answers once every request was sent.
ANSWER_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One pre-encoded request of the schedule."""

    rid: int
    conn: int
    kind: str  # ingest | finish | savings | decisions
    payload: bytes
    events: int
    #: Events offered before this request (what paces its due time).
    offset: int = 0
    phase: int = 0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0


@dataclass
class Schedule:
    users: list[tuple[str, int]]  # (user id, trace index)
    requests: list[Request]
    phases: list[dict] = field(default_factory=list)


def _encode(method: str, path: str, rid: int, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {rid}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def build_schedule(seed: int, seconds: float, conns: int) -> tuple[Schedule, list]:
    """The cohort, every request pre-encoded, and each request's due time."""
    specs = cohort(seed, 1, DAYS)
    bodies = []
    for spec in specs:
        docs = [record_to_doc(r) for r in stream_trace(spec.trace)]
        batches = [docs[i:i + DEFAULT_BATCH_EVENTS]
                   for i in range(0, len(docs), DEFAULT_BATCH_EVENTS)]
        bodies.append([
            (json.dumps({"events": batch, "start_weekday": spec.start_weekday})
             .encode("utf-8"), len(batch))
            for batch in batches
        ])
    lifetime = sum(len(b) for b in bodies) / len(bodies)  # batches per user
    mean_events = sum(n for b in bodies for _, n in b) / len(bodies)
    # Phase ends in cumulative events; the warm-up is one lifetime of all slots.
    warmup = total = SLOTS * mean_events
    ends = []
    for _, rate, share in PLAN:
        total += rate * share * seconds
        ends.append(total)

    finish = json.dumps({"n_days": DAYS}).encode("utf-8")
    schedule = Schedule(users=[], requests=[])
    # Per slot: [user index or None, next batch]; slot s joins at tick s*lifetime/SLOTS.
    slots: list[list] = [[None, 0] for _ in range(SLOTS)]
    joins = [round(s * lifetime / SLOTS) for s in range(SLOTS)]
    events = tick = 0
    while True:
        active = 0
        for s, slot in enumerate(slots):
            if tick < joins[s]:
                active += 1
                continue
            if slot[0] is None:
                if events >= ends[-1]:  # every phase is covered: retire
                    continue
                k = len(schedule.users) % len(bodies)
                slot[0], slot[1] = len(schedule.users), 0
                schedule.users.append((f"s{s:02d}u{len(schedule.users):04d}", k))
            active += 1
            user = slot[0]
            uid, k = schedule.users[user]
            base = f"/v1/users/{uid}"
            if slot[1] < len(bodies[k]):
                body, n = bodies[k][slot[1]]
                _add(schedule, user % conns, "ingest", "POST", f"{base}/events",
                     body, n, events)
                events += n
                slot[1] += 1
            else:
                _add(schedule, user % conns, "finish", "POST", f"{base}/finish",
                     finish, 0, events)
                for kind in READS:
                    _add(schedule, user % conns, kind, "GET", f"{base}/{kind}",
                         b"", 0, events)
                slot[0] = None
        if not active:
            break
        tick += 1
    _pace(schedule, warmup, ends)
    return schedule, specs


def _add(schedule: Schedule, conn: int, kind: str, method: str, path: str,
         body: bytes, events: int, offset: int) -> None:
    rid = len(schedule.requests)
    schedule.requests.append(Request(
        rid, conn, kind, _encode(method, path, rid, body), events, offset=offset))


def _pace(schedule: Schedule, warmup: float, ends: list[float]) -> None:
    """Due times: each request is due when the events before it are offered."""
    bounds = [("warm-up", PLAN[0][1], warmup)] + [
        (name, rate, end) for (name, rate, _), end in zip(PLAN, ends)
    ]
    clock, lo = 0.0, 0.0
    phases = []
    for name, rate, hi in bounds:
        phases.append({"name": name, "rate": rate, "start": clock,
                       "end": clock + (hi - lo) / rate, "lo": lo})
        clock, lo = phases[-1]["end"], hi
    index = 0
    for request in schedule.requests:
        while index + 1 < len(phases) and request.offset >= phases[index + 1]["lo"]:
            index += 1
        ph = phases[index]
        request.phase = index
        request.due = ph["start"] + (request.offset - ph["lo"]) / ph["rate"]
    schedule.phases = [{k: v for k, v in ph.items() if k != "lo"} for ph in phases]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess; always stopped and reaped."""

    def __init__(self, run: Run, *, traced: bool) -> None:
        self.dir = run.tempdir("server")
        self.dump = self.dir / "trace"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_TRACE_CACHE="0")
        args = ["--port", "0"]
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                   "--dump", str(self.dump), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        self._out = open(self.dir / "stdout", "w+b")
        self._err = open(self.dir / "stderr", "w+b")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=self._out,
                                     stderr=self._err, stdin=subprocess.DEVNULL)
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in (self.dir / "stdout").read_text("latin-1").splitlines():
                if line.startswith("repro-service listening on "):
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        err = (self.dir / "stderr").read_text("latin-1")[-2000:]
        raise RuntimeError(f"server did not start: {err}")

    # Both readings come from /proc, so this workload needs Linux.
    def cpu_s(self) -> float:
        """User + system CPU seconds of the running server."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        """Peak resident memory of the running server (``VmHWM``), MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        hwm = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(hwm.split()[1]) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _drive(port: int, schedule: Schedule, conns: int) -> None:
    """Send every request at its due time; stamp send and completion times."""
    links = [await asyncio.open_connection("127.0.0.1", port) for _ in range(conns)]
    # Requests sent but not answered, per connection, in send order.
    pending: list[deque] = [deque() for _ in range(conns)]
    wake = [asyncio.Event() for _ in range(conns)]
    loop_start = time.perf_counter() + 0.05

    async def reader_task(i: int) -> None:
        reader = links[i][0]
        queue = pending[i]
        while True:
            while not queue:
                wake[i].clear()
                await wake[i].wait()
            req = queue[0]
            if req is None:
                return
            try:
                req.status, _ = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                req.status = -1  # counted as failed
            req.done = time.perf_counter() - loop_start
            queue.popleft()

    readers = [asyncio.create_task(reader_task(i)) for i in range(conns)]
    try:
        for req in schedule.requests:
            delay = loop_start + req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = links[req.conn][1]
            req.sent = time.perf_counter() - loop_start
            pending[req.conn].append(req)
            wake[req.conn].set()
            writer.write(req.payload)
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        for i in range(conns):
            pending[i].append(None)
            wake[i].set()
        # A stalled server leaves its requests unanswered (status 0),
        # which counts them as failed instead of hanging the run.
        await asyncio.wait({*readers}, timeout=ANSWER_TIMEOUT_S)
    finally:
        for task in readers:
            task.cancel()
        for _, writer in links:
            writer.close()


async def _fetch_all(port: int, users: list[str]) -> dict:
    """Final decisions and savings of every user (pipelined, one link)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    docs = {}

    async def collect() -> None:
        for uid in users:
            for kind in ("decisions", "savings"):
                status, body = await _read_response(reader)
                check(status == 200, f"GET {kind} of {uid} returned {status}")
                docs[(uid, kind)] = json.loads(body)

    try:
        for uid in users:
            for kind in ("decisions", "savings"):
                writer.write(_encode("GET", f"/v1/users/{uid}/{kind}", -1))
        await writer.drain()
        await asyncio.wait_for(collect(), timeout=ANSWER_TIMEOUT_S)
    finally:
        writer.close()
    return docs


def serve_once(run: Run, schedule: Schedule, conns: int, *, traced: bool) -> dict:
    """Start a server, drive the schedule, fetch the final documents."""
    server = Server(run, traced=traced)
    try:
        cpu0 = server.cpu_s()
        asyncio.run(_drive(server.port, schedule, conns))
        drive_cpu_s = server.cpu_s() - cpu0
        docs = asyncio.run(_fetch_all(server.port, [uid for uid, _ in schedule.users]))
        cpu_s = server.cpu_s() - cpu0
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    dump = None
    if traced:
        dump = json.loads((server.dump / "summary.json").read_text())
        os.replace(server.dump / "spans.jsonl", run.spans_path())
    return {"docs": docs, "cpu_s": cpu_s, "drive_cpu_s": drive_cpu_s,
            "rss_mib": rss, "dump": dump}


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _phase_report(schedule: Schedule, conns: int) -> dict[str, dict]:
    """Latency, lateness and backlog of each phase, keyed by phase name."""
    reports = {}
    for index, ph in enumerate(schedule.phases):
        reqs = [r for r in schedule.requests if r.phase == index]
        if not reqs:
            continue
        writes = [r for r in reqs if r.kind in ("ingest", "finish")]
        reads = [r for r in reqs if r.kind in READS]
        # Refused or failed requests count as missing the limit.
        lat = sorted((r.done - r.due) * 1e3 if r.status == 200 else float("inf")
                     for r in writes)
        read_lat = sorted((r.done - r.due) * 1e3 if r.status == 200 else float("inf")
                          for r in reads)
        start, end = ph["start"], ph["end"]
        backlog_start = sum(1 for r in schedule.requests if r.due < start < r.done)
        backlog_end = sum(1 for r in schedule.requests if r.due < end < r.done)
        events = sum(r.events for r in reqs)
        p99 = percentile(lat, 0.99)
        reports[ph["name"]] = {
            "offered_events_per_s": ph["rate"],
            "requests": len(reqs),
            "events": events,
            "completed_events_per_s": events / max(max(r.done for r in reqs) - start, 1e-9),
            "ingest_p50_ms": percentile(lat, 0.50),
            "ingest_p99_ms": p99,
            "ingest_samples": len(lat),
            "read_p99_ms": percentile(read_lat, 0.99),
            "read_samples": len(read_lat),
            "gen_lag_p99_ms": percentile(sorted((r.sent - r.due) * 1e3 for r in reqs), 0.99),
            "backlog_start": backlog_start,
            "backlog_end": backlog_end,
            "failed": sum(1 for r in reqs if r.status != 200),
            # A rate whose backlog grew never counts as met.
            "met": p99 <= P99_LIMIT_MS and backlog_end <= backlog_start + conns,
        }
    return reports


def _check_documents(docs: dict, schedule: Schedule, refs: list) -> dict:
    """Every user's documents equal the oracle's (user id aside)."""
    for uid, k in schedule.users:
        for kind in ("decisions", "savings"):
            want = dict(refs[k][kind], user_id=uid)
            check(json.dumps(docs[(uid, kind)]) == json.dumps(want),
                  f"{kind} of {uid} differ from reference_decisions")
    return {f"{uid}/{kind}": doc for (uid, kind), doc in sorted(docs.items())}


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def service_mixed(run: Run) -> None:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    conns = min(2, nproc)
    # The server runs with the CLI defaults; the oracle uses the same config.
    config = cli_config(cli_parser().parse_args([]))

    def setup():
        inputs = build_schedule(run.seed, run.seconds, conns)
        Server(run, traced=False).stop()
        return inputs

    (schedule, specs), setup_s = run.setup(setup)
    result = serve_once(run, schedule, conns, traced=False)
    phases = _phase_report(schedule, conns)
    run.attempted = len(schedule.requests)
    run.failed = sum(1 for r in schedule.requests if r.status != 200)
    refs = [reference_decisions(spec.trace, config=config) for spec in specs]
    outputs = _check_documents(result["docs"], schedule, refs)
    out_digest = digest(outputs)
    savings = [doc for key, doc in outputs.items() if key.endswith("/savings")]
    naive = sum(d["naive_energy_j"] for d in savings)
    interactions = sum(d["user_interactions"] for d in savings)
    by_route: dict[str, dict[str, int]] = {}
    for r in schedule.requests:
        route = by_route.setdefault(r.kind, {})
        route[str(r.status)] = route.get(str(r.status), 0) + 1
    fixed = phases["fixed"]
    met = [p["offered_events_per_s"] for name, p in phases.items()
           if p["met"] and name != "warm-up"]
    if run.trace:
        traced = serve_once(run, schedule, conns, traced=True)
        run.failed += sum(1 for r in schedule.requests if r.status != 200)
        check(digest(_check_documents(traced["docs"], schedule, refs)) == out_digest,
              "tracing changed the outputs")
        dump = traced["dump"]
        run.attempted *= 2
        run.metrics = per_layer_metrics(
            dump["recorder"], counters=counter_deltas({}, dump["registry"]),
            other_s=traced["cpu_s"] - dump["recorder"]["root_s"],
            traced_s=traced["cpu_s"], untraced_s=result["cpu_s"],
            setup=run.setup_recorder.summary(),
            # The latency figures hold only if the generator kept time.
            gen_lag_p99_ms=_phase_report(schedule, conns)["fixed"]["gen_lag_p99_ms"],
        )
        run.detail["untraced_digest"] = out_digest
    else:
        # The server is single-threaded: the events it ingests per second
        # of its own CPU time are the rate it sustains when kept busy.
        # Averaged over the whole schedule, this is far steadier than any
        # one phase's completed rate (reported in ``detail``).
        events = sum(r.events for r in schedule.requests)
        run.metric("events_per_s", events / result["drive_cpu_s"], "events/s")
        run.metric("saving_frac", 1.0 - sum(d["energy_j"] for d in savings) / naive,
                   "fraction")
        run.metric("peak_rss_mib", result["rss_mib"], "MiB")
        run.metric("setup_s", (run.import_s + setup_s) / run.host_slowdown("setup"), "s")
    run.detail.update({
        "digest": out_digest,
        "users": len(schedule.users),
        "connections": conns,
        "ingest_p50_ms": fixed["ingest_p50_ms"],
        "ingest_p99_ms": fixed["ingest_p99_ms"],
        "read_p99_ms": fixed["read_p99_ms"],
        "max_rate_events_per_s": max(met) if met else 0,
        "p99_limit_ms": P99_LIMIT_MS,
        "interrupt_ratio": (
            sum(d["interrupts"] for d in savings) / interactions if interactions else 0.0
        ),
        "server_cpu_s": result["drive_cpu_s"],
        "reads_per_write": (
            sum(1 for r in schedule.requests if r.kind in READS)
            / sum(1 for r in schedule.requests if r.kind not in READS)
        ),
        "phases": phases,
        "requests_by_route": by_route,
    })
