"""Span tracing from outside the program: wrap public functions per layer.

A :class:`Recorder` keeps one span per wrapped call in memory (name,
start, end, parent, request id) and folds each span's *self time* —
its duration minus the time of its child spans — into per-layer
totals.  :func:`install` patches every layer boundary where its caller
looks it up (module globals for functions, class attributes for
methods) and returns an undo callable, so one process can time an
untraced and a traced call back to back.

Coroutines (the HTTP server's request reader and dispatcher) are timed
step by step: each resumption between two awaits is a slice of busy
time, so a span that waits on the network is charged only for the work
it did.  Synchronous spans opened inside a step nest under it.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import time
from pathlib import Path

#: Request id of the work in progress (per asyncio task in the server,
#: per user in the fleet workloads).
CURRENT_RID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_rid", default=None
)


class _Frame:
    __slots__ = ("index", "name", "child_s")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.child_s = 0.0


class Recorder:
    """In-memory span store with per-layer self-time totals."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, rid]`` per span, in open order.
        self.spans: list[list] = []
        self.stack: list[_Frame] = []
        #: layer -> [calls, self_s]
        self.totals: dict[str, list] = {}
        #: Counters recorded at the same boundaries (bytes, days, lookups).
        self.counts: dict[str, float] = {}
        #: Samples for percentile metrics (queue waits), in seconds.
        self.samples: dict[str, list[float]] = {}
        #: Summed duration of spans that had no parent span.
        self.root_s = 0.0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def open_span(self, name: str, start: float) -> _Frame:
        """Record a span under the innermost open one (not pushed)."""
        parent = self.stack[-1].index if self.stack else -1
        self.spans.append([name, start, start, parent, CURRENT_RID.get()])
        return _Frame(len(self.spans) - 1, name)

    def finish(self, frame: _Frame, end: float, duration: float) -> None:
        """Close a span whose busy time was ``duration``."""
        self.spans[frame.index][2] = end
        total = self.totals.setdefault(frame.name, [0, 0.0])
        total[0] += 1
        total[1] += duration - frame.child_s
        if self.stack:
            self.stack[-1].child_s += duration
        else:
            self.root_s += duration

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (the end-of-run dump)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Totals, counters and samples as one JSON-safe document."""
        return {
            "totals": self.totals,
            "counts": self.counts,
            "samples": self.samples,
            "root_s": self.root_s,
            "spans": len(self.spans),
        }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _wrap_sync(rec: Recorder, name: str, fn, *, after=None, rid=None, fold=()):
    """Time ``fn`` as layer ``name``.

    ``after(rec, args, result)`` records counters; ``rid(args)`` names
    the request the call serves when no outer call named one; calls made
    while a layer in ``fold`` (or ``name`` itself) is innermost stay part
    of that span.
    """
    folded = frozenset(fold) | {name}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if stack and stack[-1].name in folded:
            return fn(*args, **kwargs)
        # The outermost request id wins: a user's day inside an HTTP
        # request keeps the request's id.
        token = (CURRENT_RID.set(rid(args))
                 if rid is not None and CURRENT_RID.get() is None else None)
        start = time.perf_counter()
        frame = rec.open_span(name, start)
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            rec.finish(frame, end, end - start)
            if token is not None:
                CURRENT_RID.reset(token)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


class _TimedAwait:
    """Drive a coroutine step by step, charging each step to one span."""

    __slots__ = ("rec", "name", "coro", "before", "rid_of")

    def __init__(self, rec: Recorder, name: str, coro, before, rid_of) -> None:
        self.rec = rec
        self.name = name
        self.coro = coro
        self.before = before
        self.rid_of = rid_of

    def __await__(self):
        rec = self.rec
        it = self.coro.__await__()
        frame = None
        busy = 0.0
        send = error = None
        while True:
            t0 = time.perf_counter()
            if frame is None:
                if self.before is not None:
                    self.before()
                frame = rec.open_span(self.name, t0)
            # The span is on the stack only while its own code runs, so
            # spans of other tasks never nest under it.
            rec.stack.append(frame)
            try:
                if error is not None:
                    yielded = it.throw(error)
                else:
                    yielded = it.send(send)
            except StopIteration as stop:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.finish(frame, t1, busy + (t1 - t0))
                if self.rid_of is not None:
                    rec.spans[frame.index][4] = self.rid_of(stop.value)
                return stop.value
            except BaseException:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.finish(frame, t1, busy + (t1 - t0))
                raise
            busy += time.perf_counter() - t0
            rec.stack.pop()
            try:
                send, error = (yield yielded), None
            except BaseException as exc:  # thrown in by the event loop
                send, error = None, exc


def _wrap_async(rec: Recorder, name: str, fn, *, before=None, rid_of=None):
    """Time coroutine function ``fn`` as layer ``name`` (busy time only).

    ``before(args)`` runs when the coroutine first starts;
    ``rid_of(result)`` names the request once it has been read.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook = None if before is None else functools.partial(before, args)
        return _TimedAwait(rec, name, fn(*args, **kwargs), hook, rid_of)

    return wrapper


def _wrap_count(rec: Recorder, fn, after):
    """Count at a boundary without opening a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(rec, args, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------


def _bytes_out(rec, args, result):
    rec.count("stream.checkpoint.bytes", len(result))


def _bytes_in(rec, args, result):
    rec.count("stream.checkpoint.bytes", len(args[1]))


def _one_day(rec, args, result):
    rec.count("pricing.days", 1)


def _many_days(rec, args, result):
    rec.count("pricing.days", len(result))


def _wal_bytes(rec, args, result):
    rec.count("wal.append.bytes", len(result) + 1)


def _replayed(rec, args, result):
    rec.count("wal.replayed_records", result.replayed_records)


def _memo_lookup(rec, args, result):
    rec.count("core.solve.memo_lookups", 1)


def _user_of_trace(args):
    return args[0].user_id


def _user_of_day(args):
    return args[1].user_id


#: Engine, model, solver, pricing, policy, monitor and WAL boundaries:
#: (module, class or None, attribute, layer, options).
ENGINE_LAYERS = (
    ("repro.stream.fleet", None, "stream_one_user", "stream.drive",
     {"rid": _user_of_trace}),
    ("repro.stream.fleet", None, "stream_one_user_monitored", "stream.drive",
     {"rid": _user_of_trace}),
    ("repro.stream.shards.service", None, "stream_user_durable", "stream.drive",
     {"rid": _user_of_trace}),
    ("repro.stream.online_netmaster", "OnlineNetMaster", "observe",
     "stream.observe", {}),
    ("repro.stream.online_netmaster", "OnlineNetMaster", "to_json",
     "stream.checkpoint", {"after": _bytes_out}),
    ("repro.stream.online_netmaster", "OnlineNetMaster", "from_json",
     "stream.checkpoint", {"after": _bytes_in}),
    ("repro.stream.online_netmaster", "OnlineNetMaster", "state_dict",
     "stream.state_dict", {"fold": ("stream.checkpoint",)}),
    ("repro.stream.online_habits", "OnlineHabitModel", "to_model",
     "habits.to_model", {}),
    ("repro.habits.prediction", "HabitModel", "fit", "habits.fit", {}),
    ("repro.core.netmaster", "NetMaster", "adopt_model", "core.adopt_model", {}),
    ("repro.core.netmaster", "NetMaster", "execute_day", "core.execute_day", {}),
    ("repro.core.scheduler", "NetMasterScheduler", "plan", "core.plan", {}),
    ("repro.core.scheduler", None, "solve_overlapped", "core.solve", {}),
    ("repro.stream.fleet", None, "measure_outcome", "pricing",
     {"after": _one_day}),
    ("repro.stream.fleet", None, "measure_outcomes_columnar", "pricing",
     {"after": _many_days}),
    ("repro.core.batch", None, "measure_outcomes_columnar", "pricing",
     {"after": _many_days}),
    ("repro.service.gateway", None, "measure_outcome", "pricing",
     {"after": _one_day}),
    ("repro.monitor.feedback", None, "measure_outcome", "pricing",
     {"after": _one_day}),
    ("repro.baselines.naive", "NaivePolicy", "execute_day", "baselines.execute",
     {"rid": _user_of_day}),
    ("repro.baselines.oracle", "OraclePolicy", "execute_day", "baselines.execute",
     {"rid": _user_of_day}),
    ("repro.baselines.delay_batch", "DelayBatchPolicy", "execute_day",
     "baselines.execute", {"rid": _user_of_day}),
    ("repro.baselines.netmaster_policy", "NetMasterPolicy", "execute_day",
     "baselines.execute", {"rid": _user_of_day}),
    ("repro.monitor.feedback", "UserMonitor", "feed_days", "monitor.feed", {}),
    ("repro.monitor.feedback", "UserMonitor", "feed", "monitor.feed", {}),
    ("repro.stream.shards.store", "ShardStore", "append", "wal.append", {}),
    ("repro.stream.shards.store", "ShardStore", "compact", "wal.compact", {}),
    ("repro.stream.shards.store", "ShardStore", "recover", "wal.recover",
     {"after": _replayed}),
)

#: Counting-only boundaries: (module, class or None, attribute, after).
COUNTERS = (
    ("repro.stream.shards.wal", None, "encode_record", _wal_bytes),
    ("repro.core.knapsack", "SolutionMemo", "get", _memo_lookup),
)


def _rid_of_request(request):
    return None if request is None else request.headers.get("x-request-id")


def _set_rid_from_request(args) -> None:
    # ServiceApp._dispatch(self, request): the client stamps each request.
    CURRENT_RID.set(args[1].headers.get("x-request-id"))


def _wrap_call(rec: Recorder, fn):
    """``ServiceApp.call``: stamp queue depth, then queue wait at dequeue."""

    @functools.wraps(fn)
    def wrapper(app, job):
        rid = CURRENT_RID.get()
        enqueued = time.perf_counter()
        depth = app.queue_depth + 1
        if depth > rec.counts.get("service.queue_depth_max", 0):
            rec.counts["service.queue_depth_max"] = depth

        def stamped(gateway):
            rec.sample("service.queue_wait_s", time.perf_counter() - enqueued)
            token = CURRENT_RID.set(rid)
            try:
                return job(gateway)
            finally:
                CURRENT_RID.reset(token)

        return fn(app, stamped)

    return wrapper


#: HTTP server boundaries (installed inside the server process only).
SERVICE_LAYERS = (
    ("repro.service.http", None, "read_request", "service.read_request",
     {"kind": "async", "rid_of": _rid_of_request}),
    ("repro.service.http", "ServiceApp", "_dispatch", "service.dispatch",
     {"kind": "async", "before": _set_rid_from_request}),
    ("repro.service.http", None, "render_response", "service.render", {}),
    ("repro.service.routes", None, "parse_event_batch", "service.parse", {}),
    ("repro.service.gateway", "FleetGateway", "ingest", "service.gateway", {}),
    ("repro.service.gateway", "FleetGateway", "finish", "service.gateway", {}),
    ("repro.service.gateway", "FleetGateway", "decisions", "service.reads", {}),
    ("repro.service.gateway", "FleetGateway", "savings", "service.reads", {}),
)


def _patch(undo: list, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(function)``; keep the original."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, attr, new)
    undo.append((owner, attr, raw))


def install(rec: Recorder, *, service: bool = False):
    """Wrap every layer boundary; returns a callable that undoes it."""
    undo: list = []
    table = ENGINE_LAYERS + (SERVICE_LAYERS if service else ())
    for module, cls, attr, layer, opts in table:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        if opts.get("kind") == "async":
            _patch(undo, owner, attr,
                   lambda fn, layer=layer, opts=opts:
                   _wrap_async(rec, layer, fn, before=opts.get("before"),
                               rid_of=opts.get("rid_of")))
        else:
            _patch(undo, owner, attr,
                   lambda fn, layer=layer, opts=opts:
                   _wrap_sync(rec, layer, fn, after=opts.get("after"),
                              rid=opts.get("rid"), fold=opts.get("fold", ())))
    for module, cls, attr, after in COUNTERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        _patch(undo, owner, attr, lambda fn, after=after: _wrap_count(rec, fn, after))
    if service:
        from repro.service.http import ServiceApp

        _patch(undo, ServiceApp, "call", lambda fn: _wrap_call(rec, fn))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        undo.clear()

    return uninstall
