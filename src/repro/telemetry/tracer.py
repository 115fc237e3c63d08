"""Span-based tracing over two clocks: simulation time and wall time.

The evaluation pipeline lives on two timelines at once.  *Simulation
time* is the deterministic second-of-day axis the DES and the RRC
machine run on — RRC state residencies, screen sessions, duty-cycle wake
windows and gap-servicer decisions are spans there.  *Wall time* is
where the pipeline's own cost lives — trace generation, habit mining,
knapsack solves and per-day policy replays are spans there.

A :class:`Span` is ``(name, cat, domain, track, start_s, dur_s, pid,
args)``.  ``domain`` is ``"sim"`` or ``"wall"``; ``track`` names the
horizontal lane the span renders on (the tracer's *context* — typically
``"<policy>:<user>:d<day>"`` — prefixes it so concurrent replays of the
same simulated day don't collide).

Exports:

* :meth:`Tracer.to_jsonl` — one span dict per line, grep/pandas food;
* :meth:`Tracer.chrome_trace_events` / :meth:`Tracer.write_chrome` —
  the Chrome trace-event JSON array (``chrome://tracing`` / Perfetto):
  complete events (``"ph": "X"``) with microsecond timestamps, sim-time
  spans under a synthetic pid with one named thread per track, wall
  spans under their real process id.

:class:`NullTracer` is the disabled twin (the default): ``enabled`` is
False, :meth:`span` hands out a shared no-op context manager, and every
record call returns immediately — hot loops guard on ``tracer.enabled``
and pay a single attribute load when tracing is off.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Synthetic pid grouping all simulation-time tracks in chrome exports.
SIM_PID = 1

#: Default cap on retained spans; past it spans are dropped and counted.
DEFAULT_MAX_SPANS = 500_000


@dataclass(slots=True)
class Span:
    """One recorded interval on either timeline."""

    name: str
    cat: str
    domain: str  # "sim" | "wall"
    track: str
    start_s: float
    dur_s: float
    pid: int
    args: dict | None = None

    def as_dict(self) -> dict:
        """JSONL-ready plain dict."""
        out = {
            "name": self.name,
            "cat": self.cat,
            "domain": self.domain,
            "track": self.track,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "pid": self.pid,
        }
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Collects :class:`Span` records and exports them."""

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        #: Lane prefix for sim-domain spans (set per replayed day).
        self.context = ""
        self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------
    @contextmanager
    def sim_context(self, label: str) -> Iterator[None]:
        """Temporarily switch the sim-span lane prefix."""
        previous = self.context
        self.context = label
        try:
            yield
        finally:
            self.context = previous

    def record_span(
        self,
        name: str,
        cat: str,
        start_s: float,
        end_s: float,
        *,
        domain: str = "sim",
        track: str | None = None,
        args: dict | None = None,
    ) -> None:
        """Record one interval; ``end_s < start_s`` is clamped to empty."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        lane = track if track is not None else cat
        if domain == "sim" and self.context:
            lane = f"{self.context}/{lane}"
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                domain=domain,
                track=lane,
                start_s=float(start_s),
                dur_s=max(0.0, float(end_s) - float(start_s)),
                pid=os.getpid(),
                args=args,
            )
        )

    @contextmanager
    def span(
        self, name: str, cat: str = "wall", *, track: str | None = None, **args
    ) -> Iterator[None]:
        """Wall-clock span context manager (perf_counter based)."""
        start = time.perf_counter() - self._epoch
        try:
            yield
        finally:
            end = time.perf_counter() - self._epoch
            self.record_span(
                name,
                cat,
                start,
                end,
                domain="wall",
                track=track,
                args=args or None,
            )

    # -- shipping between processes ------------------------------------
    def export_spans(self) -> list[dict]:
        """Picklable span list (for worker → parent shipping)."""
        return [s.as_dict() for s in self.spans]

    def ingest(self, spans: Iterable[dict]) -> None:
        """Fold shipped span dicts back in (order preserved)."""
        for s in spans:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                continue
            self.spans.append(
                Span(
                    name=s["name"],
                    cat=s["cat"],
                    domain=s["domain"],
                    track=s["track"],
                    start_s=s["start_s"],
                    dur_s=s["dur_s"],
                    pid=s["pid"],
                    args=s.get("args"),
                )
            )

    # -- exports --------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> None:
        """One span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")

    def chrome_trace_events(self) -> list[dict]:
        """The trace-event list for ``chrome://tracing`` / Perfetto.

        Sim spans share :data:`SIM_PID` with one named thread per track;
        wall spans keep their real pid with one thread per track.  Every
        (pid, track) pair gets ``process_name`` / ``thread_name``
        metadata so the viewer labels the lanes.
        """
        events: list[dict] = []
        tids: dict[tuple[int, str], int] = {}
        next_tid: dict[int, int] = {}

        def lane(pid: int, track: str) -> int:
            key = (pid, track)
            tid = tids.get(key)
            if tid is None:
                tid = next_tid.get(pid, 1)
                next_tid[pid] = tid + 1
                tids[key] = tid
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            return tid

        seen_pids: set[int] = set()

        def process(pid: int, label: str) -> None:
            if pid not in seen_pids:
                seen_pids.add(pid)
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "args": {"name": label},
                    }
                )

        for span in self.spans:
            if span.domain == "sim":
                pid = SIM_PID
                process(pid, "simulation time")
            else:
                pid = span.pid + SIM_PID + 1  # keep clear of the sim pid
                process(pid, f"wall clock (pid {span.pid})")
            event = {
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "pid": pid,
                "tid": lane(pid, span.track),
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.dur_s * 1e6, 3),
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        return events

    def write_chrome(self, path: str | Path) -> None:
        """Write the trace-event JSON (``{"traceEvents": [...]}``)."""
        payload = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


@contextmanager
def _null_span() -> Iterator[None]:
    yield


class NullTracer(Tracer):
    """Disabled tracer: records nothing, exports nothing."""

    enabled = False

    def __init__(self) -> None:
        self.max_spans = 0
        self.spans = []
        self.dropped = 0
        self.context = ""
        self._epoch = 0.0

    @contextmanager
    def sim_context(self, label: str) -> Iterator[None]:
        yield

    def record_span(self, *args, **kwargs) -> None:
        pass

    def span(self, name: str, cat: str = "wall", *, track=None, **args):
        return _null_span()

    def ingest(self, spans: Iterable[dict]) -> None:
        pass
