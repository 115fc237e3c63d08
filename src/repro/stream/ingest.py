"""Event-stream ingestion (the online engine's front door).

A *stream* here is an iterator of trace records — screen sessions, app
usages, network activities — ordered by start time.
:func:`stream_trace` yields an in-memory trace's records lazily through
a ``heapq.merge`` of its three time-ordered event lists.

``heapq.merge`` is stable for equal keys — records from an earlier
source win ties, and records within one source never reorder — so
downstream accumulation (:mod:`repro.stream.online_habits`) sees the
exact per-kind event order the offline fit iterates in, which is what
makes bit-exact parity possible.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.traces.events import ScreenSession, Trace, TraceRecord


def event_time(record: TraceRecord) -> float:
    """The chronological sort key of a record: its start time."""
    if isinstance(record, ScreenSession):
        return record.start
    return record.time


def stream_trace(trace: Trace) -> Iterator[TraceRecord]:
    """All records of a trace in chronological (start-time) order.

    Sessions sort ahead of usages, and usages ahead of activities, on
    exact start-time ties (merge stability over source order) — the same
    precedence a phone's monitoring component would log them with.
    """
    return heapq.merge(
        trace.screen_sessions, trace.usages, trace.activities, key=event_time
    )
