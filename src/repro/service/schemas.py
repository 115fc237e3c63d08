"""Wire documents of the fleet service (the schema layer).

Requests and responses are plain JSON documents.  An event batch is a
list of monitoring records, each a ``kind``-tagged ``screen`` /
``usage`` / ``network`` object; this module is the one owner of that
record format (:func:`parse_event_batch` reads it, :func:`record_to_doc`
writes it).  Response documents are derived from engine outputs with no
lossy formatting — floats are emitted as Python floats, which survive
JSON bit-exactly — so the byte-equality contract between the HTTP
surface and the library
(:func:`repro.service.gateway.reference_decisions`) is meaningful.

Everything that can reject a request raises :class:`SchemaError`; the
HTTP layer maps it to a 400 response.
"""

from __future__ import annotations

import math

from repro.evaluation.metrics import PolicyDayMetrics
from repro.stream.online_netmaster import CompletedDay
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession, TraceRecord

#: Hard cap on records per ingest batch (a schema concern: one batch is
#: one admission unit through the single-writer queue, and an unbounded
#: batch would let one client monopolize the worker).
MAX_BATCH_EVENTS = 50_000

#: How many days past a user's open day one request may move the stream
#: (an ingest batch's last record, or ``finish``'s ``n_days``).  The
#: single writer closes every day it skips, so an unbounded jump would
#: stall every other tenant; a month covers any real upload gap.
MAX_DAYS_AHEAD = 31


class SchemaError(ValueError):
    """A request document failed validation (HTTP 400)."""


def _require_object(doc: object, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _number(obj: dict, key: str) -> float:
    """``obj[key]``, which must be a JSON number, as a finite float.

    ``json.loads`` gives a number as exactly ``float`` or ``int``; a
    string, a boolean (its own type, although ``True`` is an ``int``) or
    ``null`` is refused rather than coerced (``float("5")`` and
    ``float(True)`` would parse), and so is an integer no float holds.
    ``json.loads`` also parses ``NaN``, ``Infinity`` and overflowing
    literals such as ``1e400``; none of them is a usable time, duration
    or size.
    """
    value = obj[key]
    if type(value) is not float:
        if type(value) is not int:
            raise ValueError(f"{key} must be a JSON number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(
                f"{key} must be a finite number, got an integer too large for a float"
            ) from None
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def _app(obj: dict) -> str:
    """``obj["app"]``, which must be a JSON string (``str(None)`` is ``"None"``)."""
    app = obj["app"]
    if not isinstance(app, str):
        raise ValueError(f"app must be a string, got {app!r}")
    return app


def _parse_record(kind: str, obj: dict) -> TraceRecord:
    """Parse one wire record object; raises on anything malformed."""
    if kind == "screen":
        return ScreenSession(_number(obj, "start"), _number(obj, "end"))
    if kind == "usage":
        return AppUsage(_number(obj, "time"), _app(obj), _number(obj, "duration"))
    if kind == "network":
        screen_on = obj["screen_on"]
        if not isinstance(screen_on, bool):  # bool("false") is True
            raise ValueError(f"screen_on must be true or false, got {screen_on!r}")
        return NetworkActivity(
            time=_number(obj, "time"),
            app=_app(obj),
            down_bytes=_number(obj, "down_bytes"),
            up_bytes=_number(obj, "up_bytes"),
            duration=_number(obj, "duration"),
            screen_on=screen_on,
        )
    raise ValueError(f"unknown record kind: {kind!r}")


def parse_event_batch(doc: object) -> tuple[list[TraceRecord], int]:
    """Parse a ``POST .../events`` body into trace records.

    The body is ``{"events": [<record>, ...]}`` with an optional
    ``"start_weekday"`` (0..6, used only when the batch creates the
    user).  Each record is a wire record object: ``{"kind": "screen",
    "start": s, "end": e}``, ``{"kind": "usage", "time": t, "app": a,
    "duration": d}`` or ``{"kind": "network", ...}``.  Numbers must be
    finite JSON numbers, ``app`` a string and ``screen_on`` a boolean.
    Returns ``(records, start_weekday)``.
    """
    doc = _require_object(doc, "event batch")
    events = doc.get("events")
    if not isinstance(events, list):
        raise SchemaError("event batch needs an 'events' list")
    if len(events) > MAX_BATCH_EVENTS:
        raise SchemaError(
            f"event batch holds {len(events)} records; "
            f"the per-batch cap is {MAX_BATCH_EVENTS}"
        )
    start_weekday = doc.get("start_weekday", 0)
    if type(start_weekday) is not int or not 0 <= start_weekday < 7:
        raise SchemaError(
            f"start_weekday must be an integer in [0, 7), got {start_weekday!r}"
        )
    records: list[TraceRecord] = []
    for i, obj in enumerate(events):
        obj = _require_object(obj, f"events[{i}]")
        try:
            records.append(_parse_record(obj.get("kind"), obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"events[{i}] is malformed: {exc}") from exc
    return records, start_weekday


def record_to_doc(record: TraceRecord) -> dict:
    """One trace record as its wire object (inverse of the parse)."""
    if isinstance(record, ScreenSession):
        return {"kind": "screen", "start": record.start, "end": record.end}
    if isinstance(record, AppUsage):
        return {
            "kind": "usage",
            "time": record.time,
            "app": record.app,
            "duration": record.duration,
        }
    if isinstance(record, NetworkActivity):
        return {
            "kind": "network",
            "time": record.time,
            "app": record.app,
            "down_bytes": record.down_bytes,
            "up_bytes": record.up_bytes,
            "duration": record.duration,
            "screen_on": record.screen_on,
        }
    raise TypeError(f"not a trace record: {type(record).__name__}")


def parse_finish(doc: object) -> int:
    """Parse a ``POST .../finish`` body: ``{"n_days": N}``."""
    doc = _require_object(doc, "finish request")
    n_days = doc.get("n_days")
    if type(n_days) is not int or n_days < 1:
        raise SchemaError(f"n_days must be a positive integer, got {n_days!r}")
    return n_days


def parse_checkpoint(doc: object) -> str | None:
    """Parse a checkpoint/restore body: ``{"path": ...}`` (optional)."""
    if doc is None:
        return None
    doc = _require_object(doc, "checkpoint request")
    path = doc.get("path")
    if path is None:
        return None
    if not isinstance(path, str) or not path:
        raise SchemaError(f"path must be a non-empty string, got {path!r}")
    return path


def saving_of(energy_j: float, naive_energy_j: float) -> float:
    """Energy saving vs the always-on baseline (0.0 when unmeasurable)."""
    if naive_energy_j > 0:
        return 1.0 - energy_j / naive_energy_j
    return 0.0


def decision_doc(
    day: CompletedDay, priced: PolicyDayMetrics, naive: PolicyDayMetrics
) -> dict:
    """One causally executed day as its wire record.

    Every field is a pure function of the engine's execution and the
    shared RRC pricing, so a record served over HTTP is byte-equal to
    one computed by driving the library directly.
    """
    ex = day.execution
    return {
        "day": day.day_index,
        "weekday": day.trace.start_weekday,
        "policy": priced.policy,
        "degraded": ex.degraded,
        "planned": ex.plan is not None,
        "activities": len(ex.activities),
        "wake_windows": len(ex.wake_windows),
        "immediate": ex.immediate,
        "deferred": priced.deferred,
        "interrupts": priced.interrupts,
        "user_interactions": priced.user_interactions,
        "energy_j": priced.energy_j,
        "radio_on_s": priced.radio_on_s,
        "transfer_s": priced.transfer_s,
        "naive_energy_j": naive.energy_j,
        "saving": saving_of(priced.energy_j, naive.energy_j),
    }
