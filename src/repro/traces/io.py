"""Trace serialization: JSONL and CSV round-tripping.

Generated cohorts can be persisted and re-loaded so experiments need not
regenerate traces, and so external traces in the same schema can be fed to
the library.  JSONL keeps one event per line with a ``kind`` tag; CSV
writes three sibling files (``*_sessions.csv``, ``*_usages.csv``,
``*_activities.csv``).

Two loading modes exist for each format.  The strict loaders
(:func:`trace_from_jsonl`, :func:`trace_from_csv`) raise on the first
malformed record — right for traces this library wrote itself.  The
lenient loaders (:func:`trace_from_jsonl_lenient`,
:func:`trace_from_csv_lenient`) accept what a real fleet uploads:
truncated lines, corrupt JSON, impossible values, and sessions that
contradict activity flags are skipped (or repaired) and *reported*
instead of crashing the pipeline, so one bad phone cannot poison a
cohort-wide ingest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

from repro._util import DAY
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession, Trace

_FORMAT_VERSION = 1

#: What :func:`iter_trace_records` yields after the header.
TraceRecord = Union[ScreenSession, AppUsage, NetworkActivity]


@dataclass(frozen=True, slots=True)
class TraceHeader:
    """The metadata line of a JSONL trace file.

    Always the first item yielded by :func:`iter_trace_records`; carries
    everything needed to build a :class:`Trace` around the event records
    that follow.
    """

    user_id: str
    n_days: int
    start_weekday: int


@dataclass
class TraceLoadReport:
    """What a lenient load skipped or repaired.

    ``skipped`` maps a human-readable location (e.g. ``"line 17"``) to
    the reason the record was dropped; ``repaired_screen_flags`` counts
    activities whose ``screen_on`` flag was recomputed to match the
    surviving screen sessions.
    """

    skipped: list[tuple[str, str]] = field(default_factory=list)
    repaired_screen_flags: int = 0

    @property
    def n_skipped(self) -> int:
        """Number of records dropped."""
        return len(self.skipped)

    @property
    def clean(self) -> bool:
        """Whether the file loaded without any skip or repair."""
        return not self.skipped and self.repaired_screen_flags == 0


def _build_trace_lenient(
    header: dict,
    sessions: list[ScreenSession],
    usages: list[AppUsage],
    activities: list[NetworkActivity],
    report: TraceLoadReport,
) -> Trace:
    """Assemble a valid :class:`Trace` from possibly-inconsistent parts.

    Sessions that start before 0, overlap a kept neighbour or spill past
    the trace horizon, and usages and activities outside ``[0, horizon)``,
    are dropped (reported); activity ``screen_on`` flags are then
    recomputed against the surviving sessions so the Trace invariants
    hold by construction.
    """
    n_days = int(header["n_days"])
    horizon = n_days * DAY
    kept_sessions: list[ScreenSession] = []
    prev_end = float("-inf")
    for s in sorted(sessions, key=lambda s: s.start):
        if s.start < 0.0:
            report.skipped.append(
                (f"session@{s.start:g}", "starts before the trace epoch")
            )
            continue
        if s.start < prev_end:
            report.skipped.append(
                (f"session@{s.start:g}", "overlaps the previous screen session")
            )
            continue
        if s.end > horizon:
            report.skipped.append(
                (f"session@{s.start:g}", "extends past the trace horizon")
            )
            continue
        kept_sessions.append(s)
        prev_end = s.end

    def within_horizon(kind: str, records: list) -> list:
        kept = []
        for r in records:
            if 0.0 <= r.time < horizon:
                kept.append(r)
            else:
                report.skipped.append(
                    (f"{kind}@{r.time:g}", "lies outside the trace horizon")
                )
        return kept

    usages = within_horizon("usage", usages)
    activities = within_horizon("activity", activities)

    skeleton = Trace(
        user_id=str(header["user_id"]),
        n_days=n_days,
        start_weekday=int(header["start_weekday"]),
        screen_sessions=kept_sessions,
        usages=[],
        activities=[],
    )
    fixed: list[NetworkActivity] = []
    for a in activities:
        on = skeleton.screen_on_at(a.time)
        if on != a.screen_on:
            report.repaired_screen_flags += 1
            a = NetworkActivity(
                time=a.time,
                app=a.app,
                down_bytes=a.down_bytes,
                up_bytes=a.up_bytes,
                duration=a.duration,
                screen_on=on,
            )
        fixed.append(a)
    return Trace(
        user_id=str(header["user_id"]),
        n_days=n_days,
        start_weekday=int(header["start_weekday"]),
        screen_sessions=kept_sessions,
        usages=usages,
        activities=fixed,
    )


def trace_to_jsonl(trace: Trace, path: str | Path) -> None:
    """Write a trace as JSON-lines (header line + one line per event)."""
    path = Path(path)
    with path.open("w") as fh:
        header = {
            "kind": "header",
            "version": _FORMAT_VERSION,
            "user_id": trace.user_id,
            "n_days": trace.n_days,
            "start_weekday": trace.start_weekday,
        }
        fh.write(json.dumps(header) + "\n")
        for s in trace.screen_sessions:
            fh.write(json.dumps({"kind": "screen", "start": s.start, "end": s.end}) + "\n")
        for u in trace.usages:
            fh.write(
                json.dumps(
                    {"kind": "usage", "time": u.time, "app": u.app, "duration": u.duration}
                )
                + "\n"
            )
        for a in trace.activities:
            fh.write(
                json.dumps(
                    {
                        "kind": "network",
                        "time": a.time,
                        "app": a.app,
                        "down_bytes": a.down_bytes,
                        "up_bytes": a.up_bytes,
                        "duration": a.duration,
                        "screen_on": a.screen_on,
                    }
                )
                + "\n"
            )


def _check_header(obj: dict, path: Path) -> dict:
    """Validate a parsed JSONL header record; returns it sans ``kind``."""
    if obj.get("kind") != "header":
        raise ValueError(
            f"{path}: first record must be the header line, got kind={obj.get('kind')!r}"
        )
    version = obj.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version: {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    for key in ("user_id", "n_days", "start_weekday"):
        if key not in obj:
            raise ValueError(f"{path}: header line is missing {key!r}")
    return {k: v for k, v in obj.items() if k != "kind"}


def _number(obj: dict, key: str) -> float:
    """``obj[key]`` as a finite float.

    ``json.loads`` parses ``NaN``, ``Infinity`` and overflowing literals
    such as ``1e400``; none of them is a usable time, duration or size.
    """
    value = float(obj[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def _parse_record(
    kind: str, obj: dict
) -> ScreenSession | AppUsage | NetworkActivity:
    """Parse one non-header JSONL record; raises on anything malformed."""
    if kind == "screen":
        return ScreenSession(_number(obj, "start"), _number(obj, "end"))
    if kind == "usage":
        return AppUsage(_number(obj, "time"), str(obj["app"]), _number(obj, "duration"))
    if kind == "network":
        return NetworkActivity(
            time=_number(obj, "time"),
            app=str(obj["app"]),
            down_bytes=_number(obj, "down_bytes"),
            up_bytes=_number(obj, "up_bytes"),
            duration=_number(obj, "duration"),
            screen_on=bool(obj["screen_on"]),
        )
    raise ValueError(f"unknown record kind: {kind!r}")


def iter_trace_records(
    path: str | Path,
    *,
    lenient: bool = False,
    report: TraceLoadReport | None = None,
) -> Iterator[TraceHeader | TraceRecord]:
    """Stream the records of a JSONL trace file without building a Trace.

    Yields the :class:`TraceHeader` first, then every validated event
    record (:class:`ScreenSession` / :class:`AppUsage` /
    :class:`NetworkActivity`) in file order, holding only one line in
    memory at a time — the ingestion substrate of :mod:`repro.stream`.

    In strict mode (the default) any malformed line raises, exactly like
    :func:`trace_from_jsonl`.  With ``lenient=True`` malformed non-header
    records are skipped and recorded in ``report`` (header problems still
    raise: the file cannot be interpreted without one).  A file with no
    header line raises :class:`ValueError` once the iterator is
    exhausted.
    """
    path = Path(path)
    saw_header = False
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if not saw_header:
                    if lenient:
                        raise ValueError(
                            f"{path}: header line is unreadable: {exc}"
                        ) from exc
                    raise
                if not lenient:
                    raise
                if report is not None:
                    report.skipped.append(
                        (f"line {lineno}", f"invalid JSON: {exc.msg}")
                    )
                continue
            if not saw_header:
                header = _check_header(obj, path)
                saw_header = True
                yield TraceHeader(
                    user_id=header["user_id"],
                    n_days=header["n_days"],
                    start_weekday=header["start_weekday"],
                )
                continue
            try:
                yield _parse_record(obj.get("kind"), obj)
            except (KeyError, TypeError, ValueError) as exc:
                if not lenient:
                    raise
                if report is not None:
                    report.skipped.append((f"line {lineno}", str(exc)))
    if not saw_header:
        raise ValueError(f"{path} has no header line")


def _collect_records(
    records: Iterator[TraceHeader | TraceRecord],
) -> tuple[TraceHeader, list[ScreenSession], list[AppUsage], list[NetworkActivity]]:
    """Drain a record iterator into kind-partitioned lists."""
    header = next(records)
    assert isinstance(header, TraceHeader)
    sessions: list[ScreenSession] = []
    usages: list[AppUsage] = []
    activities: list[NetworkActivity] = []
    for record in records:
        if isinstance(record, ScreenSession):
            sessions.append(record)
        elif isinstance(record, AppUsage):
            usages.append(record)
        else:
            activities.append(record)
    return header, sessions, usages, activities


def trace_from_jsonl(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`trace_to_jsonl`.

    The first non-blank line must be a valid header record of a
    supported format version; any malformed record raises.  Use
    :func:`trace_from_jsonl_lenient` for files of unknown provenance.
    """
    header, sessions, usages, activities = _collect_records(
        iter_trace_records(path)
    )
    return Trace(
        user_id=header.user_id,
        n_days=header.n_days,
        start_weekday=header.start_weekday,
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )


def trace_from_jsonl_lenient(path: str | Path) -> tuple[Trace, TraceLoadReport]:
    """Load a JSONL trace, skipping and reporting malformed records.

    The header line is still mandatory (the file cannot be interpreted
    without it); every other malformed record — broken JSON, unknown
    kind, missing or impossible fields — is skipped and listed in the
    returned :class:`TraceLoadReport`.  Activities whose ``screen_on``
    flag contradicts the surviving sessions are repaired rather than
    dropped.
    """
    report = TraceLoadReport()
    header, sessions, usages, activities = _collect_records(
        iter_trace_records(path, lenient=True, report=report)
    )
    return (
        _build_trace_lenient(
            {
                "user_id": header.user_id,
                "n_days": header.n_days,
                "start_weekday": header.start_weekday,
            },
            sessions,
            usages,
            activities,
            report,
        ),
        report,
    )


def trace_to_csv(trace: Trace, prefix: str | Path) -> list[Path]:
    """Write a trace as three CSV files sharing ``prefix``.

    Returns the paths written: ``<prefix>_meta.csv``,
    ``<prefix>_sessions.csv``, ``<prefix>_usages.csv``,
    ``<prefix>_activities.csv``.
    """
    prefix = Path(prefix)
    paths = []

    meta_path = prefix.with_name(prefix.name + "_meta.csv")
    with meta_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "n_days", "start_weekday", "version"])
        writer.writerow([trace.user_id, trace.n_days, trace.start_weekday, _FORMAT_VERSION])
    paths.append(meta_path)

    sessions_path = prefix.with_name(prefix.name + "_sessions.csv")
    with sessions_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end"])
        for s in trace.screen_sessions:
            writer.writerow([s.start, s.end])
    paths.append(sessions_path)

    usages_path = prefix.with_name(prefix.name + "_usages.csv")
    with usages_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "app", "duration"])
        for u in trace.usages:
            writer.writerow([u.time, u.app, u.duration])
    paths.append(usages_path)

    activities_path = prefix.with_name(prefix.name + "_activities.csv")
    with activities_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "app", "down_bytes", "up_bytes", "duration", "screen_on"])
        for a in trace.activities:
            writer.writerow(
                [a.time, a.app, a.down_bytes, a.up_bytes, a.duration, int(a.screen_on)]
            )
    paths.append(activities_path)
    return paths


def _csv_meta(prefix: Path) -> dict:
    """The header fields of ``<prefix>_meta.csv`` (exactly one row)."""
    meta_path = prefix.with_name(prefix.name + "_meta.csv")
    with meta_path.open() as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{meta_path} must contain exactly one metadata row")
    meta = rows[0]
    return {
        "user_id": meta["user_id"],
        "n_days": int(meta["n_days"]),
        "start_weekday": int(meta["start_weekday"]),
    }


def _csv_session(row: dict) -> ScreenSession:
    return ScreenSession(_number(row, "start"), _number(row, "end"))


def _csv_usage(row: dict) -> AppUsage:
    return AppUsage(_number(row, "time"), row["app"], _number(row, "duration"))


def _csv_activity(row: dict) -> NetworkActivity:
    return NetworkActivity(
        time=_number(row, "time"),
        app=row["app"],
        down_bytes=_number(row, "down_bytes"),
        up_bytes=_number(row, "up_bytes"),
        duration=_number(row, "duration"),
        screen_on=bool(int(row["screen_on"])),
    )


def _csv_records(prefix: Path, report: TraceLoadReport | None) -> tuple[list, list, list]:
    """Sessions, usages and activities of a CSV trace.

    Every number goes through :func:`_number`, so ``nan`` and ``inf``
    are malformed like any other unparsable value.  A malformed row
    raises, or — given a ``report`` — is skipped and reported.
    """

    def load_rows(suffix: str, build) -> list:
        rows_path = prefix.with_name(prefix.name + suffix)
        out = []
        with rows_path.open() as fh:
            for rowno, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    out.append(build(row))
                except (KeyError, TypeError, ValueError) as exc:
                    if report is None:
                        raise
                    report.skipped.append((f"{rows_path.name}:{rowno}", str(exc)))
        return out

    return (
        load_rows("_sessions.csv", _csv_session),
        load_rows("_usages.csv", _csv_usage),
        load_rows("_activities.csv", _csv_activity),
    )


def trace_from_csv(prefix: str | Path) -> Trace:
    """Load a trace previously written by :func:`trace_to_csv`."""
    prefix = Path(prefix)
    header = _csv_meta(prefix)
    sessions, usages, activities = _csv_records(prefix, None)
    return Trace(
        **header,
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )


def trace_from_csv_lenient(prefix: str | Path) -> tuple[Trace, TraceLoadReport]:
    """Load a CSV trace, skipping and reporting malformed rows.

    The metadata file must still parse (one valid row); malformed rows in
    the sessions/usages/activities files — non-finite numbers included —
    are skipped and reported, and contradictory ``screen_on`` flags
    repaired, as in :func:`trace_from_jsonl_lenient`.
    """
    prefix = Path(prefix)
    header = _csv_meta(prefix)
    report = TraceLoadReport()
    sessions, usages, activities = _csv_records(prefix, report)
    return _build_trace_lenient(header, sessions, usages, activities, report), report


def cohort_to_dir(traces: list[Trace], directory: str | Path) -> list[Path]:
    """Persist a cohort as one JSONL file per user under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in traces:
        path = directory / f"{trace.user_id}.jsonl"
        trace_to_jsonl(trace, path)
        paths.append(path)
    return paths


def cohort_from_dir(directory: str | Path) -> list[Trace]:
    """Load every ``*.jsonl`` trace under ``directory`` (sorted by name)."""
    directory = Path(directory)
    return [trace_from_jsonl(p) for p in sorted(directory.glob("*.jsonl"))]
