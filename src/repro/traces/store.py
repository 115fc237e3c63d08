"""The monitoring component's on-device database.

NetMaster's monitoring component (paper Section V-A) records four feature
groups — time, app, cellular network, and screen — into a database on the
phone, buffered through a 500 KB in-memory write cache so flash writes are
batched.  :class:`TraceStore` reproduces that storage layer: typed record
tables, an explicit write cache with flush accounting, and the query
surface the mining component needs (per-day / per-hour aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro._util import HOURS_PER_DAY, check_positive, day_of, hour_of
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession

#: Default write-cache capacity, matching the paper's 500 KB buffer.
DEFAULT_CACHE_BYTES = 500 * 1024

#: Approximate flash footprint of one record, used for cache accounting.
RECORD_BYTES = 64


class RecordKind(Enum):
    """The four record tables kept by the monitoring component."""

    SCREEN = "screen"
    USAGE = "usage"
    NETWORK = "network"


@dataclass(frozen=True, slots=True)
class Record:
    """One row in the store: a kind tag plus the payload event."""

    kind: RecordKind
    payload: ScreenSession | AppUsage | NetworkActivity

    @property
    def time(self) -> float:
        """Record timestamp (event start time)."""
        if isinstance(self.payload, ScreenSession):
            return self.payload.start
        return self.payload.time


@dataclass
class WriteCache:
    """Byte-budgeted write buffer batching flash writes.

    Mirrors the 500 KB memory cache of Section V-A: records accumulate in
    memory and are flushed to the backing table only when the budget is
    exhausted (or on explicit :meth:`flush`).  ``flush_count`` exposes how
    many flash write bursts occurred, which tests use to verify batching.
    """

    capacity_bytes: int = DEFAULT_CACHE_BYTES
    record_bytes: int = RECORD_BYTES
    flush_count: int = 0
    _pending: list[Record] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("capacity_bytes", self.capacity_bytes)
        check_positive("record_bytes", self.record_bytes)

    @property
    def pending_bytes(self) -> int:
        """Bytes currently buffered."""
        return len(self._pending) * self.record_bytes

    def add(self, record: Record) -> list[Record]:
        """Buffer a record; returns flushed records when the cache fills."""
        self._pending.append(record)
        if self.pending_bytes >= self.capacity_bytes:
            return self.flush()
        return []

    def flush(self) -> list[Record]:
        """Flush all buffered records, returning them in insertion order."""
        if not self._pending:
            return []
        out, self._pending = self._pending, []
        self.flush_count += 1
        return out


@dataclass
class TraceStore:
    """Typed record store with the mining component's query surface."""

    cache: WriteCache = field(default_factory=WriteCache)
    _screen: list[ScreenSession] = field(default_factory=list)
    _usage: list[AppUsage] = field(default_factory=list)
    _network: list[NetworkActivity] = field(default_factory=list)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def record_screen(self, session: ScreenSession) -> None:
        """Record one screen-on session."""
        self._ingest(Record(RecordKind.SCREEN, session))

    def record_usage(self, usage: AppUsage) -> None:
        """Record one foreground app usage."""
        self._ingest(Record(RecordKind.USAGE, usage))

    def record_network(self, activity: NetworkActivity) -> None:
        """Record one network activity."""
        self._ingest(Record(RecordKind.NETWORK, activity))

    def _ingest(self, record: Record) -> None:
        for flushed in self.cache.add(record):
            self._commit(flushed)

    def _commit(self, record: Record) -> None:
        if record.kind is RecordKind.SCREEN:
            self._screen.append(record.payload)  # type: ignore[arg-type]
        elif record.kind is RecordKind.USAGE:
            self._usage.append(record.payload)  # type: ignore[arg-type]
        else:
            self._network.append(record.payload)  # type: ignore[arg-type]

    def checkpoint(self) -> None:
        """Force a cache flush so all records become queryable."""
        for flushed in self.cache.flush():
            self._commit(flushed)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def screen_sessions(self) -> list[ScreenSession]:
        """All committed screen sessions, sorted by start."""
        return sorted(self._screen, key=lambda s: s.start)

    @property
    def usages(self) -> list[AppUsage]:
        """All committed app usages, sorted by time."""
        return sorted(self._usage, key=lambda u: u.time)

    @property
    def activities(self) -> list[NetworkActivity]:
        """All committed network activities, sorted by time."""
        return sorted(self._network, key=lambda a: a.time)

    def n_days(self) -> int:
        """Number of (whole) days spanned by committed records.

        Screen sessions contribute their end times too, so a session
        crossing midnight extends the store into the next day.
        """
        times = [max(r.start, r.end - 1e-9) for r in self._screen]
        times += [r.time for r in self._usage]
        times += [r.time for r in self._network]
        if not times:
            return 0
        return day_of(max(times)) + 1

    def apps_seen(self) -> set[str]:
        """Every package name appearing in usage or network records."""
        return {u.app for u in self._usage} | {a.app for a in self._network}

    def screen_use_matrix(self) -> np.ndarray:
        """``(n_days, 24)`` binary matrix: phone used in that day-hour.

        This is the paper's ``u(t_i)_j`` indicator (Table I): 1 when any
        screen-on session overlaps the hour slot on that day.
        """
        days = self.n_days()
        matrix = np.zeros((days, HOURS_PER_DAY), dtype=np.float64)
        for session in self._screen:
            day = day_of(session.start)
            first = hour_of(session.start)
            last_t = max(session.start, session.end - 1e-9)
            last_day = day_of(last_t)
            last = hour_of(last_t)
            if last_day == day:
                matrix[day, first : last + 1] = 1.0
            else:  # session crosses midnight
                matrix[day, first:] = 1.0
                if last_day < days:
                    matrix[last_day, : last + 1] = 1.0
        return matrix

    def app_network_counts(self) -> dict[str, int]:
        """Per-app network-activity counts (Special Apps evidence)."""
        counts: dict[str, int] = {}
        for activity in self._network:
            counts[activity.app] = counts.get(activity.app, 0) + 1
        return counts

    def app_usage_counts(self) -> dict[str, int]:
        """Per-app foreground usage counts."""
        counts: dict[str, int] = {}
        for usage in self._usage:
            counts[usage.app] = counts.get(usage.app, 0) + 1
        return counts
