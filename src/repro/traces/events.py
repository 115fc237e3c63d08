"""Event data model for smartphone usage traces.

These types mirror the records NetMaster's monitoring component collects on
a real handset (Section V-A of the paper): screen state, foreground app
usage, and cellular network activity.  Every downstream subsystem — habit
mining, scheduling, the device simulator, and the evaluation harness —
consumes traces expressed in these types.  Every scheduler that holds
transfers and releases them together places them with
:func:`pack_release`, back to back at :data:`PACK_GAP_S` gaps.

Times are absolute seconds from the trace epoch (midnight of day 0).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from math import isfinite
from typing import Hashable, Iterable, Iterator, Union

import numpy as np

from repro._util import DAY, check_interval, check_positive, day_of, hour_of, is_weekend


@dataclass(frozen=True, slots=True)
class ScreenSession:
    """A contiguous screen-on (and unlocked) interval.

    Corresponds to the paper's notion of "using the phone": screen on and
    keyboard unlocked.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        check_interval(self.start, self.end, name="ScreenSession")

    @property
    def duration(self) -> float:
        """Session length in seconds."""
        return self.end - self.start

    def contains(self, time_s: float) -> bool:
        """Whether ``time_s`` falls inside this session (half-open)."""
        return self.start <= time_s < self.end


@dataclass(frozen=True, slots=True)
class AppUsage:
    """A foreground interaction with one application."""

    time: float
    app: str
    duration: float

    def __post_init__(self) -> None:
        check_positive("AppUsage.duration", self.duration, strict=False)


#: Shortest duration a compressed transfer runs for, however small its
#: payload.  A copy's duration is thus the source's or at least this.
COMPRESSED_FLOOR_S = 0.5


@dataclass(frozen=True, slots=True)
class NetworkActivity:
    """One cellular data transfer attributed to an application.

    ``screen_on`` records the screen state at the *original* time of the
    activity; schedulers may move the activity but the provenance flag is
    preserved so analyses can still distinguish foreground traffic from
    deferrable background traffic.
    """

    time: float
    app: str
    down_bytes: float
    up_bytes: float
    duration: float
    screen_on: bool

    def __post_init__(self) -> None:
        check_positive("NetworkActivity.down_bytes", self.down_bytes, strict=False)
        check_positive("NetworkActivity.up_bytes", self.up_bytes, strict=False)
        check_positive("NetworkActivity.duration", self.duration)

    @property
    def end(self) -> float:
        """End time of the transfer."""
        return self.time + self.duration

    @property
    def total_bytes(self) -> float:
        """Total payload (down + up) in bytes."""
        return self.down_bytes + self.up_bytes

    @property
    def rate_bps(self) -> float:
        """Average transfer rate in bytes/second."""
        return self.total_bytes / self.duration

    @property
    def interval(self) -> tuple[float, float]:
        """The ``(start, end)`` transfer window."""
        return (self.time, self.end)

    def moved_to(self, new_time: float) -> "NetworkActivity":
        """A copy of this activity executing at ``new_time``."""
        return _derived(self, float(new_time), self.duration)

    def compressed_duration(self, bandwidth_bps: float) -> float:
        """How long this transfer runs once moved at ``bandwidth_bps``.

        The payload at full link bandwidth, never below
        :data:`COMPRESSED_FLOOR_S` and never longer than the recorded
        duration.
        """
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {bandwidth_bps}")
        duration = max(COMPRESSED_FLOOR_S, self.total_bytes / bandwidth_bps)
        return duration if duration < self.duration else self.duration

    def compressed(self, bandwidth_bps: float) -> "NetworkActivity":
        """A copy transferring the same payload at full link bandwidth.

        Background syncs trickle at app-level rates (Fig. 1(b): 90% below
        1 kBps); when a scheduler batches them it can push the same bytes
        at carrier speed, which is where NetMaster's bandwidth-utilization
        gain (Fig. 7(c)) and much of its DCH-time saving come from.
        Returns ``self`` when the link would not shorten the transfer.
        """
        duration = self.compressed_duration(bandwidth_bps)
        if duration == self.duration:
            return self
        return _derived(self, self.time, duration)


# The slot setters of ``NetworkActivity``, bound once for ``_derived``.
_set_time, _set_app, _set_down, _set_up, _set_duration, _set_screen = (
    NetworkActivity.__dict__[name].__set__
    for name in ("time", "app", "down_bytes", "up_bytes", "duration", "screen_on")
)
_new_record = object.__new__


def _derived(
    source: NetworkActivity, time: float, duration: float
) -> NetworkActivity:
    """A copy of the validated ``source`` at ``time``, lasting ``duration``.

    Every copy of a record (:meth:`~NetworkActivity.moved_to`,
    :meth:`~NetworkActivity.compressed`, :func:`pack_release`) is built
    here.  It sets the slots without re-running ``__post_init__``: the
    payload fields are the source's, and ``duration`` is the source's or
    a compressed one, at or above :data:`COMPRESSED_FLOOR_S`.
    """
    copy = _new_record(NetworkActivity)
    _set_time(copy, time)
    _set_app(copy, source.app)
    _set_down(copy, source.down_bytes)
    _set_up(copy, source.up_bytes)
    _set_duration(copy, duration)
    _set_screen(copy, source.screen_on)
    return copy


#: Gap between transfers released together.  It is far inside the DCH
#: inactivity tail, so the whole burst keeps the radio in DCH and shares
#: one tail.
PACK_GAP_S = 0.2


def pack_release(
    cursors: dict,
    key: Hashable,
    release: float,
    activity: NetworkActivity,
    duration: float,
) -> NetworkActivity:
    """``activity`` released under ``key``, running for ``duration``.

    ``duration`` is the activity's own or its
    :meth:`~NetworkActivity.compressed_duration`.  Transfers released
    under one key (a delay tick, a session, a planned slot) run back to
    back: the first starts at ``release``, each later one
    :data:`PACK_GAP_S` after the previous one ends.  A start is clamped
    so the transfer ends by midnight.  ``cursors`` holds each key's next
    start and is updated in place.
    """
    start = min(cursors.get(key, release), DAY - duration)
    cursors[key] = start + duration + PACK_GAP_S
    return _derived(activity, float(start), duration)


#: One monitoring record: what a phone logs, what the fleet service's
#: ingest parses, and what the online engine folds.
TraceRecord = Union[ScreenSession, AppUsage, NetworkActivity]


def _require_finite(kind: str, times: Iterable[float]) -> None:
    """Raise :class:`ValueError` naming ``kind`` and the first non-finite time."""
    for t in times:
        if not isfinite(t):
            raise ValueError(f"{kind} at t={t} is not finite")


@dataclass
class Trace:
    """A full multi-day usage trace for one user.

    Invariants (enforced by :meth:`validate`, called on construction):

    * every record time (session start and end, usage and activity
      start) is finite;
    * event lists are sorted by start time;
    * every record lies in ``[0, horizon)``, the horizon being ``n_days``
      days — a session starts at or after 0 and ends by the horizon; a
      usage or activity starts in ``[0, horizon)``;
    * screen sessions are disjoint;
    * every screen-on activity's original time falls inside some session,
      and every screen-off activity's falls outside all sessions.
    """

    user_id: str
    n_days: int
    start_weekday: int
    screen_sessions: list[ScreenSession] = field(default_factory=list)
    usages: list[AppUsage] = field(default_factory=list)
    activities: list[NetworkActivity] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.screen_sessions = sorted(self.screen_sessions, key=lambda s: s.start)
        self.usages = sorted(self.usages, key=lambda u: u.time)
        self.activities = sorted(self.activities, key=lambda a: a.time)
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on breach."""
        if self.n_days <= 0:
            raise ValueError(f"n_days must be > 0, got {self.n_days}")
        if not 0 <= self.start_weekday < 7:
            raise ValueError(f"start_weekday must be in [0, 7), got {self.start_weekday}")
        # NaN fails every comparison below (and leaves the lists
        # unsorted), so finiteness is checked record by record first.
        _require_finite(
            "screen session", (t for s in self.screen_sessions for t in (s.start, s.end))
        )
        _require_finite("usage", (u.time for u in self.usages))
        _require_finite("activity", (a.time for a in self.activities))
        horizon = self.n_days * DAY
        # The lists are sorted, so their first and last records bound them.
        if self.screen_sessions and self.screen_sessions[0].start < 0.0:
            raise ValueError("screen session starts before the trace epoch")
        for kind, records in (("usage", self.usages), ("activity", self.activities)):
            if not records:
                continue
            first, last = records[0].time, records[-1].time
            if first < 0.0 or last >= horizon:
                bad = first if first < 0.0 else last
                raise ValueError(f"{kind} at t={bad} lies outside [0, {horizon:g}) s")
        prev_end = -np.inf
        for session in self.screen_sessions:
            if session.start < prev_end:
                raise ValueError("screen sessions overlap or are unsorted")
            prev_end = session.end
            if session.end > horizon:
                raise ValueError("screen session extends past the trace horizon")
        for activity in self.activities:
            on = self.screen_on_at(activity.time)
            if on != activity.screen_on:
                raise ValueError(
                    f"activity at t={activity.time} tagged screen_on={activity.screen_on} "
                    f"but the screen was {'on' if on else 'off'}"
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_weekend_day(self, day_index: int) -> bool:
        """Whether trace day ``day_index`` is a Saturday or Sunday."""
        return is_weekend(day_index, self.start_weekday)

    def screen_on_at(self, time_s: float) -> bool:
        """Whether the screen is on at ``time_s``."""
        starts = self._session_starts()
        idx = bisect.bisect_right(starts, time_s) - 1
        if idx < 0:
            return False
        return self.screen_sessions[idx].contains(time_s)

    def _session_starts(self) -> list[float]:
        cached = getattr(self, "_starts_cache", None)
        if cached is None or len(cached) != len(self.screen_sessions):
            cached = [s.start for s in self.screen_sessions]
            object.__setattr__(self, "_starts_cache", cached)
        return cached

    def day_view(self, day_index: int) -> "Trace":
        """A single-day sub-trace (times re-based to that day's midnight)."""
        if not 0 <= day_index < self.n_days:
            raise ValueError(f"day_index must be in [0, {self.n_days}), got {day_index}")
        lo, hi = day_index * DAY, (day_index + 1) * DAY
        shift = -lo

        def clip_session(s: ScreenSession) -> ScreenSession | None:
            start, end = max(s.start, lo), min(s.end, hi)
            if end <= start:
                return None
            return ScreenSession(start + shift, end + shift)

        sessions = [c for s in self.screen_sessions if (c := clip_session(s))]
        usages = [
            AppUsage(u.time + shift, u.app, u.duration) for u in self.usages if lo <= u.time < hi
        ]
        activities = [a.moved_to(a.time + shift) for a in self.activities if lo <= a.time < hi]
        return Trace(
            user_id=self.user_id,
            n_days=1,
            start_weekday=(self.start_weekday + day_index) % 7,
            screen_sessions=sessions,
            usages=usages,
            activities=activities,
        )

    def days(self) -> Iterator["Trace"]:
        """Iterate single-day sub-traces, in order."""
        for day_index in range(self.n_days):
            yield self.day_view(day_index)

    # ------------------------------------------------------------------
    # numpy accessors (vectorized analytics paths)
    # ------------------------------------------------------------------
    def activity_bytes(self) -> np.ndarray:
        """``(n, 2)`` array of per-activity (down, up) bytes."""
        return np.array(
            [[a.down_bytes, a.up_bytes] for a in self.activities], dtype=np.float64
        ).reshape(-1, 2)

    def activity_rates(self) -> np.ndarray:
        """Array of per-activity average rates (bytes/second)."""
        return np.array([a.rate_bps for a in self.activities], dtype=np.float64)

    def activity_screen_flags(self) -> np.ndarray:
        """Boolean array: original screen state per activity."""
        return np.array([a.screen_on for a in self.activities], dtype=bool)

    def usage_hour_bins(self) -> np.ndarray:
        """Hour-of-day bin (0..23) of each app usage."""
        return np.array([hour_of(u.time) for u in self.usages], dtype=np.int64)

    def usage_day_bins(self) -> np.ndarray:
        """Trace-day index of each app usage."""
        return np.array([day_of(u.time) for u in self.usages], dtype=np.int64)

    def total_screen_on_time(self) -> float:
        """Total seconds of screen-on time over the whole trace."""
        return float(sum(s.duration for s in self.screen_sessions))
