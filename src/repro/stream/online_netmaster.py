"""Causal scheduling: the NetMaster middleware driven at stream time.

:class:`OnlineNetMaster` consumes one user's chronological record stream
and runs the full middleware with **no future knowledge**: events buffer
into the current day as they arrive, and when stream time crosses
midnight the finished day is executed against the model mined from the
days *before* it (the habit accumulator folds the day in only after the
decisions are made).  The first ``train_days`` days are observation-only
— the paper's monitoring phase — after which every day is planned and
executed causally, circuit breaker and graceful degradation included.

The engine's entire state — habit accumulators, breaker, partially
buffered current day, counters — serializes to one JSON document
(:meth:`state_dict`).  Floats survive JSON bit-exactly, so a stream can
be killed anywhere (including mid-day) and resumed from the checkpoint
with byte-identical subsequent decisions.  Its JSON text
(:meth:`state_json`) reuses each closed habit day's encoding, so a
checkpoint costs the state that changed, not the whole history.
:meth:`OnlineNetMaster.from_state` is the one loader: a document it
cannot restore exactly raises :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro._util import DAY, dumps_spliced
from repro.baselines.netmaster_policy import execution_outcome
from repro.baselines.policy import PolicyOutcome
from repro.core.netmaster import DayExecution, NetMaster, NetMasterConfig
from repro.habits.serialization import config_from_dict, config_to_dict
from repro.stream.ingest import event_time
from repro.stream.online_habits import OnlineHabitModel
from repro.telemetry import metrics
from repro.traces.events import (
    AppUsage,
    NetworkActivity,
    ScreenSession,
    Trace,
    TraceRecord,
)

#: Schema version stamped into every engine checkpoint ("format" field).
_STATE_FORMAT = 1

POLICY_NAME = "netmaster-online"

#: What a damaged checkpoint document raises while it is read: a
#: missing key, a value of the wrong JSON type or range.
_DAMAGE = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _latest(buffers: dict[int, list], key) -> float:
    """``key`` of the last record in the latest non-empty day buffer,
    back in stream time (``-inf`` when every buffer is empty)."""
    for day in sorted(buffers, reverse=True):
        if buffers[day]:
            return day * DAY + key(buffers[day][-1])
    return -math.inf


class CheckpointError(ValueError):
    """A stream checkpoint could not be parsed or restored.

    Raised instead of letting a raw :class:`json.JSONDecodeError` /
    :class:`KeyError` escape from a truncated or corrupt checkpoint —
    callers handling durability faults can catch one exception type.
    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old format-mismatch error keep working.
    """


@dataclass(frozen=True, slots=True)
class CompletedDay:
    """One causally executed day, ready for pricing."""

    day_index: int
    trace: Trace
    execution: DayExecution

    def outcome(self) -> PolicyOutcome:
        """The execution as a policy outcome (same shape as the offline
        :class:`~repro.baselines.netmaster_policy.NetMasterPolicy`)."""
        return execution_outcome(self.execution, POLICY_NAME)


class OnlineNetMaster:
    """Per-user online engine: observe events, execute days causally.

    Feed records with :meth:`ingest` (or one at a time with
    :meth:`observe`); finished days queue up and are collected with
    :meth:`drain` (bounded memory when drained regularly).
    :meth:`finish` closes the remaining days of a stream whose horizon
    is known.
    """

    def __init__(
        self,
        user_id: str,
        *,
        config: NetMasterConfig | None = None,
        start_weekday: int = 0,
        train_days: int = 10,
    ) -> None:
        if train_days < 1:
            raise ValueError(f"train_days must be >= 1, got {train_days}")
        self.user_id = user_id
        self.config = config or NetMasterConfig()
        self.start_weekday = int(start_weekday)
        self.train_days = int(train_days)
        self.habits = OnlineHabitModel(user_id, start_weekday=start_weekday)
        self.netmaster = NetMaster(self.config)
        #: Index of the day currently buffering (monotonic).
        self.day = 0
        self._last_time = 0.0
        self.events = 0
        self.days_executed = 0
        self.days_degraded = 0
        self.interrupts = 0
        #: Monitor feedback (:mod:`repro.monitor.feedback`): days with
        #: index < ``quarantined_until`` execute duty-cycle-only.  It
        #: stays 0 unless an alert fired, and is only serialized when
        #: nonzero so unalerted checkpoints are byte-identical to
        #: unmonitored ones.
        self.quarantined_until = 0
        # Per-day event buffers (rebased to the day's midnight), only
        # kept for days that will actually execute (>= train_days).
        self._sessions: dict[int, list[ScreenSession]] = {}
        self._usages: dict[int, list[AppUsage]] = {}
        self._activities: dict[int, list[NetworkActivity]] = {}
        self._completed: list[CompletedDay] = []

    @property
    def last_time(self) -> float:
        """Stream time of the newest observed record (the causal floor:
        anything earlier is out of order and will be rejected)."""
        return self._last_time

    def buffered_tail(self) -> tuple[float, float]:
        """``(session_end, network_time)`` of the executed-day buffers.

        The stream time at which the latest buffered screen session ends
        and the time of the latest buffered network activity, each
        ``-inf`` when no buffer holds one.  A session crossing midnight
        is clipped into every day it spans, so the latest day's last
        piece carries its end.  Read-only: the service checks a batch
        against these before any of it is folded.
        """
        return (
            _latest(self._sessions, lambda s: s.end),
            _latest(self._activities, lambda a: a.time),
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, records: Iterator[TraceRecord]) -> bool:
        """Fold records from ``records`` until one closes a day.

        Returns ``True`` right after the record that closed a day — the
        finished days wait for :meth:`drain` and the rest of ``records``
        is untouched, so a caller prices and checkpoints at exactly that
        stream position — and ``False`` once ``records`` is exhausted.
        A record before :attr:`last_time`, or at a non-finite time,
        raises :class:`ValueError` before it changes any state; the
        records ahead of it stay folded.
        """
        habits = self.habits
        fold_session = habits.observe_session
        fold_usage = habits.observe_usage
        fold_activity = habits.observe_activity
        day = self.day
        day_start = day * DAY
        next_midnight = (day + 1) * DAY
        last = self._last_time
        # The fast path folds records of the open day only.  After
        # finish() has closed days ahead of the stream, ``last`` lies
        # before the open day and the empty range sends records the
        # general way until one reaches it.
        upper = next_midnight if last >= day_start else last
        buffering = day >= self.train_days
        if buffering:
            sessions = self._sessions.setdefault(day, [])
            usages = self._usages.setdefault(day, [])
            activities = self._activities.setdefault(day, [])
        n = 0
        try:
            for record in records:
                kind = type(record)
                if kind is NetworkActivity:
                    t = record.time
                    if last <= t < upper:
                        last = t
                        n += 1
                        fold_activity(record)
                        if buffering:
                            activities.append(record.moved_to(t - day_start))
                        continue
                elif kind is ScreenSession:
                    t = record.start
                    if last <= t < upper:
                        last = t
                        n += 1
                        fold_session(record)
                        end = record.end
                        if end > next_midnight:
                            # Clipped into each day it spans, training or not.
                            self._buffer(record)
                        elif buffering and end > t:
                            sessions.append(
                                ScreenSession(t - day_start, end - day_start)
                            )
                        continue
                elif kind is AppUsage:
                    t = record.time
                    if last <= t < upper:
                        last = t
                        n += 1
                        fold_usage(record)
                        if buffering:
                            usages.append(
                                AppUsage(t - day_start, record.app, record.duration)
                            )
                        continue
                else:
                    t = event_time(record)
                # The general way: a day closes, the record is out of
                # order or not finite, lies before the open day, or is
                # of a record subclass.
                if not math.isfinite(t):
                    raise ValueError(f"event time must be finite, got t={t}")
                if t < last:
                    raise ValueError(
                        f"stream went backwards: event at t={t} after t={last}"
                    )
                last = t
                while t >= (self.day + 1) * DAY:
                    self._close_day()
                n += 1
                habits.observe(record)
                self._buffer(record)
                if self.day != day:
                    return True
                upper = next_midnight if last >= day_start else last
            return False
        finally:
            self._last_time = last
            if n:
                self.events += n
                metrics().inc("stream.events", n)

    def observe(self, record: TraceRecord) -> None:
        """Fold one record in; closes days as stream time crosses them.

        The one-record call of :meth:`ingest`.
        """
        self.ingest(iter((record,)))

    def observe_many(self, records: Iterable[TraceRecord]) -> None:
        """Fold a chronological record iterable."""
        records = iter(records)
        while self.ingest(records):
            pass

    def _buffer(self, record: TraceRecord) -> None:
        """Mirror of ``Trace.day_view`` clipping, applied incrementally."""
        if isinstance(record, ScreenSession):
            day = int(record.start // DAY)
            while day * DAY < record.end:
                lo, hi = day * DAY, (day + 1) * DAY
                start, end = max(record.start, lo), min(record.end, hi)
                if end > start and day >= self.train_days:
                    self._sessions.setdefault(day, []).append(
                        ScreenSession(start - lo, end - lo)
                    )
                day += 1
        elif isinstance(record, AppUsage):
            day = int(record.time // DAY)
            if day >= self.train_days:
                self._usages.setdefault(day, []).append(
                    AppUsage(record.time - day * DAY, record.app, record.duration)
                )
        else:
            day = int(record.time // DAY)
            if day >= self.train_days:
                self._activities.setdefault(day, []).append(
                    record.moved_to(record.time - day * DAY)
                )

    # ------------------------------------------------------------------
    # day boundary
    # ------------------------------------------------------------------
    def _day_trace(self, day: int) -> Trace:
        return Trace(
            user_id=self.user_id,
            n_days=1,
            start_weekday=(self.start_weekday + day) % 7,
            screen_sessions=self._sessions.pop(day, []),
            usages=self._usages.pop(day, []),
            activities=self._activities.pop(day, []),
        )

    def _close_day(self) -> None:
        day = self.day
        self.day += 1
        if day >= self.train_days:
            # The model is mined from days 0..day-1 only — the habit
            # accumulator folds `day` in *after* the decisions are made.
            self.netmaster.adopt_model(self.habits.to_model())
            trace = self._day_trace(day)
            if day < self.quarantined_until:
                self.netmaster.force_degraded = True
                metrics().inc("stream.quarantined_days")
            try:
                execution = self.netmaster.execute_day(trace)
            finally:
                self.netmaster.force_degraded = False
            self.days_executed += 1
            self.interrupts += execution.interrupts
            if execution.degraded:
                self.days_degraded += 1
            metrics().inc("stream.user_days")
            self._completed.append(
                CompletedDay(day_index=day, trace=trace, execution=execution)
            )
        alerts = self.habits.drift_alerts
        self.habits.close_day(day)
        reg = metrics()
        reg.inc("stream.habit_days_closed")
        if self.habits.drift_alerts > alerts:
            reg.inc("stream.drift_alerts")

    def finish(self, n_days: int) -> list[CompletedDay]:
        """Close all days through ``n_days`` and drain the results."""
        while self.day < n_days:
            self._close_day()
        return self.drain()

    def drain(self) -> list[CompletedDay]:
        """Completed days since the last drain (and release them)."""
        out = self._completed
        self._completed = []
        return out

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full engine state as JSON-safe values.

        Undrained completed days are not part of the state — drain (and
        price) them before checkpointing.

        The monitor's ``quarantined_until`` window is emitted only when
        nonzero, so a monitored-but-unalerted engine checkpoints to
        exactly the same bytes as an unmonitored one.  ``update_model``
        is always ``true``: every executed day folds into the habit
        model.
        """
        state = self._state()
        state["habits"] = self.habits.state_dict()
        return state

    def state_json(self, separators: tuple[str, str] = (", ", ": ")) -> str:
        """:meth:`state_dict` as JSON text, byte for byte
        ``json.dumps(self.state_dict(), separators=separators)``.

        The habit accumulator's text
        (:meth:`~repro.stream.online_habits.OnlineHabitModel.state_json`)
        is spliced in, so each closed habit day is encoded once.
        """
        return dumps_spliced(
            self._state(), {"habits": self.habits.state_json(separators)}, separators
        )

    def _state(self) -> dict:
        """:meth:`state_dict` with ``"habits"`` left ``None``."""
        state = {
            "format": _STATE_FORMAT,
            "user_id": self.user_id,
            "start_weekday": self.start_weekday,
            "train_days": self.train_days,
            "update_model": True,
            "config": config_to_dict(self.config),
            "day": self.day,
            "last_time": self._last_time,
            "events": self.events,
            "days_executed": self.days_executed,
            "days_degraded": self.days_degraded,
            "interrupts": self.interrupts,
            "habits": None,
            "breaker": self.netmaster.breaker.state_dict(),
            "buffers": {
                str(day): {
                    "sessions": [[s.start, s.end] for s in self._sessions.get(day, [])],
                    "usages": [
                        [u.time, u.app, u.duration] for u in self._usages.get(day, [])
                    ],
                    "activities": [
                        [a.time, a.app, a.down_bytes, a.up_bytes, a.duration, a.screen_on]
                        for a in self._activities.get(day, [])
                    ],
                }
                for day in sorted(
                    set(self._sessions) | set(self._usages) | set(self._activities)
                )
                # ingest() opens the day's lists before its first record.
                if self._sessions.get(day)
                or self._usages.get(day)
                or self._activities.get(day)
            },
        }
        if self.quarantined_until:
            state["quarantined_until"] = self.quarantined_until
        return state

    @classmethod
    def from_state(cls, state: object) -> "OnlineNetMaster":
        """Rebuild an engine from :meth:`state_dict` output.

        The restored engine makes byte-identical decisions on the
        remaining stream: habit rows, breaker state and day buffers all
        round-trip through JSON exactly.  Raises
        :class:`CheckpointError` on an unknown schema version, a
        structurally broken document, a fixed field holding another
        value, an ``adoption_frozen_until`` window (every executed day
        adopts the freshly mined model), or habit state that disagrees
        with the engine's day.
        """
        if not isinstance(state, dict):
            raise CheckpointError(
                f"checkpoint is not a JSON object (got {type(state).__name__})"
            )
        fmt = state.get("format")
        if fmt != _STATE_FORMAT:
            raise CheckpointError(
                f"unsupported stream checkpoint format: {fmt!r} "
                f"(this build reads format {_STATE_FORMAT})"
            )
        try:
            if state["update_model"] is not True:
                raise ValueError(
                    f"'update_model' must be true, got {state['update_model']!r}"
                )
            if "adoption_frozen_until" in state:
                raise ValueError(
                    "'adoption_frozen_until' is not read: every executed day "
                    "adopts the freshly mined model"
                )
            engine = cls(
                str(state["user_id"]),
                config=config_from_dict(state["config"]),
                start_weekday=int(state["start_weekday"]),
                train_days=int(state["train_days"]),
            )
            engine.habits = OnlineHabitModel.load_state(state["habits"])
            engine.netmaster.breaker.load_state(state["breaker"])
            engine.day = int(state["day"])
            engine._last_time = float(state["last_time"])
            engine.events = int(state["events"])
            engine.days_executed = int(state["days_executed"])
            engine.days_degraded = int(state["days_degraded"])
            engine.interrupts = int(state["interrupts"])
            # Absent in unalerted checkpoints (emitted only when nonzero).
            engine.quarantined_until = int(state.get("quarantined_until", 0))
            if engine.habits.next_day != engine.day:
                raise ValueError(
                    f"habit state closes day {engine.habits.next_day} next, "
                    f"but the engine is on day {engine.day}"
                )
            for day_key, buf in state["buffers"].items():
                day = int(day_key)
                sessions = [
                    ScreenSession(float(s), float(e)) for s, e in buf["sessions"]
                ]
                usages = [
                    AppUsage(float(t), str(app), float(d)) for t, app, d in buf["usages"]
                ]
                activities = [
                    NetworkActivity(
                        time=float(t),
                        app=str(app),
                        down_bytes=float(down),
                        up_bytes=float(up),
                        duration=float(dur),
                        screen_on=bool(on),
                    )
                    for t, app, down, up, dur, on in buf["activities"]
                ]
                if sessions:
                    engine._sessions[day] = sessions
                if usages:
                    engine._usages[day] = usages
                if activities:
                    engine._activities[day] = activities
        except _DAMAGE as exc:
            raise CheckpointError(
                f"corrupt stream checkpoint ({type(exc).__name__}: {exc})"
            ) from exc
        return engine

    def to_json(self) -> str:
        """:meth:`state_dict` as a JSON string (checkpoint payload)."""
        metrics().inc("stream.checkpoints")
        return self.state_json()

    @classmethod
    def from_json(cls, payload: str) -> "OnlineNetMaster":
        """Restore from :meth:`to_json` output.

        Raises :class:`CheckpointError` (never a raw
        :class:`json.JSONDecodeError`) when the payload is truncated or
        corrupt.
        """
        try:
            state = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint JSON is truncated or corrupt: {exc}"
            ) from exc
        return cls.from_state(state)

