"""Incremental habit mining: the habit fit, one event at a time.

:class:`OnlineHabitModel` consumes a chronological record stream and
maintains the per-day hour-level rows of the habit statistics:
screen-use indicators, screen-off network counts/bytes/seconds, and
screen-on seconds.  It is the one habit fitter: the offline
:meth:`repro.habits.prediction.HabitModel.fit` folds a whole history
through it and closes every day, so a stream that has closed the same
days holds **bit-exactly** the offline model (equal array bytes).  Its
tests compare it, bit for bit, with a whole-trace matrix walk of the
same statistics.

Causality: contributions land in *pending* per-day rows as events
arrive; a day only influences :meth:`to_model` once it is *closed*
(:meth:`close_day`), which the scheduling layer does at day boundaries.
Pending rows are plain Python float lists — the per-event folds do the
same IEEE operations on them without creating a numpy scalar per hour
cell — and become float64 arrays when their day closes.
Closing also emits a drift score — how far the finished day's screen-use
row sits from the learned profile — so a fleet can flag users whose
habits are moving away from their model.

Every closed day is kept, as the offline fit keeps the whole history.
A closed day never changes, so its rows are JSON-encoded once:
:meth:`OnlineHabitModel.state_json` fills each day's text on the first
serialization that needs it and reuses it after.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Iterable

import numpy as np

from repro._util import DAY, HOUR, HOURS_PER_DAY, dumps_spliced, is_weekend
from repro.habits.prediction import HabitModel
from repro.habits.special_apps import SpecialAppRegistry
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession, TraceRecord

_STATE_FORMAT = 1

#: The five per-day row kinds feeding the fitted model's statistics.
_KINDS = ("use", "net_counts", "net_bytes", "net_seconds", "screen_seconds")

#: The two day types, in the order the state document keys them.
_DAYTYPES = ("weekday", "weekend")

#: Separators of the cached closed-day text (compact JSON).
_COMPACT = (",", ":")

#: Default drift level that counts as an alert (mean absolute deviation
#: of a day's 0/1 screen-use row from the learned hour probabilities; a
#: fully habitual day scores near the profile's own variance, a fully
#: out-of-profile day approaches 1.0).
DEFAULT_DRIFT_THRESHOLD = 0.5


def _zero_rows() -> dict[str, np.ndarray]:
    return {kind: np.zeros(HOURS_PER_DAY, dtype=np.float64) for kind in _KINDS}


def _open_rows() -> dict[str, list[float]]:
    return {kind: [0.0] * HOURS_PER_DAY for kind in _KINDS}


def _open_apps() -> dict:
    return {"usage_counts": {}, "networked": set()}


def _rows_out(rows: dict[str, np.ndarray]) -> dict[str, list[float]]:
    return {kind: rows[kind].tolist() for kind in _KINDS}


def _rows_in(data: dict) -> dict[str, np.ndarray]:
    block = np.asarray([data[kind] for kind in _KINDS], dtype=np.float64)
    if block.shape != (len(_KINDS), HOURS_PER_DAY):
        raise ValueError(f"a closed day needs {HOURS_PER_DAY} numbers per row")
    return dict(zip(_KINDS, block))


def _names(values) -> set[str]:
    """A checkpointed list of app names as a set; raises on other types."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"expected a list of app names, got {values!r}")
    return set(values)


def _pending_in(data: dict) -> dict[str, list[float]]:
    rows = {kind: [float(v) for v in data[kind]] for kind in _KINDS}
    if any(len(row) != HOURS_PER_DAY for row in rows.values()):
        raise ValueError(f"an open-day row needs {HOURS_PER_DAY} numbers")
    return rows


class _ClosedDay:
    """One closed day: its rows and, once encoded, their JSON."""

    __slots__ = ("rows", "text")

    def __init__(self, rows: dict[str, np.ndarray]) -> None:
        self.rows = rows
        self.text: str | None = None

    def encoded(self) -> str:
        """The rows as :meth:`OnlineHabitModel.state_dict` emits them,
        in compact JSON (``","``/``":"``), encoded on the first call."""
        if self.text is None:
            self.text = json.dumps(_rows_out(self.rows), separators=_COMPACT)
        return self.text


class OnlineHabitModel:
    """Streaming accumulator of the habit statistics.

    Feed records with :meth:`observe` (in chronological order), close
    days with :meth:`close_day` as stream time crosses midnights, and
    materialize the current model with :meth:`to_model`.  All state is
    JSON-checkpointable via :meth:`state_dict`/:meth:`load_state` with
    exact float round-trip.
    """

    def __init__(
        self,
        user_id: str,
        *,
        start_weekday: int = 0,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> None:
        if not 0 <= start_weekday < 7:
            raise ValueError(f"start_weekday must be in [0, 7), got {start_weekday}")
        self.user_id = user_id
        self.start_weekday = int(start_weekday)
        self.drift_threshold = float(drift_threshold)
        #: Next day index to close; days close strictly in order.
        self.next_day = 0
        self.last_drift = 0.0
        self.drift_alerts = 0
        # Open (pending) per-day state: rows + special-app observations,
        # created on a day's first event.
        self._pending_rows: defaultdict[int, dict[str, list[float]]] = (
            defaultdict(_open_rows)
        )
        self._pending_apps: defaultdict[int, dict] = defaultdict(_open_apps)
        # Every closed day, per day type.
        self._days: dict[str, list[_ClosedDay]] = {t: [] for t in _DAYTYPES}
        # Special-app knowledge from closed days only.
        self._used: set[str] = set()
        self._networked: set[str] = set()
        self._usage_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # observation (one event at a time)
    # ------------------------------------------------------------------
    def observe(self, record: TraceRecord) -> None:
        """Fold one record into the pending per-day rows."""
        if isinstance(record, ScreenSession):
            self.observe_session(record)
        elif isinstance(record, AppUsage):
            self.observe_usage(record)
        elif isinstance(record, NetworkActivity):
            self.observe_activity(record)
        else:  # pragma: no cover - TraceRecord is a closed union
            raise TypeError(f"not a trace record: {type(record).__name__}")

    def observe_many(self, records: Iterable[TraceRecord]) -> None:
        """Fold a chronological record iterable."""
        for record in records:
            self.observe(record)

    def observe_session(self, session: ScreenSession) -> None:
        """Mark the hours a session overlaps as used; add its seconds to each."""
        pending = self._pending_rows
        start, end = session.start, session.end
        # Binary used-in-hour indicators.  The floor of a finite double is
        # exact as an int, so ``math.floor`` plus 1.0 is ``np.floor`` plus
        # 1.0, bit for bit.
        t = start
        last = max(start, end - 1e-9)
        while True:
            pending[int(t // DAY)]["use"][int((t % DAY) // HOUR)] = 1.0
            next_bin = (math.floor(t / 3600.0) + 1.0) * 3600.0
            if next_bin > last:
                break
            t = next_bin
        # Seconds of screen-on per hour cell.
        t = start
        while t < end:
            seg_end = min(end, (math.floor(t / HOUR) + 1.0) * HOUR)
            pending[int(t // DAY)]["screen_seconds"][
                int((t % DAY) // HOUR)
            ] += seg_end - t
            t = seg_end

    def observe_usage(self, usage: AppUsage) -> None:
        """Foreground interaction: special-app evidence only."""
        counts = self._pending_apps[int(usage.time // DAY)]["usage_counts"]
        counts[usage.app] = counts.get(usage.app, 0) + 1

    def observe_activity(self, activity: NetworkActivity) -> None:
        """Screen-off count, bytes and seconds, binned at the start hour
        (background syncs are seconds long, so spill-over is negligible)."""
        time = activity.time
        day = int(time // DAY)
        self._pending_apps[day]["networked"].add(activity.app)
        if activity.screen_on:
            return
        hour = int((time % DAY) // HOUR)
        rows = self._pending_rows[day]
        rows["net_counts"][hour] += 1.0
        rows["net_bytes"][hour] += activity.total_bytes
        rows["net_seconds"][hour] += activity.duration

    # ------------------------------------------------------------------
    # day boundaries
    # ------------------------------------------------------------------
    def is_weekend_day(self, day: int) -> bool:
        """Whether stream day ``day`` is a Saturday or Sunday."""
        return is_weekend(day, self.start_weekday)

    def close_day(self, day: int) -> float:
        """Fold the finished day into the model; returns its drift score.

        Days close strictly in order.  Events of later days may already
        sit in pending rows (a midnight-crossing session writes ahead);
        they stay pending until their own day closes.
        """
        if day != self.next_day:
            raise ValueError(f"days close in order; expected {self.next_day}, got {day}")
        self.next_day += 1
        pending = self._pending_rows.pop(day, None)
        rows = (
            _zero_rows()
            if pending is None
            else {kind: np.array(pending[kind], dtype=np.float64) for kind in _KINDS}
        )
        apps = self._pending_apps.pop(day, None)
        daytype = "weekend" if self.is_weekend_day(day) else "weekday"

        drift = self._score_drift(rows["use"], daytype)
        self.last_drift = drift
        if self._days[daytype] and drift > self.drift_threshold:
            self.drift_alerts += 1

        self._days[daytype].append(_ClosedDay(rows))
        if apps is not None:
            for app, n in apps["usage_counts"].items():
                self._used.add(app)
                self._usage_counts[app] = self._usage_counts.get(app, 0) + n
            self._networked.update(apps["networked"])
        return drift

    def close_through(self, day: int) -> None:
        """Close every still-open day strictly before ``day``."""
        while self.next_day < day:
            self.close_day(self.next_day)

    def _score_drift(self, use_row: np.ndarray, daytype: str) -> float:
        """Mean absolute deviation of a day's use row from the profile."""
        if not self._days[daytype]:
            return 0.0
        return float(np.abs(use_row - self._mean(daytype, "use")).mean())

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _mean(self, daytype: str, kind: str) -> np.ndarray:
        days = self._days[daytype]
        if not days:
            return np.zeros(HOURS_PER_DAY)
        # np.stack yields the same C-contiguous (k, 24) float64 block a
        # boolean row-indexing of a (n_days, 24) matrix does, so
        # mean(axis=0) is the identical reduction — the test oracle's
        # bit-exactness linchpin.
        return np.stack([day.rows[kind] for day in days]).mean(axis=0)

    @property
    def n_weekdays(self) -> int:
        """Closed weekdays folded into the model."""
        return len(self._days["weekday"])

    @property
    def n_weekends(self) -> int:
        """Closed weekend days folded into the model."""
        return len(self._days["weekend"])

    def registry(self) -> SpecialAppRegistry:
        """Special-app registry from the closed days."""
        return SpecialAppRegistry(
            special=self._used & self._networked,
            seen=self._used | self._networked,
            usage_counts=dict(self._usage_counts),
        )

    def to_model(self) -> HabitModel:
        """The fitted model as of the last closed day."""
        return HabitModel(
            user_id=self.user_id,
            n_weekdays=self.n_weekdays,
            n_weekends=self.n_weekends,
            weekday_user_probs=self._mean("weekday", "use"),
            weekend_user_probs=self._mean("weekend", "use"),
            weekday_net_counts=self._mean("weekday", "net_counts"),
            weekend_net_counts=self._mean("weekend", "net_counts"),
            weekday_net_bytes=self._mean("weekday", "net_bytes"),
            weekend_net_bytes=self._mean("weekend", "net_bytes"),
            weekday_net_seconds=self._mean("weekday", "net_seconds"),
            weekend_net_seconds=self._mean("weekend", "net_seconds"),
            weekday_screen_seconds=self._mean("weekday", "screen_seconds"),
            weekend_screen_seconds=self._mean("weekend", "screen_seconds"),
            special_apps=self.registry(),
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All mutable state as JSON-safe values (exact float round-trip)."""
        state = self._state()
        state["rows"] = {
            daytype: [_rows_out(day.rows) for day in days]
            for daytype, days in self._days.items()
        }
        return state

    def state_json(self, separators: tuple[str, str] = (", ", ": ")) -> str:
        """:meth:`state_dict` as JSON text, byte for byte
        ``json.dumps(self.state_dict(), separators=separators)``.

        Each closed day's rows are encoded once, by the first call that
        needs them, and their text is reused after.
        """
        rows = dumps_spliced(
            dict.fromkeys(self._days),
            {
                daytype: "[" + ",".join(day.encoded() for day in days) + "]"
                for daytype, days in self._days.items()
            },
            _COMPACT,
        )
        # The rows hold numbers and the fixed kind keys only, so their
        # separators are the only commas and colons in the text.
        item_sep, key_sep = separators
        rows = rows.replace(",", item_sep).replace(":", key_sep)
        state = self._state()
        state["rows"] = None  # spliced
        return dumps_spliced(state, {"rows": rows}, separators)

    def take_encoded(self, source: "OnlineHabitModel") -> None:
        """Reuse ``source``'s closed-day text.

        For a model just restored from a serialization of ``source``:
        its closed days are ``source``'s, row for row, so their text
        is too.  Days ``source`` never encoded stay to be encoded.
        """
        for daytype, days in self._days.items():
            theirs = source._days[daytype]
            if len(days) == len(theirs):
                for day, their in zip(days, theirs):
                    day.text = their.text

    def _state(self) -> dict:
        """:meth:`state_dict` without the closed-day rows.

        ``window_days``, ``decay`` and ``frozen`` keep their place in
        format 1 with the one value this build writes and reads: every
        closed day is kept and folded.  ``counts`` is the number of
        closed days of each type.
        """
        return {
            "format": _STATE_FORMAT,
            "user_id": self.user_id,
            "start_weekday": self.start_weekday,
            "window_days": None,
            "decay": None,
            "drift_threshold": self.drift_threshold,
            "next_day": self.next_day,
            "frozen": False,
            "last_drift": self.last_drift,
            "drift_alerts": self.drift_alerts,
            "counts": {daytype: len(days) for daytype, days in self._days.items()},
            "pending_rows": {
                str(d): {kind: list(r[kind]) for kind in _KINDS}
                for d, r in self._pending_rows.items()
            },
            "pending_apps": {
                str(d): {
                    "usage_counts": dict(a["usage_counts"]),
                    "networked": sorted(a["networked"]),
                }
                for d, a in self._pending_apps.items()
            },
            "used": sorted(self._used),
            "networked": sorted(self._networked),
            "usage_counts": dict(self._usage_counts),
        }

    @classmethod
    def load_state(cls, state: dict) -> "OnlineHabitModel":
        """Rebuild an accumulator from :meth:`state_dict` output.

        Raises :class:`ValueError` on an unknown format, a retention
        field other than the fixed one, closed-day rows not keyed by
        exactly the two day types, or counts that disagree with them,
        and :class:`KeyError`, :class:`TypeError`, :class:`ValueError`,
        :class:`AttributeError` or :class:`OverflowError` on a document
        of the wrong shape.
        """
        if not isinstance(state, dict):
            raise TypeError(
                f"online-habit state is not a JSON object (got {type(state).__name__})"
            )
        fmt = state.get("format")
        if fmt != _STATE_FORMAT:
            raise ValueError(
                f"unsupported online-habit state format: {fmt!r} "
                f"(this build reads format {_STATE_FORMAT})"
            )
        for key, fixed in (("window_days", None), ("decay", None), ("frozen", False)):
            if state[key] is not fixed:
                raise ValueError(
                    f"online-habit {key!r} must be {json.dumps(fixed)} "
                    f"(every closed day is kept), got {state[key]!r}"
                )
        rows = state["rows"]
        if rows.keys() != set(_DAYTYPES):
            raise ValueError(f"closed-day rows must be keyed by {_DAYTYPES}")
        days = {t: [_ClosedDay(_rows_in(r)) for r in rows[t]] for t in _DAYTYPES}
        if state["counts"] != {t: len(d) for t, d in days.items()}:
            raise ValueError(
                f"closed-day counts {state['counts']!r} disagree with the rows"
            )
        model = cls(
            state["user_id"],
            start_weekday=int(state["start_weekday"]),
            drift_threshold=float(state["drift_threshold"]),
        )
        model._days = days
        model.next_day = int(state["next_day"])
        model.last_drift = float(state["last_drift"])
        model.drift_alerts = int(state["drift_alerts"])
        model._pending_rows.update({
            int(d): _pending_in(r) for d, r in state["pending_rows"].items()
        })
        model._pending_apps.update({
            int(d): {
                "usage_counts": {a: int(n) for a, n in v["usage_counts"].items()},
                "networked": _names(v["networked"]),
            }
            for d, v in state["pending_apps"].items()
        })
        model._used = _names(state["used"])
        model._networked = _names(state["networked"])
        model._usage_counts = {a: int(n) for a, n in state["usage_counts"].items()}
        return model
