"""Hour-level habit prediction (paper Section IV, steps 1-2).

:class:`HabitModel` is the mining component's brain: fitted on ``k`` days
of history it yields

* ``Pr[u(t_i)]`` — per-hour probabilities of phone use (Eq. (2)),
  separately for weekdays and weekends;
* the **user active slot set** ``U`` for a δ threshold — merged hour
  slots where ``Pr[u(t_i)] ≥ δ``;
* the **screen-off network active slot set** ``T_n`` (Eq. (3)) with the
  expected per-hour activity counts and payloads the scheduler sizes its
  knapsacks with;
* the usage-probability integral ``∫ Pr[u(t)] dt`` that prices the
  penalty ΔP of Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, HOUR, HOURS_PER_DAY, check_fraction
from repro.habits.special_apps import SpecialAppRegistry
from repro.habits.threshold import DeltaStrategy, FixedDelta, ImpactBasedDelta
from repro.traces.events import Trace


@dataclass(frozen=True, slots=True)
class Slot:
    """A predicted slot, in seconds within one day ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end <= DAY:
            raise ValueError(f"slot must satisfy 0 <= start < end <= {DAY}")

    @property
    def duration(self) -> float:
        """Slot length in seconds."""
        return self.end - self.start

    def contains(self, time_of_day: float) -> bool:
        """Whether a second-of-day falls inside this slot."""
        return self.start <= time_of_day < self.end


@dataclass(frozen=True, slots=True)
class SlotPrediction:
    """User-active-slot prediction for one day type."""

    hour_probs: np.ndarray
    delta: float
    slots: tuple[Slot, ...]

    @property
    def active_hours(self) -> np.ndarray:
        """Boolean mask of the hours covered by the predicted slots."""
        mask = np.zeros(HOURS_PER_DAY, dtype=bool)
        for slot in self.slots:
            first = int(slot.start // HOUR)
            last = int((slot.end - 1e-9) // HOUR)
            mask[first : last + 1] = True
        return mask

    def covers(self, time_of_day: float) -> bool:
        """Whether a second-of-day falls inside any predicted slot."""
        for slot in self.slots:
            if slot.start <= time_of_day < slot.end:
                return True
        return False


def _merge_hours(active: np.ndarray) -> tuple[Slot, ...]:
    """Merge consecutive active hours into slots (paper: ``t_i`` has no
    fixed length — adjacent qualifying hours form one slot)."""
    slots: list[Slot] = []
    start: int | None = None
    for hour in range(HOURS_PER_DAY):
        if active[hour] and start is None:
            start = hour
        elif not active[hour] and start is not None:
            slots.append(Slot(start * HOUR, hour * HOUR))
            start = None
    if start is not None:
        slots.append(Slot(start * HOUR, DAY))
    return tuple(slots)


@dataclass(frozen=True, slots=True)
class DataSufficiency:
    """Verdict of :meth:`HabitModel.data_sufficiency`.

    ``sufficient`` is the one bit callers branch on; ``reasons`` explains
    every check that failed, for logging and degradation reports.
    """

    sufficient: bool
    n_weekdays: int
    n_weekends: int
    reasons: tuple[str, ...] = ()


@dataclass
class HabitModel:
    """Fitted hour-level habit statistics for one user."""

    user_id: str
    n_weekdays: int
    n_weekends: int
    weekday_user_probs: np.ndarray
    weekend_user_probs: np.ndarray
    weekday_net_counts: np.ndarray
    weekend_net_counts: np.ndarray
    weekday_net_bytes: np.ndarray
    weekend_net_bytes: np.ndarray
    weekday_net_seconds: np.ndarray
    weekend_net_seconds: np.ndarray
    weekday_screen_seconds: np.ndarray
    weekend_screen_seconds: np.ndarray
    special_apps: SpecialAppRegistry = field(default_factory=SpecialAppRegistry)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, history: Trace) -> "HabitModel":
        """Fit from ``k`` days of monitoring history (Eqs. (2)-(3)): the
        history folded through the online engine's accumulator
        (:class:`~repro.stream.online_habits.OnlineHabitModel`), every day
        closed."""
        from repro.stream.online_habits import OnlineHabitModel
        from repro.telemetry import metrics, tracer

        metrics().inc("habits.fits")
        with tracer().span("habit-fit", "habits", days=history.n_days):
            online = OnlineHabitModel(
                history.user_id, start_weekday=history.start_weekday
            )
            for session in history.screen_sessions:
                online.observe_session(session)
            for usage in history.usages:
                online.observe_usage(usage)
            for activity in history.activities:
                online.observe_activity(activity)
            online.close_through(history.n_days)
            return online.to_model()

    # ------------------------------------------------------------------
    # per-day-type accessors
    # ------------------------------------------------------------------
    def user_probs(self, *, weekend: bool) -> np.ndarray:
        """``Pr[u(t_i)]`` for the 24 hour slots of a day type."""
        return self.weekend_user_probs if weekend else self.weekday_user_probs

    def net_counts(self, *, weekend: bool) -> np.ndarray:
        """Expected screen-off network activities per hour slot."""
        return self.weekend_net_counts if weekend else self.weekday_net_counts

    def net_bytes(self, *, weekend: bool) -> np.ndarray:
        """Expected screen-off payload (bytes) per hour slot."""
        return self.weekend_net_bytes if weekend else self.weekday_net_bytes

    def net_seconds(self, *, weekend: bool) -> np.ndarray:
        """Expected screen-off transfer seconds per hour slot."""
        return self.weekend_net_seconds if weekend else self.weekday_net_seconds

    def screen_seconds(self, *, weekend: bool) -> np.ndarray:
        """Expected screen-on seconds per hour slot (capacity evidence)."""
        return self.weekend_screen_seconds if weekend else self.weekday_screen_seconds

    # ------------------------------------------------------------------
    # health checks
    # ------------------------------------------------------------------
    def data_sufficiency(self, *, min_days: int = 3) -> DataSufficiency:
        """Whether this model carries enough clean signal to schedule on.

        Habit mining needs several observed days of *each* day type
        before its hour-level means stabilize (paper Section V trains on
        two weeks), and corrupted monitoring stores can smuggle NaN/inf
        into the statistics or wipe them to all-zero.  A model that fails
        any check should not drive deferral — the caller degrades to the
        duty-cycle-only baseline instead.
        """
        reasons: list[str] = []
        if self.n_weekdays < min_days:
            reasons.append(
                f"only {self.n_weekdays} weekday(s) observed (need {min_days})"
            )
        if self.n_weekends < min(min_days, 2):
            reasons.append(
                f"only {self.n_weekends} weekend day(s) observed "
                f"(need {min(min_days, 2)})"
            )
        arrays = {
            "weekday_user_probs": self.weekday_user_probs,
            "weekend_user_probs": self.weekend_user_probs,
            "weekday_net_counts": self.weekday_net_counts,
            "weekend_net_counts": self.weekend_net_counts,
            "weekday_net_bytes": self.weekday_net_bytes,
            "weekend_net_bytes": self.weekend_net_bytes,
            "weekday_net_seconds": self.weekday_net_seconds,
            "weekend_net_seconds": self.weekend_net_seconds,
        }
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                reasons.append(f"{name} contains NaN/inf (corrupted history)")
            elif np.any(arr < 0):
                reasons.append(f"{name} contains negative values (corrupted history)")
        if (
            np.all(self.weekday_user_probs == 0)
            and np.all(self.weekend_user_probs == 0)
        ):
            reasons.append("no screen use observed in any hour (empty history)")
        return DataSufficiency(
            sufficient=not reasons,
            n_weekdays=self.n_weekdays,
            n_weekends=self.n_weekends,
            reasons=tuple(reasons),
        )

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------
    def user_slots(
        self, *, weekend: bool, strategy: DeltaStrategy | None = None
    ) -> SlotPrediction:
        """Step 1: the user active slot set ``U`` for one day type.

        ``strategy`` defaults to the paper's fixed weekday/weekend deltas;
        an :class:`ImpactBasedDelta` resolves its data-dependent δ against
        this model's probability vector.
        """
        probs = self.user_probs(weekend=weekend)
        if strategy is None:
            strategy = FixedDelta(0.1 if weekend else 0.2)
        if isinstance(strategy, ImpactBasedDelta):
            delta = strategy.choose(probs)
        else:
            delta = strategy.delta_for(weekend=weekend)
        check_fraction("delta", delta)
        active = probs >= delta if delta > 0 else probs > 0
        return SlotPrediction(hour_probs=probs, delta=delta, slots=_merge_hours(active))

    def usage_prob_integral(self, t0: float, t1: float, *, weekend: bool) -> float:
        """``∫_{t0}^{t1} Pr[u(t)] dt`` over seconds-of-day (Eq. (4)).

        The probability is the hour-level step function; ``t0 <= t1`` must
        lie within one day.  Only the hours ``[t0, t1]`` overlaps are
        visited: every other hour has no positive overlap.
        """
        if not 0.0 <= t0 <= t1 <= DAY:
            raise ValueError(f"need 0 <= t0 <= t1 <= {DAY}, got [{t0}, {t1}]")
        probs = self.user_probs(weekend=weekend)
        total = 0.0
        for hour in range(int(t0 // HOUR), min(HOURS_PER_DAY - 1, int(t1 // HOUR)) + 1):
            lo, hi = hour * HOUR, (hour + 1) * HOUR
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0:
                total += probs[hour] * overlap
        return total


def prediction_accuracy(prediction: SlotPrediction, day: Trace) -> float:
    """Fraction of the day's usages falling inside the predicted slots.

    This is Fig. 10(c)'s "prediction accuracy" metric; ``day`` must be a
    single-day trace (e.g. from :meth:`repro.traces.events.Trace.day_view`).
    """
    if day.n_days != 1:
        raise ValueError("prediction_accuracy expects a single-day trace")
    if not day.usages:
        return 1.0
    inside = sum(1 for u in day.usages if prediction.covers(u.time % DAY))
    return inside / len(day.usages)
