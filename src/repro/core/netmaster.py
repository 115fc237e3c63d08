"""The NetMaster middleware facade (paper Section V).

:class:`NetMaster` wires the three components together exactly as the
architecture figure (Fig. 6) draws them:

* **monitoring** — the history trace handed to :meth:`NetMaster.train`
  (on a phone this is the event/time-triggered recorder);
* **mining** — :class:`~repro.habits.prediction.HabitModel` fitted from
  that history, plus the Special-App registry;
* **scheduling** — :class:`~repro.core.scheduler.NetMasterScheduler`
  (decision making) and :class:`~repro.core.adjustment.RealTimeAdjustment`
  (duty cycle + Special Apps).

:meth:`NetMaster.execute_day` replays one held-out day through the full
pipeline and returns everything the evaluation needs: the executed
transfer schedule, the duty-cycle wake windows, and the interrupt
accounting of Section VI-B.  A degraded day (untrusted history, an open
circuit breaker or a monitor quarantine) runs the same loop with no
plan: only the duty cycle moves screen-off traffic.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field

from repro._util import DAY, check_fraction, check_positive, hour_of, merge_intervals
from repro.core.adjustment import GapServicer, RealTimeAdjustment
from repro.core.profit import DEFAULT_ET, ProfitParams
from repro.core.scheduler import DayPlan, NetMasterScheduler
from repro.faults.degradation import CircuitBreaker
from repro.habits.prediction import DataSufficiency, HabitModel, SlotPrediction
from repro.habits.threshold import DeltaStrategy
from repro.radio.bandwidth import LinkModel
from repro.radio.power import RadioPowerModel, wcdma_model
from repro.radio.rrc import TruncatedTail
from repro.telemetry import metrics, tracer
from repro.traces.events import NetworkActivity, Trace, pack_release

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class NetMasterConfig:
    """All tunables of the middleware, with the paper's defaults."""

    power: RadioPowerModel = field(default_factory=wcdma_model)
    link: LinkModel = field(default_factory=LinkModel)
    et_w: float = DEFAULT_ET
    eps: float = 0.1
    delta: DeltaStrategy | None = None  # None → paper's 0.2/0.1 split
    duty_initial_s: float = 30.0
    duty_factor: float = 2.0
    duty_max_s: float = 3600.0
    wake_window_s: float = 1.0
    guard_s: float = 1.0
    #: When True (deployment behaviour), screen-off traffic arriving
    #: inside predicted user-active slots is held briefly and flushed on
    #: the next real session at carrier speed.  When False (the paper's
    #: offline δ-sweep semantics, Eq. (3)), traffic inside U runs with
    #: stock radio behaviour and only T_n (outside U) is optimized —
    #: this is what makes energy saving grow with δ in Fig. 10(c).
    optimize_in_slot_traffic: bool = True
    #: Graceful degradation: with fewer than ``min_history_days`` clean
    #: weekdays of history (see :meth:`HabitModel.data_sufficiency`) the
    #: middleware refuses to predict and runs duty-cycle-only instead.
    min_history_days: int = 3
    degrade_on_insufficient_history: bool = True
    #: Per-day circuit breaker: when the observed misprediction rate
    #: (interrupts / interactions) crosses ``breaker_threshold`` on a day
    #: with enough signal, deferral is disabled for the next
    #: ``breaker_cooldown_days`` days.
    enable_circuit_breaker: bool = True
    breaker_threshold: float = 0.3
    breaker_min_interactions: int = 20
    breaker_cooldown_days: int = 1

    def __post_init__(self) -> None:
        check_fraction("eps", self.eps)
        check_positive("duty_initial_s", self.duty_initial_s)
        check_positive("wake_window_s", self.wake_window_s)
        check_positive("guard_s", self.guard_s, strict=False)
        check_fraction("breaker_threshold", self.breaker_threshold)
        if self.min_history_days < 1:
            raise ValueError(f"min_history_days must be >= 1, got {self.min_history_days}")

    def tail_policy(self) -> TruncatedTail:
        """NetMaster's radio-off policy: tails truncated at the guard."""
        return TruncatedTail(self.guard_s)


@dataclass
class DayExecution:
    """Outcome of replaying one day under NetMaster."""

    weekend: bool
    #: ``None`` on degraded (duty-cycle-only) days — nothing was planned.
    plan: DayPlan | None
    activities: list[NetworkActivity]
    #: Per-activity tail allowance (seconds), parallel to ``activities``:
    #: the guard for traffic NetMaster controls, the full carrier timers
    #: (inf) for traffic it leaves alone.
    activity_tails: list[float]
    wake_windows: list[tuple[float, float]]
    user_interactions: int
    interrupts: int
    immediate: int
    deferred_to_slots: int
    duty_serviced: int
    carried_to_gap_end: int
    #: True when the middleware fell back to duty-cycle-only for this day
    #: (insufficient/corrupt history, or the circuit breaker was open).
    degraded: bool = False


class NetMaster:
    """The middleware service: train on history, execute held-out days."""

    def __init__(self, config: NetMasterConfig | None = None) -> None:
        self.config = config or NetMasterConfig()
        self.habit: HabitModel | None = None
        self.scheduler: NetMasterScheduler | None = None
        self.adjustment: RealTimeAdjustment | None = None
        self.sufficiency: DataSufficiency | None = None
        #: True when the fitted history cannot be trusted for prediction —
        #: every day then runs the duty-cycle-only fallback.
        self.insufficient_history = False
        #: External quarantine override (set by :mod:`repro.monitor`
        #: feedback): forces duty-cycle-only execution without touching
        #: the breaker or the fitted model.
        self.force_degraded = False
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            min_interactions=self.config.breaker_min_interactions,
            cooldown_days=self.config.breaker_cooldown_days,
        )

    # ------------------------------------------------------------------
    # training (monitoring + mining)
    # ------------------------------------------------------------------
    def train(self, history: Trace) -> HabitModel:
        """Fit the habit model on a history trace and adopt it.

        The fitted model is health-checked: too few observed days of a
        day type, or NaN/inf smuggled in by a corrupted monitoring store,
        flips the middleware into duty-cycle-only degradation (unless
        ``degrade_on_insufficient_history`` is off).  A model that will
        plan gets its weekday and weekend plan parts built here, once:
        every day :meth:`execute_day` replays then reuses them.
        """
        habit = self.adopt_model(HabitModel.fit(history))
        if not self.insufficient_history:
            assert self.scheduler is not None
            self.scheduler.prepare()
        return habit

    def adopt_model(self, habit: HabitModel) -> HabitModel:
        """Install an already-fitted habit model (mining done elsewhere).

        Runs the same health check and builds the same scheduler and
        real-time-adjustment components :meth:`train` would; the online
        engine (:mod:`repro.stream`) calls this with incrementally mined
        models instead of refitting from a full history trace.  It
        adopts a new model at every day close, so nothing is prepared
        here: the scheduler builds each day's plan when asked.
        """
        self.habit = habit
        self.sufficiency = self.habit.data_sufficiency(
            min_days=self.config.min_history_days
        )
        self.insufficient_history = (
            self.config.degrade_on_insufficient_history
            and not self.sufficiency.sufficient
        )
        metrics().inc("core.netmaster.trainings")
        if self.insufficient_history:
            metrics().inc("core.netmaster.degraded_history")
            logger.warning(
                "history insufficient for prediction (%s); "
                "falling back to duty-cycle-only execution",
                "; ".join(self.sufficiency.reasons) or "unspecified",
            )
        params = ProfitParams(
            power=self.config.power, link=self.config.link, et_w=self.config.et_w
        )
        self.scheduler = NetMasterScheduler(
            habit=self.habit, params=params, eps=self.config.eps, delta=self.config.delta
        )
        self.adjustment = RealTimeAdjustment(
            special_apps=self.habit.special_apps,
            servicer=GapServicer(
                initial_s=self.config.duty_initial_s,
                factor=self.config.duty_factor,
                max_s=self.config.duty_max_s,
                wake_window_s=self.config.wake_window_s,
            ),
        )
        return self.habit

    @property
    def degraded(self) -> bool:
        """Whether the next day will run duty-cycle-only."""
        return self.insufficient_history or self.breaker.open or self.force_degraded

    def _require_trained(self) -> None:
        if self.habit is None or self.scheduler is None or self.adjustment is None:
            raise RuntimeError("NetMaster.train(history) must be called first")

    # ------------------------------------------------------------------
    # planning (scheduling component: decision making)
    # ------------------------------------------------------------------
    def plan_day(self, *, weekend: bool) -> DayPlan:
        """A fresh day plan for the given day type."""
        self._require_trained()
        assert self.scheduler is not None
        return self.scheduler.plan(weekend=weekend)

    # ------------------------------------------------------------------
    # execution (scheduling component: real-time adjustment)
    # ------------------------------------------------------------------
    def execute_day(self, day: Trace) -> DayExecution:
        """Replay a single-day trace through the full middleware.

        ``day`` must be a single-day trace (times in ``[0, DAY)``), e.g.
        from :meth:`repro.traces.events.Trace.day_view`.  On a degraded
        day (see :attr:`degraded`) nothing is planned: the radio follows
        the user, every screen-off transfer is duty-cycled over the gaps
        between screen sessions — the paper's real-time adjustment layer
        alone — and no interrupt is counted, since nothing was predicted.
        """
        self._require_trained()
        assert self.adjustment is not None
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        degraded = self.degraded
        weekend = day.is_weekend_day(0)
        plan = None if degraded else self.plan_day(weekend=weekend)
        special = self.adjustment.special_apps

        bandwidth = self.config.link.bandwidth_bps
        guard = self.config.guard_s
        executed: list[tuple[NetworkActivity, float]] = []
        pending: list[NetworkActivity] = []
        immediate = deferred = 0
        interrupts = 0
        # Per-session packing cursor for piggybacked transfers.
        session_cursor: dict[int, float] = {}
        session_starts = [s.start for s in day.screen_sessions]

        for activity in day.activities:
            if activity.screen_on:
                # Foreground / in-session traffic runs as recorded.  A
                # use outside the predicted slots whose app is neither
                # special nor newly installed would find the radio down:
                # that is the "wrong decision" of Section VI-B.
                executed.append((activity, guard))
                if (
                    plan is not None
                    and not plan.prediction.covers(activity.time)
                    and not special.is_special(activity.app)
                ):
                    interrupts += 1
                continue
            if plan is None:
                # Degraded: the duty cycle services every screen-off transfer.
                pending.append(activity.compressed(bandwidth))
                continue
            if plan.prediction.covers(activity.time):
                if not self.config.optimize_in_slot_traffic:
                    # Offline δ-sweep semantics (Eq. (3)): traffic inside
                    # U is not NetMaster's to touch — stock timers apply.
                    executed.append((activity, float("inf")))
                    immediate += 1
                    continue
                # Screen-off traffic inside U: hold it until the radio
                # comes up for the user anyway — the next real session in
                # the slot — and flush it at carrier speed (real-time
                # adjustment piggybacking).  No session left in the slot:
                # fall through to planning/duty-cycle handling.
                idx = _next_session_in_slot(session_starts, activity.time, plan.prediction)
                if idx is not None:
                    moved = pack_release(
                        session_cursor,
                        idx,
                        session_starts[idx],
                        activity,
                        activity.compressed_duration(bandwidth),
                    )
                    executed.append((moved, guard))
                    immediate += 1
                    continue
            slot_id = plan.admit(hour_of(activity.time), activity.total_bytes)
            if slot_id is not None:
                slot_start = plan.instance.slot_info[slot_id].start
                moved = pack_release(
                    plan.cursors,
                    slot_id,
                    slot_start,
                    activity,
                    activity.compressed_duration(bandwidth),
                )
                if moved.time < 0.0:  # longer than a day: start at midnight
                    moved = moved.moved_to(0.0)
                executed.append((moved, guard))
                deferred += 1
            else:
                pending.append(activity.compressed(bandwidth))

        # Duty-cycle the idle gaps (screen off AND outside predicted slots).
        busy = [(s.start, s.end) for s in day.screen_sessions]
        if plan is not None:
            busy.extend((slot.start, slot.end) for slot in plan.prediction.slots)
        wake_windows, duty_serviced, carried, in_place = self._service_gaps(
            busy, pending, executed
        )
        immediate += in_place

        executed.sort(key=lambda pair: pair[0].time)
        if degraded:
            self.breaker.tick_degraded()
        elif self.config.enable_circuit_breaker:
            self.breaker.record(interrupts, len(day.usages))
        execution = DayExecution(
            weekend=weekend,
            plan=plan,
            activities=[a for a, _ in executed],
            activity_tails=[t for _, t in executed],
            wake_windows=wake_windows,
            user_interactions=len(day.usages),
            interrupts=interrupts,
            immediate=immediate,
            deferred_to_slots=deferred,
            duty_serviced=duty_serviced,
            carried_to_gap_end=carried,
            degraded=degraded,
        )
        _record_day(execution, day)
        return execution

    def _service_gaps(
        self,
        busy: list[tuple[float, float]],
        pending: list[NetworkActivity],
        executed: list[tuple[NetworkActivity, float]],
    ) -> tuple[list[tuple[float, float]], int, int, int]:
        """Duty-cycle ``pending`` over the gaps of ``[0, DAY)`` outside ``busy``.

        ``pending`` is in time order (:meth:`execute_day` fills it in
        ``day.activities`` order), so each gap's transfers are one slice
        found by bisection.  Transfers land in ``executed`` with the
        guard tail.  Anything left pending sits inside a busy period
        (e.g. a slot whose plan capacity ran out): the radio is reachable
        there, so it simply executes in place.  Returns the wake windows
        and the serviced, carried-to-gap-end and in-place counts.
        """
        assert self.adjustment is not None
        guard = self.config.guard_s
        gaps = _complement(merge_intervals(busy), 0.0, DAY)
        times = [a.time for a in pending]
        wake_windows: list[tuple[float, float]] = []
        serviced = carried = 0
        outside: list[NetworkActivity] = []
        cursor = 0
        for gap_start, gap_end in gaps:
            lo = bisect.bisect_left(times, gap_start, cursor)
            hi = bisect.bisect_left(times, gap_end, lo)
            outside.extend(pending[cursor:lo])
            cursor = hi
            in_gap = pending[lo:hi]
            if not in_gap and gap_end - gap_start < self.config.duty_initial_s:
                continue
            result = self.adjustment.servicer.service(gap_start, gap_end, in_gap)
            executed.extend(
                (a.moved_to(min(a.time, DAY - a.duration)), guard)
                for a in result.executed
            )
            wake_windows.extend(result.wake_windows)
            serviced += result.serviced
            carried += result.carried_to_end
        outside.extend(pending[cursor:])
        executed.extend(
            (a.moved_to(min(a.time, DAY - a.duration)), guard) for a in outside
        )
        return wake_windows, serviced, carried, len(outside)


def _record_day(execution: DayExecution, day: Trace) -> None:
    """Telemetry for one replayed day (no effect on the execution)."""
    reg = metrics()
    if reg.enabled:
        reg.inc("core.netmaster.days")
        if execution.degraded:
            reg.inc("core.netmaster.days_degraded")
        reg.inc("core.netmaster.interrupts", execution.interrupts)
        reg.inc("core.netmaster.immediate", execution.immediate)
        reg.inc("core.netmaster.deferred_to_slots", execution.deferred_to_slots)
        reg.inc("core.netmaster.duty_serviced", execution.duty_serviced)
        reg.inc("core.netmaster.carried_to_gap_end", execution.carried_to_gap_end)
    trc = tracer()
    if trc.enabled:
        for s in day.screen_sessions:
            trc.record_span("screen-on", "screen", s.start, s.end)
        for start, end in execution.wake_windows:
            trc.record_span("duty-wake", "duty", start, end)


def _next_session_in_slot(
    session_starts: list[float], time_s: float, prediction: SlotPrediction
) -> int | None:
    """Index of the next screen session starting within the slot covering
    ``time_s``, or ``None`` when the slot runs out before the user shows
    up again."""
    for slot in prediction.slots:
        if slot.start <= time_s < slot.end:
            idx = bisect.bisect_left(session_starts, time_s)
            if idx < len(session_starts) and session_starts[idx] < slot.end:
                return idx
            return None
    return None


def _complement(
    busy: list[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    """Gaps of ``[start, end]`` not covered by sorted disjoint ``busy``."""
    gaps: list[tuple[float, float]] = []
    cursor = start
    for lo, hi in busy:
        if lo > cursor:
            gaps.append((cursor, min(lo, end)))
        cursor = max(cursor, hi)
        if cursor >= end:
            break
    if cursor < end:
        gaps.append((cursor, end))
    return gaps
