"""The NetMaster scheduling component: plan construction and admission.

Glues the mining outputs to Algorithm 1 (Section V-C "decision making"):

1. predict the user-active slot set ``U`` for the day type;
2. build the overlapped-MKP instance from expected screen-off traffic
   (:mod:`repro.core.profit`);
3. solve it with the ``(1-ε)/2`` algorithm (ε = 0.1 in the paper);
4. expose the result as a :class:`DayPlan` that the runtime queries
   activity-by-activity: *which slot does an hour-``h`` background
   transfer go to, and is there capacity left?*

Scheduled transfers are packed back-to-back from the start of their slot
(:func:`repro.traces.events.pack_release`, keyed by slot id) so they
coalesce into a single radio-on window.

Steps 1-3 depend only on the model and the day type, so a model that
will plan many days builds them once per day type
(:meth:`NetMasterScheduler.prepare`); each :class:`DayPlan` then shares
those :class:`PlanParts` and owns only its runtime admission state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import check_fraction
from repro.core.overlapped import MKPSolution, solve_overlapped
from repro.core.profit import ProfitParams, ScheduleInstance, build_instance
from repro.habits.prediction import HabitModel, SlotPrediction
from repro.habits.threshold import DeltaStrategy
from repro.telemetry import metrics, tracer


@dataclass
class DayPlan:
    """The executable outcome of one day's planning.

    Stateful at runtime: :meth:`admit` consumes slot capacity and the
    executor advances the per-slot packing ``cursors``, so create a fresh
    plan (or call :meth:`reset`) per simulated day.
    """

    weekend: bool
    prediction: SlotPrediction
    instance: ScheduleInstance
    solution: MKPSolution
    hour_slots: dict[int, list[int]]
    capacity_left: dict[int, float] = field(default_factory=dict)
    #: Next packed start per slot id (:func:`~repro.traces.events.pack_release`);
    #: a slot's first transfer starts at the slot start.
    cursors: dict[int, float] = field(default_factory=dict)
    _rotation: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Restore full capacities and packing cursors."""
        self.capacity_left = {s.slot_id: s.capacity for s in self.instance.slots}
        self.cursors = {}
        self._rotation = {}

    def admit(self, hour: int, payload_bytes: float) -> int | None:
        """Admit a real activity of hour ``hour`` into a planned slot.

        Rotates through the slots the hour's pseudo-activities were
        assigned to, skipping slots whose remaining capacity cannot take
        the payload.  Returns the chosen slot id, or ``None`` when the
        activity must fall back to the duty-cycle path.
        """
        assigned = self.hour_slots.get(hour)
        if not assigned:
            return None
        start = self._rotation.get(hour, 0)
        for offset in range(len(assigned)):
            slot_id = assigned[(start + offset) % len(assigned)]
            if self.capacity_left[slot_id] >= payload_bytes:
                self._rotation[hour] = (start + offset + 1) % len(assigned)
                self.capacity_left[slot_id] -= payload_bytes
                return slot_id
        return None


@dataclass(frozen=True)
class PlanParts:
    """The half of a :class:`DayPlan` that the habit model alone decides.

    A plan is a pure function of (habit model, day type, profit
    parameters, ε, δ), so every plan of one day type can share these
    parts.  Nothing writes to them at run time: admission and packing
    touch only the plan's own capacities, cursors and rotation.
    """

    prediction: SlotPrediction
    instance: ScheduleInstance
    solution: MKPSolution
    hour_slots: dict[int, list[int]]


@dataclass
class NetMasterScheduler:
    """Builds :class:`DayPlan` objects from a fitted habit model."""

    habit: HabitModel
    params: ProfitParams
    eps: float = 0.1
    delta: DeltaStrategy | None = None
    #: Weekday (``False``) and weekend (``True``) parts built by
    #: :meth:`prepare`; empty until then, and :meth:`plan` builds anew.
    prepared: dict[bool, PlanParts] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_fraction("eps", self.eps)
        if self.eps == 0.0:
            raise ValueError("eps must be > 0 (the FPTAS needs a positive ε)")

    def prepare(self) -> None:
        """Build the weekday and weekend plan parts once, for every later plan."""
        self.prepared = {weekend: self._build(weekend=weekend) for weekend in (False, True)}

    def plan(self, *, weekend: bool) -> DayPlan:
        """Produce the day's scheduling scheme ``S`` (Eq. (6)) as a fresh plan."""
        parts = self.prepared.get(weekend)
        if parts is None:
            parts = self._build(weekend=weekend)
        return DayPlan(
            weekend=weekend,
            prediction=parts.prediction,
            instance=parts.instance,
            solution=parts.solution,
            hour_slots=parts.hour_slots,
        )

    def _build(self, *, weekend: bool) -> PlanParts:
        """Predict ``U``, build the overlapped-MKP instance and solve it."""
        prediction = self.habit.user_slots(weekend=weekend, strategy=self.delta)
        instance = build_instance(self.habit, prediction, self.params, weekend=weekend)
        with tracer().span(
            "knapsack-solve",
            "scheduler",
            slots=len(instance.slots),
            items=len(instance.items),
        ):
            solution = solve_overlapped(instance.slots, instance.items, eps=self.eps)
        reg = metrics()
        if reg.enabled:
            reg.inc("core.scheduler.plans")
            reg.inc("core.scheduler.items_planned", len(solution.assignment))
            reg.inc("core.scheduler.items_unplaced", len(instance.unplaced))
        hour_slots: dict[int, list[int]] = {}
        for item_id in sorted(solution.assignment):
            activity = instance.activity_info[item_id]
            hour_slots.setdefault(activity.hour, []).append(
                solution.assignment[item_id]
            )
        return PlanParts(
            prediction=prediction,
            instance=instance,
            solution=solution,
            hour_slots=hour_slots,
        )
