"""Profit model and MKP instance construction (Eqs. (4)-(6)).

Turns a fitted :class:`~repro.habits.prediction.HabitModel` plus a
user-active-slot prediction into the overlapped-MKP instance Algorithm 1
solves:

* **items** are the *expected* screen-off network activities of the
  planning day — each hour of the network active slot set ``T_n``
  contributes its expected activity count, each with the hour's mean
  payload and duration;
* an item's **profit** in a candidate slot is ``ΔE − ΔP``: the tail/
  promotion energy saved (via the radio power model's ``g``) minus the
  Eq. (4) interruption penalty ``e_t · (t_m − t_j) · ∫Pr[u(t)]dt``;
* a slot's **capacity** is Eq. (5) applied to the slot's expected
  radio-active seconds (see :mod:`repro.radio.bandwidth`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import DAY, HOUR, HOURS_PER_DAY, check_fraction, check_positive
from repro.core.overlapped import MKPItem, MKPSlot
from repro.habits.prediction import HabitModel, Slot, SlotPrediction
from repro.radio.bandwidth import LinkModel
from repro.radio.power import RadioPowerModel

#: Default Eq. (4) scaling factor e_t (J / s²-of-probability-mass): chosen
#: so that deferring one typical background sync across a couple of hours
#: of likely usage costs the same order as its ΔE (~10 J on WCDMA).
DEFAULT_ET = 1e-6

#: Hours whose expected screen-off activity count falls below this do not
#: enter T_n (there is nothing worth planning for).
MIN_EXPECTED_COUNT = 0.25


@dataclass(frozen=True, slots=True)
class PlannedActivity:
    """One expected screen-off activity (a pseudo-item for planning)."""

    hour: int
    index: int
    payload_bytes: float
    duration_s: float
    nominal_time: float  # representative second-of-day

    def __post_init__(self) -> None:
        if not 0 <= self.hour < HOURS_PER_DAY:
            raise ValueError(f"hour must be in [0, 24), got {self.hour}")
        check_positive("payload_bytes", self.payload_bytes, strict=False)
        check_positive("duration_s", self.duration_s)
        if not 0.0 <= self.nominal_time < DAY:
            raise ValueError("nominal_time must lie within the day")


@dataclass(frozen=True, slots=True)
class ProfitParams:
    """Knobs of the profit model."""

    power: RadioPowerModel
    link: LinkModel = field(default_factory=LinkModel)
    et_w: float = DEFAULT_ET
    min_expected_count: float = MIN_EXPECTED_COUNT

    def __post_init__(self) -> None:
        check_positive("et_w", self.et_w, strict=False)
        check_positive("min_expected_count", self.min_expected_count, strict=False)


@dataclass
class ScheduleInstance:
    """A fully-specified overlapped-MKP instance plus its provenance."""

    weekend: bool
    prediction: SlotPrediction
    slots: list[MKPSlot]
    items: list[MKPItem]
    slot_info: dict[int, Slot]
    activity_info: dict[int, PlannedActivity]
    unplaced: list[PlannedActivity]


def expected_activities(
    model: HabitModel, *, weekend: bool, min_expected_count: float = MIN_EXPECTED_COUNT
) -> list[PlannedActivity]:
    """Expand per-hour expectations into individual pseudo-activities.

    An hour with expected count ``c ≥ min_expected_count`` contributes
    ``round(c)`` (at least 1) activities, each carrying the hour's mean
    payload and duration, spread evenly across the hour.
    """
    counts = model.net_counts(weekend=weekend)
    payloads = model.net_bytes(weekend=weekend)
    seconds = model.net_seconds(weekend=weekend)
    activities: list[PlannedActivity] = []
    for hour in range(HOURS_PER_DAY):
        c = float(counts[hour])
        if c < min_expected_count:
            continue
        n = max(1, int(round(c)))
        mean_bytes = payloads[hour] / c
        mean_duration = max(0.5, seconds[hour] / c)
        for i in range(n):
            activities.append(
                PlannedActivity(
                    hour=hour,
                    index=i,
                    payload_bytes=mean_bytes,
                    duration_s=mean_duration,
                    nominal_time=hour * HOUR + (i + 0.5) * HOUR / n,
                )
            )
    return activities


def slot_capacity_bytes(
    model: HabitModel, slot: Slot, link: LinkModel, *, weekend: bool
) -> float:
    """Eq. (5) capacity from the slot's expected radio-active seconds."""
    seconds = model.screen_seconds(weekend=weekend)
    active = 0.0
    first = int(slot.start // HOUR)
    last = int((slot.end - 1e-9) // HOUR)
    for hour in range(first, last + 1):
        lo, hi = hour * HOUR, (hour + 1) * HOUR
        overlap = min(slot.end, hi) - max(slot.start, lo)
        active += seconds[hour] * (overlap / HOUR)
    return link.slot_capacity_bytes(active)


def adjacent_slots(slots: tuple[Slot, ...], time_of_day: float) -> tuple[int | None, int | None]:
    """Indices of the user-active slots before and after ``time_of_day``.

    A time *inside* a slot returns that slot on both sides (it needs no
    rescheduling, but callers may still ask).
    """
    prev_idx = next_idx = None
    for i, slot in enumerate(slots):
        if slot.end <= time_of_day:
            prev_idx = i
        elif slot.start > time_of_day:
            next_idx = i
            break
        else:  # inside
            return i, i
    return prev_idx, next_idx


def placement_profit(
    activity: PlannedActivity,
    slot: Slot,
    model: HabitModel,
    params: ProfitParams,
    *,
    weekend: bool,
) -> float:
    """``ΔE − ΔP`` of placing ``activity`` into ``slot`` (may be ≤ 0).

    ΔE is the tail+promotion energy eliminated by piggybacking the
    transfer on an active slot; ΔP follows Eq. (4) over the deferral
    interval between the activity's nominal time and the slot's nearest
    edge (``∫e_t dt · ∫Pr[u(t)]dt``).
    """
    delta_e = params.power.saved_energy_j(activity.duration_s)
    t_j = activity.nominal_time
    if slot.contains(t_j):
        return delta_e  # lands inside the slot: no deferral, no penalty
    t_m = slot.end if slot.end <= t_j else slot.start
    lo, hi = (t_m, t_j) if t_m < t_j else (t_j, t_m)
    prob_mass = model.usage_prob_integral(lo, hi, weekend=weekend)
    delta_p = params.et_w * (hi - lo) * prob_mass
    return delta_e - delta_p


def build_instance(
    model: HabitModel,
    prediction: SlotPrediction,
    params: ProfitParams,
    *,
    weekend: bool,
) -> ScheduleInstance:
    """Assemble the overlapped-MKP instance for one planning day.

    Activities whose every candidate placement has non-positive profit —
    or which have no adjacent slot at all — are returned in ``unplaced``
    and fall through to the duty-cycle path at runtime.
    """
    slots = prediction.slots
    mkp_slots = [
        MKPSlot(i, slot_capacity_bytes(model, slot, params.link, weekend=weekend))
        for i, slot in enumerate(slots)
    ]
    slot_info = dict(enumerate(slots))

    planned = expected_activities(
        model, weekend=weekend, min_expected_count=params.min_expected_count
    )
    active_hours = prediction.active_hours
    items: list[MKPItem] = []
    activity_info: dict[int, PlannedActivity] = {}
    unplaced: list[PlannedActivity] = []
    item_id = 0
    for activity in planned:
        if active_hours[activity.hour]:
            # Expected traffic inside U needs no rescheduling (Eq. (3)
            # excludes t_i ∈ U from T_n).
            continue
        prev_idx, next_idx = adjacent_slots(slots, activity.nominal_time)
        profits: dict[int, float] = {}
        for idx in {prev_idx, next_idx}:
            if idx is None:
                continue
            profit = placement_profit(
                activity, slots[idx], model, params, weekend=weekend
            )
            if profit > 0:
                profits[idx] = profit
        if not profits:
            unplaced.append(activity)
            continue
        items.append(MKPItem(item_id, activity.payload_bytes, profits))
        activity_info[item_id] = activity
        item_id += 1

    return ScheduleInstance(
        weekend=weekend,
        prediction=prediction,
        slots=mkp_slots,
        items=items,
        slot_info=slot_info,
        activity_info=activity_info,
        unplaced=unplaced,
    )
