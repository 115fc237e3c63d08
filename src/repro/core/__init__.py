"""Core NetMaster contribution: scheduling, knapsacks, duty cycle."""

from repro.core.adjustment import GapServicer, GapServiceResult, RealTimeAdjustment
from repro.core.batch import measure_outcomes_columnar
from repro.core.channel_aware import (
    ChannelComparison,
    PlacedBatch,
    compare_placements,
    place_blind,
    place_channel_aware,
)
from repro.core.duty_cycle import (
    DutyCycleController,
    ExponentialSleep,
    FixedSleep,
    RandomSleep,
    SleepScheme,
    radio_on_fraction_after,
    wakeup_count,
    wakeup_times,
)
from repro.core.knapsack import (
    KnapsackSolution,
    knapsack_fptas,
)
from repro.core.netmaster import DayExecution, NetMaster, NetMasterConfig
from repro.core.overlapped import (
    MKPItem,
    MKPSlot,
    MKPSolution,
    clear_slot_memo,
    solve_exact_bruteforce,
    solve_overlapped,
)
from repro.core.profit import (
    DEFAULT_ET,
    PlannedActivity,
    ProfitParams,
    ScheduleInstance,
    adjacent_slots,
    build_instance,
    expected_activities,
    placement_profit,
    slot_capacity_bytes,
)
from repro.core.scheduler import DayPlan, NetMasterScheduler

__all__ = [
    "DEFAULT_ET",
    "ChannelComparison",
    "DayExecution",
    "DayPlan",
    "DutyCycleController",
    "ExponentialSleep",
    "FixedSleep",
    "GapServiceResult",
    "GapServicer",
    "KnapsackSolution",
    "MKPItem",
    "MKPSlot",
    "MKPSolution",
    "NetMaster",
    "NetMasterConfig",
    "NetMasterScheduler",
    "PlacedBatch",
    "PlannedActivity",
    "ProfitParams",
    "RandomSleep",
    "RealTimeAdjustment",
    "ScheduleInstance",
    "SleepScheme",
    "adjacent_slots",
    "build_instance",
    "clear_slot_memo",
    "compare_placements",
    "expected_activities",
    "knapsack_fptas",
    "measure_outcomes_columnar",
    "place_blind",
    "place_channel_aware",
    "placement_profit",
    "radio_on_fraction_after",
    "slot_capacity_bytes",
    "solve_exact_bruteforce",
    "solve_overlapped",
    "wakeup_count",
    "wakeup_times",
]
