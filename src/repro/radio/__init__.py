"""Radio substrate: RRC state machine, power models, energy accounting."""

from repro.radio.bandwidth import (
    DEFAULT_BANDWIDTH_BPS,
    LinkModel,
    UtilizationStats,
)
from repro.radio.channel import (
    ChannelModel,
    best_window,
    transfer_energy_multiplier,
)
from repro.radio.energy import (
    activities_energy,
    activity_windows,
)
from repro.radio.lanes import (
    EnergyReport,
    FullTail,
    LaneDecomposition,
    LaneWindows,
    TailPolicy,
    TruncatedTail,
    decompose_lanes,
    extend_lanes_by_tails,
    lane_radio_on_lengths,
    lane_serial_sums,
    merge_lanes,
    merge_lanes_with_allowances,
    pack_lanes,
    replay_many_lengths,
    segmented_cummax,
)
from repro.radio.power import RadioPowerModel, lte_model, wcdma_model
from repro.radio.rrc import simulate

__all__ = [
    "DEFAULT_BANDWIDTH_BPS",
    "ChannelModel",
    "EnergyReport",
    "FullTail",
    "LaneDecomposition",
    "LaneWindows",
    "LinkModel",
    "RadioPowerModel",
    "TailPolicy",
    "TruncatedTail",
    "UtilizationStats",
    "activities_energy",
    "best_window",
    "activity_windows",
    "decompose_lanes",
    "extend_lanes_by_tails",
    "lane_radio_on_lengths",
    "lane_serial_sums",
    "lte_model",
    "merge_lanes",
    "merge_lanes_with_allowances",
    "pack_lanes",
    "replay_many_lengths",
    "segmented_cummax",
    "simulate",
    "transfer_energy_multiplier",
    "wcdma_model",
]
