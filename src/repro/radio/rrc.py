"""RRC state-machine simulation over transfer schedules.

Given a set of transfer windows (absolute ``(start, end)`` intervals) and a
:class:`~repro.radio.power.RadioPowerModel`, :func:`simulate` walks the
radio through DCH transfers, inactivity tails, demotions and promotions,
and returns an :class:`EnergyReport` with the total network energy and
radio-on time.  It is a one-lane call into the replay engine,
:mod:`repro.radio.lanes`, which takes each lane as ``(starts, ends)``
columns; :func:`simulate` splits its window list into them.

Two simplifications (both standard in trace-driven RRC studies, and shared
by the paper's model-based accounting):

* promotion energy/latency is charged at the start of a transfer without
  shifting the transfer window itself;
* IDLE baseline power is excluded from ``energy_j`` — the paper reports
  "energy consumption of network activities", not whole-device drain.

Tail handling is pluggable via :class:`TailPolicy`: the default
:class:`FullTail` follows the carrier's inactivity timers (what a stock
Android radio does), while :class:`TruncatedTail` models software that
force-disables the radio some seconds after the last byte — exactly
NetMaster's "turn off radio whenever necessary" behaviour (`svc data
disable`, Section V-C).
"""

from __future__ import annotations

from typing import Sequence

from repro.radio.lanes import (
    EnergyReport,
    FullTail,
    TailPolicy,
    TruncatedTail,
    _replay_lanes,
)
from repro.radio.power import RadioPowerModel

__all__ = [
    "EnergyReport",
    "FullTail",
    "TailPolicy",
    "TruncatedTail",
    "simulate",
]


def simulate(
    windows: Sequence[tuple[float, float]],
    model: RadioPowerModel,
    tail_policy: TailPolicy | None = None,
    *,
    window_tails: Sequence[float] | None = None,
) -> EnergyReport:
    """Run the RRC machine over (possibly overlapping) transfer windows.

    Windows are merged first; energy then decomposes into per-window DCH
    transfer energy, inter-window gap handling (stay-DCH, partial tail with
    FACH→DCH re-promotion, or full demotion with IDLE→DCH re-promotion),
    and the final tail.

    ``window_tails`` optionally assigns each *input* window its own tail
    allowance (seconds) — the fast-dormancy hook: a batching scheme can
    release its aggregated screen-off transfers with a near-zero tail
    while foreground traffic keeps the carrier timers.  When windows merge,
    the merged window inherits the allowance of the member that ends last
    (the tail follows the final transfer).  Mutually exclusive with a
    non-default ``tail_policy``.
    """
    lane = ([start for start, _ in windows], [end for _, end in windows])
    reports, _, _ = _replay_lanes([lane], model, [tail_policy], [window_tails])
    return reports[0]

