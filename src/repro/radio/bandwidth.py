"""Carrier link model: bandwidth, slot capacity, utilization.

The paper's Eq. (5) defines a user-active slot's capacity as
``C(t_i) = Bandwidth · t_i``.  Because an hour-level slot at carrier
bandwidth could hold far more than any realistic background payload, the
*usable* seconds of a slot are the seconds the radio is expected to be on
for foreground traffic anyway (scheduled transfers piggyback on those
windows); :meth:`LinkModel.slot_capacity_bytes` therefore takes the
expected active seconds, not the wall-clock slot length.  Passing the full
slot length reproduces the literal Eq. (5).

Utilization metrics (average/peak down- and uplink rate over radio-on
time) back the Fig. 7(c) bandwidth-improvement evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._util import check_positive
from repro.traces.events import NetworkActivity

#: Default effective carrier bandwidth, bytes/second (WCDMA-era HSPA
#: effective goodput; far above the ≤5 kBps application rates of Fig. 1(b)).
DEFAULT_BANDWIDTH_BPS = 24_000.0


@dataclass(frozen=True, slots=True)
class LinkModel:
    """A cellular uplink/downlink with a fixed effective bandwidth."""

    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS

    def __post_init__(self) -> None:
        check_positive("bandwidth_bps", self.bandwidth_bps)

    def slot_capacity_bytes(self, active_seconds: float) -> float:
        """Eq. (5): payload capacity of ``active_seconds`` of link time."""
        check_positive("active_seconds", active_seconds, strict=False)
        return self.bandwidth_bps * active_seconds


@dataclass(frozen=True, slots=True)
class UtilizationStats:
    """Bandwidth-utilization digest of one schedule (Fig. 7(c) axes)."""

    avg_down_bps: float
    avg_up_bps: float
    peak_down_bps: float
    peak_up_bps: float


def activity_digest(
    activities: Sequence[NetworkActivity],
) -> tuple[float, float, float, float, float]:
    """``(down, up, peak_down, peak_up, payload)`` in one pass.

    Each component is bit-equal to its standalone reduction: the sums
    add left-to-right from zero exactly as ``sum()`` over per-field
    generators would, the peaks keep the running maximum exactly as
    ``max()`` would, and ``payload`` adds per-activity
    ``total_bytes`` (= ``down + up``) in the same order as
    ``sum(a.total_bytes for a in activities)``.  Interleaving them in
    one loop changes no intermediate value — this sits under every
    priced cell, and the batch pricer caches it per list.
    """
    down = up = payload = 0.0
    peak_down = peak_up = 0.0
    first = True
    for a in activities:
        d = a.down_bytes
        u = a.up_bytes
        down += d
        up += u
        payload += d + u
        d_rate = d / a.duration
        u_rate = u / a.duration
        if first:
            peak_down = d_rate
            peak_up = u_rate
            first = False
        else:
            if d_rate > peak_down:
                peak_down = d_rate
            if u_rate > peak_up:
                peak_up = u_rate
    return (down, up, peak_down, peak_up, payload)


def utilization_from_digest(
    digest: tuple[float, float, float, float, float], on_time: float
) -> UtilizationStats:
    """Bandwidth utilization of a schedule over ``on_time`` radio-on seconds.

    Average rates divide the total payload by total radio-on time (so
    eliminating wasted radio-on time *raises* utilization even at constant
    payload — the effect NetMaster exploits).  Peak rates are the maximum
    per-activity instantaneous rates, which no scheduler can raise because
    they are set by the channel (paper, Section VI-A).  ``digest`` is
    :func:`activity_digest` of the schedule.
    """
    down, up, peak_down, peak_up, _ = digest
    return UtilizationStats(
        avg_down_bps=down / on_time if on_time > 0 else 0.0,
        avg_up_bps=up / on_time if on_time > 0 else 0.0,
        peak_down_bps=peak_down,
        peak_up_bps=peak_up,
    )
