"""Energy accounting over traces and activity schedules.

Bridges the event world (:class:`~repro.traces.events.NetworkActivity`)
and the RRC world (transfer windows): compute the network energy of an
activity list at its recorded times.
"""

from __future__ import annotations

from typing import Sequence

from repro.radio.power import RadioPowerModel
from repro.radio.rrc import EnergyReport, TailPolicy, simulate
from repro.traces.events import NetworkActivity


def activity_windows(activities: Sequence[NetworkActivity]) -> list[tuple[float, float]]:
    """Transfer windows ``(start, end)`` of an activity list."""
    return [a.interval for a in activities]


def activities_energy(
    activities: Sequence[NetworkActivity],
    model: RadioPowerModel,
    tail_policy: TailPolicy | None = None,
) -> EnergyReport:
    """RRC energy of executing ``activities`` at their recorded times."""
    return simulate(activity_windows(activities), model, tail_policy)

