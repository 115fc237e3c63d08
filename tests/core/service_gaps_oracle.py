"""Reference gap servicing: scan every pending transfer for every gap.

This is the O(gaps × pending) loop :meth:`NetMaster._service_gaps` ran
before it found each gap's transfers by bisection.  Tests patch it in as
the oracle the bisecting version must equal, day by day.
"""

from __future__ import annotations

from repro._util import DAY, merge_intervals
from repro.core.netmaster import _complement
from repro.traces.events import NetworkActivity


def scan_service_gaps(
    self,
    busy: list[tuple[float, float]],
    pending: list[NetworkActivity],
    executed: list[tuple[NetworkActivity, float]],
) -> tuple[list[tuple[float, float]], int, int, int]:
    guard = self.config.guard_s
    gaps = _complement(merge_intervals(busy), 0.0, DAY)
    wake_windows: list[tuple[float, float]] = []
    serviced = carried = in_place = 0
    gap_handled: set[int] = set()
    for gap_start, gap_end in gaps:
        in_gap = []
        for i, a in enumerate(pending):
            if gap_start <= a.time < gap_end:
                in_gap.append(a)
                gap_handled.add(i)
        if not in_gap and gap_end - gap_start < self.config.duty_initial_s:
            continue
        result = self.adjustment.servicer.service(gap_start, gap_end, in_gap)
        executed.extend(
            (a.moved_to(min(a.time, DAY - a.duration)), guard) for a in result.executed
        )
        wake_windows.extend(result.wake_windows)
        serviced += result.serviced
        carried += result.carried_to_end
    for i, activity in enumerate(pending):
        if i not in gap_handled:
            executed.append(
                (activity.moved_to(min(activity.time, DAY - activity.duration)), guard)
            )
            in_place += 1
    return wake_windows, serviced, carried, in_place
