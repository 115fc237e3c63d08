"""Reference degraded day: the duty-cycle-only replay as its own loop.

Before degraded days ran :meth:`NetMaster.execute_day`'s loop with no
plan, they ran this separate copy (``NetMaster._execute_duty_cycle_only``
plus the breaker tick in ``execute_day``).  Tests replay both and
require the same day, field for field, and the same breaker after it.
"""

from __future__ import annotations

from repro.core.netmaster import DayExecution, NetMaster, _record_day
from repro.traces.events import NetworkActivity, Trace


def duty_cycle_only_day(nm: NetMaster, day: Trace) -> DayExecution:
    """Replay one day with prediction and planning disabled.

    The radio follows the user (screen sessions run as recorded) and
    every screen-off transfer is serviced by the exponential duty cycle
    over the screen-off gaps.  It never mispredicts, so it counts no
    interrupts; an open breaker ticks one degraded day.
    """
    weekend = day.is_weekend_day(0)
    guard = nm.config.guard_s
    bandwidth = nm.config.link.bandwidth_bps

    executed: list[tuple[NetworkActivity, float]] = []
    pending: list[NetworkActivity] = []
    for activity in day.activities:
        if activity.screen_on:
            executed.append((activity, guard))
        else:
            pending.append(activity.compressed(bandwidth))

    wake_windows, duty_serviced, carried, immediate = nm._service_gaps(
        [(s.start, s.end) for s in day.screen_sessions], pending, executed
    )

    executed.sort(key=lambda pair: pair[0].time)
    execution = DayExecution(
        weekend=weekend,
        plan=None,
        activities=[a for a, _ in executed],
        activity_tails=[t for _, t in executed],
        wake_windows=wake_windows,
        user_interactions=len(day.usages),
        interrupts=0,
        immediate=immediate,
        deferred_to_slots=0,
        duty_serviced=duty_serviced,
        carried_to_gap_end=carried,
        degraded=True,
    )
    _record_day(execution, day)
    if nm.breaker.open:
        nm.breaker.tick_degraded()
    return execution


class DutyCycleOnlyNetMaster(NetMaster):
    """NetMaster whose degraded days run the reference loop."""

    def execute_day(self, day: Trace) -> DayExecution:
        if self.degraded:
            return duty_cycle_only_day(self, day)
        return super().execute_day(day)
