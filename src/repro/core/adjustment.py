"""Real-time adjustment strategy (Section IV-C2).

Hour-level prediction cannot be perfect, so NetMaster supplements it with
a runtime layer that handles the two special cases the paper lists:

* **usage outside the predicted slots** — if the foreground app is a
  "Special App" (or unknown, i.e. newly installed), the radio is powered
  on immediately; otherwise the event counts as a potential wrong
  decision;
* **wasted radio-on slots / unpredicted background traffic** — while the
  screen is off the radio duty-cycles with exponential back-off
  (:mod:`repro.core.duty_cycle`), servicing pending deferrable transfers
  at wake-ups and resetting the back-off whenever traffic is seen.

:class:`GapServicer` implements the wake-up/service event loop over one
idle gap, releasing what a wake-up finds as one burst at the shared
:data:`~repro.traces.events.PACK_GAP_S` gaps; :class:`RealTimeAdjustment`
bundles it with the Special-App check.  Both plan for a radio that never
fails: failures, retries and the max-delay bound they must keep are
applied to the finished day's schedule by :func:`repro.faults.apply_faults`,
and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import check_positive
from repro.core.duty_cycle import ExponentialSleep
from repro.habits.special_apps import SpecialAppRegistry
from repro.telemetry import metrics
from repro.traces.events import PACK_GAP_S, NetworkActivity


@dataclass
class GapServiceResult:
    """What happened across one idle gap."""

    executed: list[NetworkActivity] = field(default_factory=list)
    wake_windows: list[tuple[float, float]] = field(default_factory=list)
    serviced: int = 0
    carried_to_end: int = 0


@dataclass
class GapServicer:
    """Duty-cycle event loop for one screen-off idle gap.

    Pending activities (deferrable transfers the planner could not place)
    are executed at the first wake-up at or after their arrival time; a
    wake-up that services traffic resets the back-off, an idle wake-up
    just costs its ``wake_window_s`` of radio time.  Whatever is still
    pending when the gap closes executes at the gap end, where the radio
    comes up anyway (next session or active slot).
    """

    initial_s: float = 30.0
    factor: float = 2.0
    max_s: float = 3600.0
    wake_window_s: float = 1.0

    def __post_init__(self) -> None:
        check_positive("initial_s", self.initial_s)
        check_positive("wake_window_s", self.wake_window_s)

    def service(
        self, gap_start: float, gap_end: float, pending: list[NetworkActivity]
    ) -> GapServiceResult:
        """Run the duty cycle over ``[gap_start, gap_end)``.

        ``pending`` must contain only activities whose original times fall
        inside the gap; they are serviced in arrival order.
        """
        if gap_end < gap_start:
            raise ValueError(f"need gap_start <= gap_end, got [{gap_start}, {gap_end}]")
        queue = sorted(pending, key=lambda a: a.time)
        for activity in queue:
            if not gap_start <= activity.time < gap_end:
                raise ValueError(
                    f"pending activity at t={activity.time} outside gap "
                    f"[{gap_start}, {gap_end})"
                )
        result = GapServiceResult()
        scheme = ExponentialSleep(
            initial_s=self.initial_s, factor=self.factor, max_s=self.max_s
        )
        t = gap_start
        i = 0
        while True:
            wake_at = t + scheme.next_sleep_s()
            if wake_at >= gap_end:
                break
            ready_end = i
            while ready_end < len(queue) and queue[ready_end].time <= wake_at:
                ready_end += 1
            if ready_end > i:
                cursor = wake_at
                for activity in queue[i:ready_end]:
                    result.executed.append(activity.moved_to(cursor))
                    cursor += activity.duration + PACK_GAP_S
                result.serviced += ready_end - i
                i = ready_end
                scheme.reset()
                t = cursor
            else:
                result.wake_windows.append(
                    (wake_at, min(wake_at + self.wake_window_s, gap_end))
                )
                t = wake_at + self.wake_window_s
        # Gap closed: whatever is left rides the radio coming up at gap end.
        cursor = gap_end
        for activity in queue[i:]:
            result.executed.append(activity.moved_to(cursor))
            cursor += activity.duration + PACK_GAP_S
            result.carried_to_end += 1
        reg = metrics()
        if reg.enabled:
            reg.inc("core.adjustment.gaps")
            reg.inc("core.adjustment.idle_wakeups", len(result.wake_windows))
            reg.inc("core.adjustment.serviced", result.serviced)
            reg.inc("core.adjustment.carried_to_end", result.carried_to_end)
            reg.observe("core.adjustment.gap_s", gap_end - gap_start)
        return result


@dataclass
class RealTimeAdjustment:
    """Special-App gating plus the duty-cycle servicer."""

    special_apps: SpecialAppRegistry
    servicer: GapServicer = field(default_factory=GapServicer)
