"""The "naive delay and batch" baseline (Qian et al. / Huang et al.).

Screen-off activities are held and released together at the next multiple
of a fixed interval ("uses a fixed interval to aggregate/delay screen-off
network activities") — so syncs landing inside the same interval tick
coalesce into one radio burst and share one tail.  The paper sweeps the
interval from 1 s to 600 s (Fig. 8) and deploys 10/20/60 s variants in
the Fig. 7 comparison, exposing the method's dilemma: small intervals
save almost nothing, large intervals interrupt the user — a user
interaction arriving while traffic is held means stale data or a blocked
sync (the "affected user activities" of Fig. 8(c)); the paper also notes
17% of interactions fall between adjacent sub-100 s screen-off slots,
which is why interval-fixed delays hurt.  Activities released at the
same tick are packed back to back (:func:`repro.traces.events.pack_release`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util import check_positive, count_in_windows
from repro.baselines.policy import PolicyOutcome
from repro.radio.rrc import FullTail
from repro.traces.events import NetworkActivity, Trace, pack_release


@dataclass
class DelayPolicy:
    """Fixed-interval aggregate-and-release of screen-off activities."""

    interval_s: float

    #: Pure function of the day: safe to fan days over worker processes.
    day_independent = True

    def __post_init__(self) -> None:
        check_positive("interval_s", self.interval_s, strict=False)

    @property
    def name(self) -> str:
        """The policy's label, e.g. ``delay-60s``."""
        return f"delay-{self.interval_s:g}s"

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Release each screen-off activity at the next interval tick.

        Screen-on (foreground) traffic is never delayed.  Activities whose
        release tick coincides are packed back-to-back so they share one
        radio burst.  A user interaction counts as *affected* when it
        starts while at least one activity is being held.
        """
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        if self.interval_s == 0.0:
            return PolicyOutcome(
                policy=self.name,
                activities=list(day.activities),
                tail_policy=FullTail(),
                user_interactions=len(day.usages),
            )

        executed: list[NetworkActivity] = []
        hold_windows: list[tuple[float, float]] = []
        tick_cursor: dict[int, float] = {}
        deferred = 0
        for activity in day.activities:
            if activity.screen_on:
                executed.append(activity)
                continue
            tick = int(math.floor(activity.time / self.interval_s)) + 1
            release = tick * self.interval_s
            hold_windows.append((activity.time, max(release, activity.time)))
            executed.append(
                pack_release(tick_cursor, tick, release, activity, activity.duration)
            )
            deferred += 1
        executed.sort(key=lambda a: a.time)

        affected = count_in_windows((u.time for u in day.usages), hold_windows)
        return PolicyOutcome(
            policy=self.name,
            activities=executed,
            tail_policy=FullTail(),
            user_interactions=len(day.usages),
            affected_user_activities=affected,
            deferred=deferred,
        )
