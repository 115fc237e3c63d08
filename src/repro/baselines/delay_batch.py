"""The combined "delay and batch" comparator of Fig. 7.

Screen-off activities are held for at most a fixed interval; if the user
turns the screen on first, the whole pending batch rides the session's
radio window (and transfers at carrier speed, like any aggregated
release).  This combines the interval-fixed deferral of Qian et al. [10]
with the screen-on batching *and fast dormancy* of Huang et al. [2] —
the strongest prior method the paper compares NetMaster against (22.54%
average saving in their traces).  Fast dormancy releases the RRC
connection right after a deferred batch completes instead of letting the
carrier's 17 s inactivity timers run; foreground traffic keeps the stock
timers (the method never touches the user's own transfers).  Activities
sharing a release time are packed back to back
(:func:`repro.traces.events.pack_release`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro._util import check_positive, count_in_windows
from repro.baselines.policy import PolicyOutcome
from repro.radio.bandwidth import DEFAULT_BANDWIDTH_BPS
from repro.radio.rrc import FullTail
from repro.traces.events import NetworkActivity, Trace, pack_release

#: Tail allowed after a deferred release (fast dormancy); foreground
#: transfers keep the carrier timers.
FAST_DORMANCY_S = 0.5


@dataclass
class DelayBatchPolicy:
    """Hold screen-off traffic ≤ ``interval_s``; flush early on screen-on."""

    interval_s: float

    #: Pure function of the day: safe to fan days over worker processes.
    day_independent = True

    def __post_init__(self) -> None:
        check_positive("interval_s", self.interval_s)

    @property
    def name(self) -> str:
        """The policy's label, e.g. ``delay-batch-60s``."""
        return f"delay-batch-{self.interval_s:g}s"

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Defer screen-off activities to screen-on or interval expiry."""
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        session_starts = [s.start for s in day.screen_sessions]
        executed: list[tuple[NetworkActivity, bool]] = []
        hold_windows: list[tuple[float, float]] = []
        release_cursor: dict[float, float] = {}
        deferred = 0

        for activity in day.activities:
            if activity.screen_on:
                executed.append((activity, False))
                continue
            idx = bisect.bisect_left(session_starts, activity.time)
            next_on = session_starts[idx] if idx < len(session_starts) else None
            timeout = activity.time + self.interval_s
            if next_on is not None and next_on < timeout:
                release = next_on
                # Batched releases riding a session aggregate and move at
                # carrier speed.
                duration = activity.compressed_duration(DEFAULT_BANDWIDTH_BPS)
            else:
                release = timeout
                duration = activity.duration
            executed.append(
                (pack_release(release_cursor, release, release, activity, duration), True)
            )
            hold_windows.append((activity.time, release))
            deferred += 1

        executed.sort(key=lambda pair: pair[0].time)
        activities = [a for a, _ in executed]
        tails = [
            FAST_DORMANCY_S if was_deferred else math.inf
            for _, was_deferred in executed
        ]
        affected = count_in_windows((u.time for u in day.usages), hold_windows)
        return PolicyOutcome(
            policy=self.name,
            activities=activities,
            tail_policy=FullTail(),
            activity_tails=tails,
            user_interactions=len(day.usages),
            affected_user_activities=affected,
            deferred=deferred,
        )
