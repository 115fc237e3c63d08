"""The "naive batch" baseline (Huang et al., Fig. 9).

Up to ``max_batch`` consecutive screen-off activities are held and
released together when the batch fills; the screen coming on flushes
whatever is pending (the user's radio is up anyway).  The paper finds the
benefit saturates past 5 batched activities because users rarely have
more simultaneous background streams than that, given the ≤1% interrupt
constraint.  A flush releases its batch back to back at the shared
:data:`~repro.traces.events.PACK_GAP_S` gaps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro._util import DAY, count_in_windows
from repro.baselines.policy import PolicyOutcome
from repro.radio.rrc import FullTail
from repro.traces.events import PACK_GAP_S, NetworkActivity, Trace


@dataclass
class BatchPolicy:
    """Aggregate up to ``max_batch`` consecutive screen-off activities."""

    max_batch: int

    #: Pure function of the day: safe to fan days over worker processes.
    day_independent = True

    def __post_init__(self) -> None:
        if self.max_batch < 0:
            raise ValueError(f"max_batch must be >= 0, got {self.max_batch}")

    @property
    def name(self) -> str:
        """The policy's label, e.g. ``batch-5``."""
        return f"batch-{self.max_batch}"

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Hold screen-off activities until the batch fills or flushes."""
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        if self.max_batch <= 1:
            # Batch size 0/1 degenerates to no batching at all.
            return PolicyOutcome(
                policy=self.name,
                activities=list(day.activities),
                tail_policy=FullTail(),
                user_interactions=len(day.usages),
            )

        session_starts = [s.start for s in day.screen_sessions]
        executed: list[NetworkActivity] = []
        hold_windows: list[tuple[float, float]] = []
        pending: list[NetworkActivity] = []
        deferred = 0

        def flush(at: float) -> None:
            nonlocal deferred
            cursor = at
            for held in pending:
                hold_windows.append((held.time, at))
                executed.append(held.moved_to(min(cursor, DAY - held.duration)))
                cursor += held.duration + PACK_GAP_S
                deferred += 1
            pending.clear()

        for activity in day.activities:
            # The screen coming on flushes the pending batch first.
            while pending:
                next_on = _next_session_on(session_starts, pending[0].time)
                if next_on is not None and next_on <= activity.time:
                    flush(next_on)
                else:
                    break
            if activity.screen_on:
                executed.append(activity)
                continue
            pending.append(activity)
            if len(pending) >= self.max_batch:
                flush(activity.time)
        if pending:
            next_on = _next_session_on(session_starts, pending[0].time)
            flush(next_on if next_on is not None else DAY - 1.0)

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


def _next_session_on(session_starts: list[float], after: float) -> float | None:
    """First screen-on time at or after ``after``."""
    idx = bisect.bisect_left(session_starts, after)
    if idx < len(session_starts):
        return session_starts[idx]
    return None
