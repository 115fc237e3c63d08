"""The offline oracle: minimal energy for the same network activities.

With perfect knowledge of the day ("solution under optimal condition",
Section IV-B), every screen-off activity rides the radio window of the
*nearest actual screen session* at full link bandwidth, packed back to
back with the session's other transfers
(:func:`repro.traces.events.pack_release`), and the radio is force-idled
one guard second after the last byte moves (:class:`TruncatedTail`'s
default, the same guard NetMaster's real-time control uses, so the
comparison isolates the value of perfect prediction rather than a
different radio-off latency).  This is the "Oracle" bar of Fig. 7(a) —
the paper reports NetMaster within 5% of it in 81.6% of tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro._util import DAY
from repro.baselines.policy import PolicyOutcome
from repro.radio.bandwidth import DEFAULT_BANDWIDTH_BPS
from repro.radio.rrc import TruncatedTail
from repro.traces.events import NetworkActivity, Trace, pack_release


@dataclass
class OraclePolicy:
    """Perfect-knowledge scheduler (lower bound on network energy)."""

    name = "oracle"

    #: Pure function of the day: safe to fan days over worker processes.
    day_independent = True

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Pack all screen-off traffic onto actual session windows."""
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        session_starts = [s.start for s in day.screen_sessions]
        cursor: dict[int, float] = {}
        executed: list[NetworkActivity] = []
        deferred = 0
        for activity in day.activities:
            if activity.screen_on:
                executed.append(activity)
                continue
            idx = _nearest_session(session_starts, activity.time)
            if idx is None:
                # A day with no sessions at all: nothing to ride.  Each
                # transfer stays at its own time, compressed and clamped
                # to end by midnight.
                compressed = activity.compressed(DEFAULT_BANDWIDTH_BPS)
                executed.append(compressed.moved_to(min(activity.time, DAY - compressed.duration)))
            else:
                duration = activity.compressed_duration(DEFAULT_BANDWIDTH_BPS)
                executed.append(
                    pack_release(cursor, idx, session_starts[idx], activity, duration)
                )
            deferred += 1
        executed.sort(key=lambda a: a.time)
        return PolicyOutcome(
            policy=self.name,
            activities=executed,
            tail_policy=TruncatedTail(),
            user_interactions=len(day.usages),
            deferred=deferred,
        )


def _nearest_session(session_starts: list[float], time_s: float) -> int | None:
    """Index of the session whose start is closest to ``time_s``.

    A tie goes to the earlier session.
    """
    if not session_starts:
        return None
    idx = bisect.bisect_left(session_starts, time_s)
    if idx == 0:
        return 0
    if idx == len(session_starts):
        return idx - 1
    if abs(session_starts[idx] - time_s) < abs(session_starts[idx - 1] - time_s):
        return idx
    return idx - 1
