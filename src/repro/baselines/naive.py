"""The stock-Android baseline: execute everything as recorded.

Every activity runs at its original time; the radio follows the carrier's
full inactivity timers.  This is the "Without NetMaster" / "Baseline" bar
of Fig. 7(a) and the denominator of every energy-saving fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.policy import PolicyOutcome
from repro.radio.rrc import FullTail
from repro.traces.events import Trace


@dataclass
class NaivePolicy:
    """Default device behaviour — no scheduling, full RRC tails."""

    name = "baseline"

    #: Pure function of the day: safe to fan days over worker processes.
    day_independent = True

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Everything executes exactly as logged."""
        if day.n_days != 1:
            raise ValueError("execute_day expects a single-day trace")
        return PolicyOutcome(
            policy=self.name,
            activities=list(day.activities),
            tail_policy=FullTail(),
            user_interactions=len(day.usages),
        )
