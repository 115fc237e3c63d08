"""Adapter exposing the NetMaster middleware as a SchedulingPolicy.

Lets the evaluation harness run NetMaster side-by-side with the naive,
delay, batch and oracle baselines under identical accounting.
:func:`execution_outcome` is the one conversion of a replayed
:class:`~repro.core.netmaster.DayExecution` into a :class:`PolicyOutcome`;
the online engine (:mod:`repro.stream`) prices its days through it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.policy import PolicyOutcome
from repro.core.netmaster import DayExecution, NetMaster, NetMasterConfig
from repro.traces.events import Trace


def execution_outcome(execution: DayExecution, policy: str) -> PolicyOutcome:
    """One replayed NetMaster day as the outcome of ``policy``."""
    return PolicyOutcome(
        policy=policy,
        activities=execution.activities,
        activity_tails=execution.activity_tails,
        extra_windows=execution.wake_windows,
        interrupts=execution.interrupts,
        user_interactions=execution.user_interactions,
        deferred=execution.deferred_to_slots + execution.duty_serviced,
    )


@dataclass
class NetMasterPolicy:
    """NetMaster trained on a history trace, replayed day by day."""

    history: Trace
    config: NetMasterConfig = field(default_factory=NetMasterConfig)

    name = "netmaster"

    #: The misprediction circuit breaker carries state between days, so
    #: a day sequence must replay in order inside one process; the
    #: parallel runner therefore only fans NetMaster at the grid level.
    day_independent = False

    def __post_init__(self) -> None:
        self._middleware = NetMaster(self.config)
        self._middleware.train(self.history)

    @property
    def middleware(self) -> NetMaster:
        """The trained middleware (for plan introspection in tests)."""
        return self._middleware

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Run the full middleware pipeline over one held-out day."""
        return execution_outcome(self._middleware.execute_day(day), self.name)
