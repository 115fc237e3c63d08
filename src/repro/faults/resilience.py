"""Pushing a finished schedule through the fault model.

:func:`apply_faults` is the only composition point between a schedule
and the fault layer; the planner's duty-cycle servicer and the device
simulator both assume a radio that never fails.  It takes a
:class:`PolicyOutcome` (the schedule a policy *wanted* to execute),
replays every transfer through the retry loop, and returns the outcome
that would actually have happened on a faulty radio — transfers pushed
later by retries and outages, failed attempts recorded as extra partial
radio windows, and failed promotions counted for the RRC accounting.

With an inert :class:`FaultPlan` the outcome is returned unchanged (the
same object), which is what makes the rate-0 sweep point bit-for-bit
identical to the fault-free pipeline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro._util import DAY
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy, run_with_retries
from repro.telemetry import metrics

if TYPE_CHECKING:  # avoid a baselines <-> faults import cycle at runtime
    from repro.baselines.policy import PolicyOutcome

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class FaultStats:
    """Aggregate accounting of one :func:`apply_faults` pass."""

    n_transfers: int
    retries: int
    failed_attempts: int
    failed_promotions: int
    forced: int
    added_delays: tuple[float, ...]

    @property
    def added_delay_mean_s(self) -> float:
        """Mean extra delay (s) retries added per transfer."""
        if not self.added_delays:
            return 0.0
        return sum(self.added_delays) / len(self.added_delays)

    @property
    def added_delay_max_s(self) -> float:
        """Worst extra delay (s) retries added to any transfer."""
        return max(self.added_delays, default=0.0)


def apply_faults(
    outcome: PolicyOutcome,
    injector: FaultInjector,
    retry: RetryPolicy | None = None,
    *,
    day_key: int = 0,
    horizon: float = DAY,
) -> tuple[PolicyOutcome, FaultStats]:
    """Replay ``outcome``'s transfers through the fault model.

    Every transfer keeps its payload (forced delivery at the delay bound
    guarantees it), so ``validate_payload`` still holds on the result.
    Transfers are never moved earlier, and never later than
    ``retry.max_delay_s`` past their scheduled time (nor past the day
    horizon minus their duration).
    """
    if injector.plan.inert:
        return outcome, FaultStats(len(outcome.activities), 0, 0, 0, 0, ())
    if retry is None:
        retry = RetryPolicy()

    activities = []
    failed_windows = list(outcome.failed_windows)
    retries = failed_attempts = failed_promotions = forced = 0
    delays: list[float] = []
    for index, activity in enumerate(outcome.activities):
        deadline = max(horizon - activity.duration, activity.time)
        result = run_with_retries(
            activity,
            activity.time,
            injector,
            retry,
            day_key=day_key,
            index=index,
            deadline=deadline,
        )
        retries += result.retries
        failed_attempts += len(result.failed_windows)
        failed_promotions += result.failed_promotions
        forced += int(result.forced)
        delays.append(result.time - activity.time)
        failed_windows.extend(result.failed_windows)
        activities.append(
            activity if result.time == activity.time else activity.moved_to(result.time)
        )

    faulted = replace(
        outcome,
        activities=activities,
        activity_tails=(
            None if outcome.activity_tails is None else list(outcome.activity_tails)
        ),
        failed_windows=failed_windows,
        failed_promotions=outcome.failed_promotions + failed_promotions,
        retries=outcome.retries + retries,
    )
    stats = FaultStats(
        n_transfers=len(outcome.activities),
        retries=retries,
        failed_attempts=failed_attempts,
        failed_promotions=failed_promotions,
        forced=forced,
        added_delays=tuple(delays),
    )
    reg = metrics()
    if reg.enabled:
        reg.inc("faults.resilience.passes")
        reg.inc("faults.resilience.retries", retries)
        reg.inc("faults.resilience.failed_attempts", failed_attempts)
        reg.inc("faults.resilience.failed_promotions", failed_promotions)
        reg.inc("faults.resilience.forced_deliveries", forced)
        for d in delays:
            if d > 0:
                reg.observe("faults.resilience.added_delay_s", d)
    if forced:
        # Forced deliveries mean the radio stayed dead right up to the
        # retry delay bound — previously this was only visible as a
        # slightly shifted schedule.
        logger.warning(
            "day %d: %d/%d transfers hit the retry delay bound and were "
            "force-delivered (%d failed attempts, %d retries)",
            day_key,
            forced,
            len(outcome.activities),
            failed_attempts,
            retries,
        )
    logger.debug(
        "day %d: faulted %d transfers (retries=%d failed=%d mean_delay=%.1fs)",
        day_key,
        stats.n_transfers,
        stats.retries,
        stats.failed_attempts,
        stats.added_delay_mean_s,
    )
    return faulted, stats
