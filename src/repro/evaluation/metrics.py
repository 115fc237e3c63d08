"""Evaluation metrics shared by all experiments (Section VI).

Every policy outcome is priced by the same RRC engine, in batches
(:mod:`repro.core.batch`); the metrics here wrap that accounting into the
three dimensions the paper reports — energy saving, radio-on time, and
bandwidth utilization — plus the user-experience counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.policy import PolicyOutcome, SchedulingPolicy
from repro.core.batch import measure_outcomes_columnar
from repro.radio.bandwidth import UtilizationStats, utilization_from_digest
from repro.radio.power import RadioPowerModel
from repro.radio.rrc import EnergyReport
from repro.traces.events import Trace


@dataclass(frozen=True, slots=True)
class PolicyDayMetrics:
    """One policy's full metric set over one day."""

    policy: str
    energy_j: float
    radio_on_s: float
    transfer_s: float
    bandwidth: UtilizationStats
    interrupts: int
    user_interactions: int
    affected_user_activities: int
    deferred: int


def measure_outcome(
    outcome: PolicyOutcome, model: RadioPowerModel, day: Trace
) -> PolicyDayMetrics:
    """Price one policy outcome: the one-cell batch of
    :func:`repro.core.batch.measure_outcomes_columnar`."""
    return measure_outcomes_columnar([(outcome, day)], model)[0]


def assemble_day_metrics(
    outcome: PolicyOutcome,
    report: EnergyReport,
    radio_on_s: float,
    digest: tuple[float, float, float, float, float],
) -> PolicyDayMetrics:
    """Build the metric set of an already-priced outcome.

    ``radio_on_s`` is the merged radio-on time and ``digest`` the
    :func:`repro.radio.bandwidth.activity_digest` of
    ``outcome.activities``, both computed once by the batch pricer.
    """
    return PolicyDayMetrics(
        policy=outcome.policy,
        energy_j=report.energy_j,
        radio_on_s=radio_on_s,
        transfer_s=report.transfer_s,
        bandwidth=utilization_from_digest(digest, radio_on_s),
        interrupts=outcome.interrupts,
        user_interactions=outcome.user_interactions,
        affected_user_activities=outcome.affected_user_activities,
        deferred=outcome.deferred,
    )


def run_policy_over_days(
    policy: SchedulingPolicy,
    days: list[Trace],
    model: RadioPowerModel,
    *,
    jobs: int = 1,
) -> list[PolicyDayMetrics]:
    """Execute and measure a policy over several held-out days.

    ``jobs>1`` fans the days over a process pool when the policy
    declares ``day_independent`` (each day is then an independent task);
    results keep day order, so the output is bit-identical to the serial
    loop.  Stateful policies (e.g. NetMaster's circuit breaker) always
    replay serially here — parallelize them at the grid level with
    :func:`repro.runtime.parallel.run_policy_tasks` instead.  Either way
    every day is priced in one batch once the days have executed.
    """
    # Imported lazily: repro.runtime.parallel prices via this module.
    from repro.runtime.parallel import PolicyTask, run_policy_tasks

    if jobs > 1 and len(days) > 1 and getattr(policy, "day_independent", False):
        tasks = [
            PolicyTask(name="day", policy=policy, days=(day,), model=model)
            for day in days
        ]
    else:
        label = getattr(policy, "name", type(policy).__name__)
        tasks = [PolicyTask(name=label, policy=policy, days=tuple(days), model=model)]
    return [m for metrics in run_policy_tasks(tasks, jobs=jobs) for m in metrics]


def energy_saving(metrics: PolicyDayMetrics, baseline: PolicyDayMetrics) -> float:
    """Relative energy saving of ``metrics`` against ``baseline``."""
    if baseline.energy_j == 0:
        return 0.0
    return 1.0 - metrics.energy_j / baseline.energy_j


def radio_time_saving(metrics: PolicyDayMetrics, baseline: PolicyDayMetrics) -> float:
    """Relative radio-on-time saving against ``baseline``."""
    if baseline.radio_on_s == 0:
        return 0.0
    return 1.0 - metrics.radio_on_s / baseline.radio_on_s


def aggregate_energy_saving(
    metrics: list[PolicyDayMetrics], baselines: list[PolicyDayMetrics]
) -> float:
    """Total-energy saving over a multi-day test window."""
    total_base = sum(m.energy_j for m in baselines)
    total = sum(m.energy_j for m in metrics)
    if total_base == 0:
        return 0.0
    return 1.0 - total / total_base
