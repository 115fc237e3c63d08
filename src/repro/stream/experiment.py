"""The streaming-fleet experiment behind ``python -m repro stream``.

Drives a fleet of randomized personas through the online engine —
every decision causal, checkpoints exercised in-line — then replays the
same users' held-out days through the offline
:class:`~repro.baselines.netmaster_policy.NetMasterPolicy` (full-history
training, the Section-VI harness) and a naive baseline.  The comparison
answers the question the offline figures cannot: how much of NetMaster's
saving survives when the middleware only ever sees the past?

The default fleet — 72 users × 14 days — streams 1 008 user-days; the
measured throughput (``events_per_s``) is the serving-shaped headline
tracked in ``BENCH_perf.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import NaivePolicy, NetMasterPolicy
from repro.evaluation.experiments import split_history
from repro.runtime.parallel import PolicyTask, run_policy_tasks
from repro.stream.fleet import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    _spec_trace,
)
from repro.stream.specgen import iter_fleet_specs
from repro.telemetry import tracer

DEFAULT_SEED = 2014
DEFAULT_USERS = 72
DEFAULT_DAYS = 14
DEFAULT_TRAIN_DAYS = 10


@dataclass(frozen=True)
class StreamResult:
    """Everything the streaming-fleet experiment measured."""

    n_users: int
    n_days: int
    train_days: int
    users_streamed: int
    user_days_streamed: int
    days_executed: int
    events: int
    elapsed_s: float
    events_per_s: float
    checkpoints: int
    drift_alerts: int
    degraded_days: int
    naive_energy_j: float
    online_energy_j: float
    offline_energy_j: float
    online_saving: float
    offline_saving: float
    online_interrupt_ratio: float
    offline_interrupt_ratio: float

    @property
    def online_offline_gap(self) -> float:
        """Saving the causality constraint costs vs offline training."""
        return self.offline_saving - self.online_saving


def fleet_specs(
    *, seed: int = DEFAULT_SEED, n_users: int = DEFAULT_USERS, n_days: int = DEFAULT_DAYS
) -> list[FleetUserSpec]:
    """Deterministic persona specs for a fleet of ``n_users``.

    The eager form of :func:`repro.stream.specgen.iter_fleet_specs` —
    spec for spec identical; use the iterator for cohorts too large to
    hold.
    """
    return list(iter_fleet_specs(seed=seed, n_users=n_users, n_days=n_days))


def stream_experiment(
    *,
    seed: int = DEFAULT_SEED,
    n_users: int = DEFAULT_USERS,
    n_days: int = DEFAULT_DAYS,
    train_days: int = DEFAULT_TRAIN_DAYS,
    jobs: int = 1,
    checkpoint_every_days: int | None = 2,
) -> StreamResult:
    """Streaming fleet: causal online NetMaster vs the offline harness.

    Every fleet-side statistic is read off the O(1)
    :class:`~repro.stream.rollup.FleetRollup` counters.
    """
    config = FleetConfig(
        train_days=train_days,
        checkpoint_every_days=checkpoint_every_days,
    )
    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    trc = tracer()
    with trc.span("fleet-stream", "stream", users=n_users, days=n_days):
        fleet = FleetService(config).run(specs, jobs=jobs)

    # Offline comparison on the same users: NetMaster trained on the
    # full history prefix (the Fig. 7 harness) and the naive always-on
    # baseline, over the same held-out days the online engine executed.
    power = config.netmaster.power
    nm_tasks: list[PolicyTask] = []
    naive_tasks: list[PolicyTask] = []
    with trc.span("fleet-offline-reference", "stream", users=fleet.users):
        for spec in specs:
            trace = _spec_trace(spec)
            history, test_days = split_history(trace, train_days)
            nm_tasks.append(
                PolicyTask(
                    name=f"nm:{spec.user_id}",
                    policy=NetMasterPolicy(history, config.netmaster),
                    days=tuple(test_days),
                    model=power,
                )
            )
            naive_tasks.append(
                PolicyTask(
                    name=f"naive:{spec.user_id}",
                    policy=NaivePolicy(),
                    days=tuple(test_days),
                    model=power,
                )
            )
        nm_grid = run_policy_tasks(nm_tasks, jobs=jobs)
        naive_grid = run_policy_tasks(naive_tasks, jobs=jobs)

    naive_energy = sum(m.energy_j for metrics in naive_grid for m in metrics)
    offline_energy = sum(m.energy_j for metrics in nm_grid for m in metrics)
    offline_interrupts = sum(m.interrupts for metrics in nm_grid for m in metrics)
    offline_interactions = sum(
        m.user_interactions for metrics in nm_grid for m in metrics
    )
    # O(1) rollup reads, not O(N) re-sums over fleet.summaries.
    online_energy = fleet.rollup.energy_j
    online_interrupts = fleet.rollup.interrupts
    online_interactions = fleet.rollup.user_interactions

    def saving(energy: float) -> float:
        return 1.0 - energy / naive_energy if naive_energy > 0 else 0.0

    def ratio(interrupts: int, interactions: int) -> float:
        return interrupts / interactions if interactions > 0 else 0.0

    return StreamResult(
        n_users=n_users,
        n_days=n_days,
        train_days=train_days,
        users_streamed=fleet.users,
        user_days_streamed=fleet.user_days_streamed,
        days_executed=fleet.days_executed,
        events=fleet.events,
        elapsed_s=fleet.elapsed_s,
        events_per_s=fleet.events_per_s,
        checkpoints=fleet.rollup.checkpoints,
        drift_alerts=fleet.rollup.drift_alerts,
        degraded_days=fleet.rollup.degraded_days,
        naive_energy_j=naive_energy,
        online_energy_j=online_energy,
        offline_energy_j=offline_energy,
        online_saving=saving(online_energy),
        offline_saving=saving(offline_energy),
        online_interrupt_ratio=ratio(online_interrupts, online_interactions),
        offline_interrupt_ratio=ratio(offline_interrupts, offline_interactions),
    )
