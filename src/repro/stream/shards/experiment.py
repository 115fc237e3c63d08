"""The crash-recovery experiment behind ``python -m repro shards``.

Runs the fleet twice over the same sharded store root:

1. **first pass** — the first half of the fleet streams durably, then
   the service object is dropped on the floor (standing in for a crash:
   nothing is flushed or closed beyond what every day-close append
   already made durable);
2. **recovery pass** — a brand-new service over the same root replays
   every shard (snapshot + WAL tail) and runs the *full* fleet: the
   first half is served straight from the logs, the second half streams
   fresh.

The recovered fleet is then compared field-for-field against an
uninterrupted single-process :class:`~repro.stream.fleet.FleetService`
run — the experiment's headline, ``matches_baseline``, is the
durability contract of the shards layer: a crash plus recovery is
observationally identical to never having crashed.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.stream.experiment import (
    DEFAULT_DAYS,
    DEFAULT_SEED,
    DEFAULT_TRAIN_DAYS,
    DEFAULT_USERS,
    fleet_specs,
)
from repro.stream.fleet import FleetConfig, FleetService
from repro.stream.shards.service import ShardConfig, ShardedFleetService
from repro.telemetry import tracer


@dataclass(frozen=True)
class ShardsResult:
    """Everything the sharded crash-recovery experiment measured."""

    n_users: int
    n_days: int
    train_days: int
    n_shards: int
    users_streamed: int
    events: int
    events_per_s: float
    elapsed_s: float
    first_pass_users: int
    recovered_users: int
    resumed_users: int
    replayed_records: int
    recovery_s: float
    wal_appends: int
    compactions: int
    matches_baseline: bool


def shards_experiment(
    *,
    seed: int = DEFAULT_SEED,
    n_users: int = DEFAULT_USERS,
    n_days: int = DEFAULT_DAYS,
    train_days: int = DEFAULT_TRAIN_DAYS,
    n_shards: int = 4,
    compact_every_records: int = 64,
    checkpoint_every_days: int | None = 2,
    jobs: int = 1,
) -> ShardsResult:
    """Sharded durable fleet: crash, recover, equal the unbroken run."""
    config = FleetConfig(
        train_days=train_days, checkpoint_every_days=checkpoint_every_days
    )
    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    trc = tracer()

    with tempfile.TemporaryDirectory(prefix="repro-shards-") as root:
        shards = ShardConfig(
            root=Path(root),
            n_shards=n_shards,
            compact_every_records=compact_every_records,
        )

        first_half = specs[: max(1, n_users // 2)]
        with trc.span("shards-first-pass", "shards", users=len(first_half)):
            first = ShardedFleetService(config, shards=shards)
            first.run(first_half, jobs=jobs)
        # The first service is simply abandoned here — every durable
        # byte it will ever contribute is already on disk.

        second = ShardedFleetService(config, shards=shards)
        t0 = time.perf_counter()
        reports = second.recover()
        recovery_s = time.perf_counter() - t0
        with trc.span("shards-recovered-run", "shards", users=n_users):
            result = second.run(specs, jobs=jobs)

        with trc.span("shards-baseline", "shards", users=n_users):
            baseline = FleetService(config).run(specs, jobs=jobs)

        return ShardsResult(
            n_users=n_users,
            n_days=n_days,
            train_days=train_days,
            n_shards=n_shards,
            users_streamed=result.users,
            events=result.events,
            events_per_s=result.events_per_s,
            elapsed_s=result.elapsed_s,
            first_pass_users=len(first_half),
            recovered_users=result.recovered_users,
            resumed_users=result.resumed_users,
            replayed_records=sum(r.replayed_records for r in reports),
            recovery_s=recovery_s,
            wal_appends=sum(store.appends for store in first.stores)
            + sum(store.appends for store in second.stores),
            compactions=sum(store.compactions for store in first.stores)
            + sum(store.compactions for store in second.stores),
            matches_baseline=result.summaries == baseline.summaries,
        )
