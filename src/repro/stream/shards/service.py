"""Sharded durable fleet service: the fleet loop on top of shard WALs.

:class:`ShardedFleetService` makes the same admission and shedding
decisions as the plain :class:`~repro.stream.fleet.FleetService` — users
in spec order, batch-granular event budget, shed-whole semantics — while
every day a user closes is durably logged to that user's shard *before*
the service moves on.  Sharding is a durability and isolation concern,
not a scheduling one: the decisions (and hence the summaries) are
byte-identical to the single-process fleet at the same seeds, including
under load shedding.  Killing the process mid-fleet and constructing a
fresh service over the same root resumes exactly where the WALs end —
finished users are served from their logged summaries, the in-flight
user restarts from its last closed day, and untouched shards replay
nothing.

On top of the fleet semantics, shards add one orthogonal control: a
*per-shard* event budget (:attr:`ShardConfig.shard_event_budget`).  A
shard whose completed-event count has crossed the budget at the start of
a batch stops admitting new users — they are shed deterministically and
counted in ``shard.shed_users`` — while the other shards keep serving.
That is the failure-isolation story: one hot shard degrades alone.

Parallel mode (``jobs > 1``) fans user streams over the shared process
pool; workers *record* their day-close deltas instead of writing them,
and the parent appends every record to the owning shard in admission
order — the WALs end up byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.stream.fleet import (
    FleetConfig,
    FleetResult,
    FleetService,
    FleetUserSpec,
    UserDriver,
    UserStreamSummary,
    _map_users,
    _monitor_hook,
    _spec_trace,
)
from repro.stream.shards.store import (
    DayCloseLog,
    RecoveryReport,
    ShardStore,
    UserShardState,
    shard_of,
)
from repro.telemetry import metrics, tracer
from repro.traces.events import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.detectors import Alert


@dataclass(frozen=True)
class ShardConfig:
    """Layout and budgets of the sharded store."""

    root: Path
    n_shards: int = 4
    #: Compact a shard once its WAL holds this many records.
    compact_every_records: int = 64
    #: fsync every WAL append (power-loss durability; slower).
    fsync: bool = False
    #: Completed events a single shard may hold before it stops
    #: admitting new users (``None`` = unbounded).  Orthogonal to the
    #: fleet-wide :attr:`~repro.stream.fleet.FleetConfig.event_budget`.
    shard_event_budget: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.shard_event_budget is not None and self.shard_event_budget < 0:
            raise ValueError(
                f"shard_event_budget must be >= 0, got {self.shard_event_budget}"
            )

    def shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:03d}"


class _RecordingSink(DayCloseLog):
    """Collects day-close records instead of writing them (for workers)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def append(self, payload: dict) -> None:
        self.records.append(payload)


def stream_user_durable(
    trace: Trace,
    *,
    config: FleetConfig,
    sink,
    resume: UserShardState | None = None,
) -> "tuple[UserStreamSummary, list[Alert]]":
    """Drive one user's stream with ``sink`` as the WAL sink.

    :func:`repro.stream.fleet.stream_one_user`'s drive, decision for
    decision, plus a ``sink.log_day`` per day close.  ``resume`` — a
    prior day-close state — restarts the stream at the record after the
    last durable day.  With ``config.monitor`` set a
    :class:`~repro.monitor.feedback.UserMonitor` is the day-close hook;
    its state is rebuilt fresh on resume (detector history restarts).
    Returns the summary and the alerts raised.
    """
    state = None
    if resume is not None and resume.resumable:
        state = {"engine": resume.engine_state, "acc": resume.acc_state}
        metrics().inc("shard.resumed_users")
    alerts: list = []
    driver = UserDriver(
        trace.user_id,
        config,
        start_weekday=trace.start_weekday,
        resume=state,
        on_days=(
            _monitor_hook(trace.user_id, config.monitor, alerts)
            if config.monitor is not None
            else None
        ),
        sink=sink,
    )
    return driver.drive(trace), alerts


@dataclass(frozen=True)
class ShardStats:
    """Durability accounting of one shard after a run."""

    shard: int
    users: int
    done_users: int
    events: int
    generation: int
    wal_records: int
    appends: int
    compactions: int
    #: Users this shard's own event budget shed during the run.
    shed_users: int


@dataclass(frozen=True)
class ShardedFleetResult(FleetResult):
    """Outcome of one sharded fleet run.

    A :class:`~repro.stream.fleet.FleetResult` — rollup-backed O(1)
    aggregate reads, summaries retained or spilled — plus the
    durability layer's accounting: resumed/recovered user counts and
    per-shard stats.
    """

    resumed_users: int = 0
    recovered_users: int = 0
    shard_stats: tuple[ShardStats, ...] = ()

    @property
    def shard_shed_users(self) -> int:
        """Users shed by their shard's own event budget."""
        return self.rollup.shard_shed_users


class ShardedFleetService(FleetService):
    """Durable, crash-recoverable fleet over N WAL-backed shards.

    The admission loop is :meth:`FleetService.run`'s; only the
    per-batch step (:meth:`_admit`) differs: users whose shard holds
    their completed summary are served from the log without
    recomputation (their events still count against the budget, so the
    decisions match an uninterrupted single run), users on an
    over-budget shard are shed, interrupted users resume from their
    last durable day, and every day close reaches the WAL in admission
    order.
    """

    def __init__(
        self, config: FleetConfig | None = None, *, shards: ShardConfig
    ) -> None:
        super().__init__(config)
        self.shards = shards
        self.stores = [
            ShardStore(
                shards.shard_path(i),
                compact_every_records=shards.compact_every_records,
                fsync=shards.fsync,
            )
            for i in range(shards.n_shards)
        ]
        self.recoveries: tuple[RecoveryReport, ...] = ()
        self._resumed = 0
        self._recovered = 0
        self._shed = [0] * shards.n_shards

    def recover(self) -> tuple[RecoveryReport, ...]:
        """Replay every shard from disk; safe on an empty root."""
        trc = tracer()
        with trc.span("shard-recovery", "shards", shards=len(self.stores)):
            self.recoveries = tuple(store.recover() for store in self.stores)
        return self.recoveries

    def run(
        self,
        specs: Iterable[FleetUserSpec],
        *,
        jobs: int = 1,
        monitor=None,
    ) -> ShardedFleetResult:
        """:meth:`FleetService.run` over the durable per-batch step,
        plus the run's resume, recovery and per-shard accounting."""
        self._resumed = self._recovered = 0
        self._shed = [0] * self.shards.n_shards
        result = super().run(specs, jobs=jobs, monitor=monitor)
        result.rollup.shard_shed_users = sum(self._shed)
        return ShardedFleetResult(
            **vars(result),
            resumed_users=self._resumed,
            recovered_users=self._recovered,
            shard_stats=self.stats(),
        )

    def _admit(
        self, batch: list[FleetUserSpec], jobs: int, config: FleetConfig
    ) -> list[tuple[UserStreamSummary, list]]:
        # Per-shard budgets are read once, at the start of the batch, so
        # jobs=1 and jobs=N make the same calls.
        over_budget = self._over_budget_shards()
        slots: list[tuple[UserStreamSummary, list] | None] = [None] * len(batch)
        todo: list[tuple[int, FleetUserSpec, ShardStore, UserShardState]] = []
        for i, spec in enumerate(batch):
            shard = shard_of(spec.user_id, self.shards.n_shards)
            store = self.stores[shard]
            state = store.get(spec.user_id)
            if state is not None and state.done and state.summary is not None:
                slots[i] = (UserStreamSummary.from_dict(state.summary), [])
                self._recovered += 1
            elif shard in over_budget:
                self._shed[shard] += 1
                metrics().inc("shard.shed_users")
            else:
                if state is None:
                    state = UserShardState(user_id=spec.user_id)
                elif state.resumable:
                    self._resumed += 1
                todo.append((i, spec, store, state))
        if jobs == 1 or len(todo) <= 1:
            # Serial: every day close reaches the shard before the next.
            for i, spec, store, state in todo:
                slots[i] = stream_user_durable(
                    _spec_trace(spec), config=config, sink=store, resume=state
                )
        else:
            # Parallel: workers record their day closes; appending them
            # here, in admission order, writes the serial run's WAL bytes.
            payloads = [(spec, config, state) for _, spec, _, state in todo]
            for (i, _, store, _), (summary, alerts, records) in zip(
                todo, _map_users(payloads, jobs)
            ):
                for record in records:
                    store.append(record)
                slots[i] = (summary, alerts)
        return [slot for slot in slots if slot is not None]

    def _over_budget_shards(self) -> frozenset[int]:
        budget = self.shards.shard_event_budget
        if budget is None:
            return frozenset()
        return frozenset(
            i for i, store in enumerate(self.stores) if store.events >= budget
        )

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-shard durability accounting (sheds are the last run's)."""
        out = []
        for i, store in enumerate(self.stores):
            users = store.users
            out.append(
                ShardStats(
                    shard=i,
                    users=len(users),
                    done_users=sum(1 for s in users.values() if s.done),
                    events=store.events,
                    generation=store.generation,
                    wal_records=store.wal_records,
                    appends=store.appends,
                    compactions=store.compactions,
                    shed_users=self._shed[i],
                )
            )
        return tuple(out)
