"""Multi-tenant fleet service: thousands of streamed user-days.

The fleet drives one :class:`~repro.stream.online_netmaster.OnlineNetMaster`
per user over that user's event stream, with two serving-shaped
properties the offline harness never needed:

* **bounded per-user memory** — finished days are priced (a plain drive
  buffers up to :data:`PRICE_BATCH_DAYS` of them per lane-engine batch,
  :func:`repro.core.batch.measure_outcomes_columnar`, bit-identical to
  pricing each day alone) and dropped; only a small numeric
  :class:`UserStreamSummary` survives per user;
* **admission batching** — users are admitted in batches over the
  existing :class:`~repro.runtime.parallel.ParallelRunner`, so a big
  fleet fans over worker processes with the same telemetry-merge
  discipline as the evaluation grids.

The fleet admits every user it is given; the one event budget is the
HTTP gateway's ingest budget (:attr:`FleetConfig.event_budget`).

Checkpointing is exercised in-line: with ``checkpoint_every_days`` set,
the engine is serialized to JSON and restored every N executed days, so
a fleet run continuously proves the kill/resume path on live state.
A run's :class:`FleetResult` is not a document: the durable fleet
(:mod:`repro.stream.shards`) is what survives a restart.

Every per-user drive in the repo — the fleet worker, the monitored and
durable streamers, the HTTP gateway and the monitoring experiment — is
one :class:`UserDriver`; see its docstring for the day-close order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro._util import peak_rss_bytes
from repro.core.batch import measure_outcomes_columnar
from repro.core.netmaster import NetMasterConfig
from repro.evaluation.metrics import measure_outcome
from repro.runtime.parallel import map_shipped
from repro.stream.ingest import stream_trace
from repro.stream.online_netmaster import OnlineNetMaster
from repro.stream.rollup import FleetRollup, SummarySpill, read_spilled
from repro.telemetry import metrics
from repro.traces.events import Trace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.detectors import Alert, MonitorConfig
    from repro.monitor.sinks import MonitorHub
    from repro.stream.shards.store import UserShardState


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of the fleet service."""

    train_days: int = 10
    #: Users admitted per runner submission round.
    batch_size: int = 16
    #: The HTTP gateway's ingest budget (``serve --event-budget``): once
    #: this many events were accepted, ingest batches are refused whole
    #: with HTTP 429.  ``None`` is unbounded.  The library fleet
    #: (:class:`FleetService`) admits every user whatever it holds.
    event_budget: int | None = None
    #: Serialize/restore each engine every N executed days (``None`` off).
    checkpoint_every_days: int | None = None
    #: Per-user day records retained by service-lifetime consumers (the
    #: HTTP gateway): after a day closes, only the newest N decision
    #: documents survive; older days are evicted and live on solely in
    #: the compacted scalar aggregate the savings endpoint reads.
    #: ``None`` retains every day (the pre-service behaviour — and the
    #: RSS leak a long-lived server cannot afford).
    retention_days: int | None = None
    #: Keep every :class:`UserStreamSummary` on the result (the
    #: pre-scale behaviour, and an O(users) RSS term).  Scale runs turn
    #: this off and rely on the rollup aggregates and/or the spill file.
    retain_summaries: bool = True
    #: Append each user's summary document to this JSONL file as their
    #: last day closes (``None`` = no spill).  Published atomically when
    #: the run completes; ``FleetResult.summaries`` re-reads it lazily
    #: when summaries are not retained in memory.
    summary_spill: str | Path | None = None
    #: Attach per-user anomaly monitoring (:mod:`repro.monitor`) at the
    #: day-close seam.  ``None`` (the default) streams with zero
    #: monitor code on the hot path; a config builds one
    #: :class:`~repro.monitor.feedback.UserMonitor` per user, with
    #: alerts published through the hub passed to
    #: :meth:`FleetService.run`.  A quiet monitor leaves decisions and
    #: WAL bytes byte-identical to an unmonitored run.
    monitor: "MonitorConfig | None" = None
    netmaster: NetMasterConfig = field(default_factory=NetMasterConfig)

    def __post_init__(self) -> None:
        if self.train_days < 1:
            raise ValueError(f"train_days must be >= 1, got {self.train_days}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.event_budget is not None and self.event_budget < 0:
            raise ValueError(f"event_budget must be >= 0, got {self.event_budget}")
        if self.checkpoint_every_days is not None and self.checkpoint_every_days < 1:
            raise ValueError(
                f"checkpoint_every_days must be >= 1, got {self.checkpoint_every_days}"
            )
        if self.retention_days is not None and self.retention_days < 0:
            raise ValueError(
                f"retention_days must be >= 0, got {self.retention_days}"
            )


@dataclass(frozen=True)
class FleetUserSpec:
    """One tenant: either an explicit trace or a persona seed.

    With ``trace=None`` the worker synthesizes the user from
    :func:`repro.evaluation.extensions.random_profile` seeded by
    ``seed`` — the fleet then never holds more than one full trace per
    worker at a time.
    """

    user_id: str
    n_days: int
    seed: int | None = None
    start_weekday: int = 0
    trace: Trace | None = None


@dataclass(frozen=True)
class UserStreamSummary:
    """The numeric residue of one fully streamed user."""

    user_id: str
    n_days: int
    days_executed: int
    events: int
    energy_j: float
    radio_on_s: float
    interrupts: int
    user_interactions: int
    deferred: int
    degraded_days: int
    drift_alerts: int
    checkpoints: int

    def as_dict(self) -> dict:
        """JSON-safe dump (floats survive bit-exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "UserStreamSummary":
        """Rebuild from :meth:`as_dict` output, byte-identical."""
        return cls(
            user_id=str(doc["user_id"]),
            n_days=int(doc["n_days"]),
            days_executed=int(doc["days_executed"]),
            events=int(doc["events"]),
            energy_j=float(doc["energy_j"]),
            radio_on_s=float(doc["radio_on_s"]),
            interrupts=int(doc["interrupts"]),
            user_interactions=int(doc["user_interactions"]),
            deferred=int(doc["deferred"]),
            degraded_days=int(doc["degraded_days"]),
            drift_alerts=int(doc["drift_alerts"]),
            checkpoints=int(doc["checkpoints"]),
        )


@dataclass
class SummaryAccumulator:
    """Running scalar totals of one user's stream.

    Owned by :class:`UserDriver`: the accumulator is the part of a
    user's serving state that is *not* inside the engine, and it
    round-trips through JSON bit-exactly so a write-ahead log record can
    carry it next to the engine checkpoint.
    """

    energy_j: float = 0.0
    radio_on_s: float = 0.0
    interrupts: int = 0
    user_interactions: int = 0
    deferred: int = 0
    checkpoints: int = 0

    def consume(self, completed_days, power) -> list:
        """Price completed days and fold in the scalars.

        Multi-day lists are priced in one lane-engine batch
        (:func:`repro.core.batch.measure_outcomes_columnar`); a single
        day is its one-cell call
        (:func:`repro.evaluation.metrics.measure_outcome`).  A day's
        metrics do not depend on its batch and the fold runs in day
        order, so the totals do not depend on the batching.

        Returns the priced per-day metric rows (truthiness-compatible
        with the old day count) so day-close consumers — the monitor's
        detectors, the WAL writer — can reuse the pricing pass instead
        of repeating it.
        """
        completed_days = list(completed_days)
        if len(completed_days) > 1:
            cells = [(c.outcome(), c.trace) for c in completed_days]
            priced = measure_outcomes_columnar(cells, power)
        else:
            priced = [
                measure_outcome(c.outcome(), power, c.trace)
                for c in completed_days
            ]
        for m in priced:
            self.energy_j += m.energy_j
            self.radio_on_s += m.radio_on_s
            self.interrupts += m.interrupts
            self.user_interactions += m.user_interactions
            self.deferred += m.deferred
        return priced

    def state_dict(self) -> dict:
        """JSON-safe state (floats survive bit-exactly)."""
        return {
            "energy_j": self.energy_j,
            "radio_on_s": self.radio_on_s,
            "interrupts": self.interrupts,
            "user_interactions": self.user_interactions,
            "deferred": self.deferred,
            "checkpoints": self.checkpoints,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SummaryAccumulator":
        """Rebuild from :meth:`state_dict` output."""
        return cls(
            energy_j=float(state["energy_j"]),
            radio_on_s=float(state["radio_on_s"]),
            interrupts=int(state["interrupts"]),
            user_interactions=int(state["user_interactions"]),
            deferred=int(state["deferred"]),
            checkpoints=int(state["checkpoints"]),
        )

    def summary(self, engine: OnlineNetMaster, n_days: int) -> UserStreamSummary:
        """Freeze the totals into the per-user fleet summary."""
        return UserStreamSummary(
            user_id=engine.user_id,
            n_days=n_days,
            days_executed=engine.days_executed,
            events=engine.events,
            energy_j=self.energy_j,
            radio_on_s=self.radio_on_s,
            interrupts=self.interrupts,
            user_interactions=self.user_interactions,
            deferred=self.deferred,
            degraded_days=engine.days_degraded,
            drift_alerts=engine.habits.drift_alerts,
            checkpoints=self.checkpoints,
        )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet run.

    The result is rollup-backed: every aggregate the old summaries
    tuple was re-summed for on each access (events, user-days, executed
    days) is an O(1) counter read off :class:`FleetRollup`.  The full
    per-user summaries remain reachable through :attr:`summaries` —
    from memory when the run retained them
    (:attr:`FleetConfig.retain_summaries`), else lazily re-read from
    the spill file — but a constant-RSS scale run carries neither and
    exposes only the rollup.
    """

    rollup: FleetRollup
    elapsed_s: float
    #: Published JSONL spill file, when the run was configured to write
    #: one (:attr:`FleetConfig.summary_spill`).
    spill_path: Path | None = None
    #: In-memory summary tuple, when retained (the compat default).
    retained: tuple[UserStreamSummary, ...] | None = None

    @property
    def summaries(self) -> tuple[UserStreamSummary, ...]:
        """Per-user summaries, from memory or the spill file.

        Raises :class:`RuntimeError` when the run neither retained
        summaries nor spilled them — a constant-RSS fleet deliberately
        keeps only the rollup aggregates.
        """
        if self.retained is not None:
            return self.retained
        if self.spill_path is not None:
            return read_spilled(self.spill_path)
        raise RuntimeError(
            "per-user summaries were neither retained nor spilled "
            "(retain_summaries=False and no summary_spill configured); "
            "only the rollup aggregates exist for this run"
        )

    @property
    def users(self) -> int:
        """Users fully streamed."""
        return self.rollup.users

    @property
    def events(self) -> int:
        """Total events streamed across the fleet (O(1))."""
        return self.rollup.events

    @property
    def user_days_streamed(self) -> int:
        """Total days streamed through the engines (incl. training)."""
        return self.rollup.user_days

    @property
    def days_executed(self) -> int:
        """Causally executed (post-training) days across the fleet."""
        return self.rollup.days_executed

    @property
    def events_per_s(self) -> float:
        """Fleet-level streaming throughput."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.events / self.elapsed_s


#: Completed days a plain drive buffers before one batched pricing pass
#: (and prices at finish).  A drive with a day-close hook or a WAL sink
#: prices at every drain instead: those consumers need the rows as days
#: close.  Totals are bit-identical either way — only batching changes.
PRICE_BATCH_DAYS = 8


class UserDriver:
    """One user's engine and accumulator, driven day close by day close.

    The only per-user drive loop.  At every drain that closes days it:

    1. prices the closed days (:meth:`SummaryAccumulator.consume`);
    2. calls the day-close hook ``on_days(engine, days, priced)``
       (monitor feed, the gateway's naive pricing and decision docs),
       so feedback it writes into the engine survives step 3;
    3. round-trips the engine through its JSON checkpoint when
       ``checkpoint_every_days`` divides the executed-day count (the
       restored engine takes over the old one's closed-day text, so
       the next serialization does not encode those days again);
    4. calls ``sink.log_day(driver)``, after the round-trip so a
       crash-resume replays the bumped counter.

    :meth:`finish` runs steps 1–2 on the last days, then
    ``sink.log_done``.  ``resume`` — a :meth:`state_dict` document —
    restarts the drive where that state left off.
    """

    def __init__(
        self,
        user_id: str,
        config: FleetConfig,
        *,
        start_weekday: int = 0,
        resume: dict | None = None,
        on_days: Callable[[OnlineNetMaster, list, list], None] | None = None,
        sink=None,
    ) -> None:
        if resume is None:
            self.engine = OnlineNetMaster(
                user_id,
                config=config.netmaster,
                start_weekday=start_weekday,
                train_days=config.train_days,
            )
            self.acc = SummaryAccumulator()
        else:
            self.engine = OnlineNetMaster.from_state(resume["engine"])
            self.acc = SummaryAccumulator.from_state(resume["acc"])
        self.on_days = on_days
        self.sink = sink
        self._power = config.netmaster.power
        self._every = config.checkpoint_every_days
        self._flush_at = (
            PRICE_BATCH_DAYS if on_days is None and sink is None else 1
        )
        self._pending: list = []

    def feed(self, records: Iterable[TraceRecord]) -> int:
        """Observe ``records`` in order; returns how many days closed.

        :meth:`OnlineNetMaster.ingest` folds records until one closes a
        day, so the days close here at exactly that stream position.
        """
        closed = 0
        records = iter(records)
        while self.engine.ingest(records):
            done = self.engine.drain()
            if done:
                closed += len(done)
                self._close(done)
        return closed

    def _close(self, done: list) -> None:
        self._pending.extend(done)
        if len(self._pending) >= self._flush_at:
            self._price()
        engine = self.engine
        if self._every and engine.days_executed % self._every == 0:
            restored = OnlineNetMaster.from_json(engine.to_json())
            restored.habits.take_encoded(engine.habits)
            self.engine = restored
            self.acc.checkpoints += 1
        if self.sink is not None:
            self.sink.log_day(self)

    def _price(self) -> None:
        days, self._pending = self._pending, []
        if days:
            priced = self.acc.consume(days, self._power)
            if self.on_days is not None:
                self.on_days(self.engine, days, priced)

    def finish(self, n_days: int) -> int:
        """Close the stream through day ``n_days``; returns the days closed."""
        final = self.engine.finish(n_days)
        self._pending.extend(final)
        self._price()
        if self.sink is not None:
            self.sink.log_done(self, self.acc.summary(self.engine, n_days).as_dict())
        return len(final)

    def state_dict(self) -> dict:
        """The ``resume`` document of the current state (JSON-safe)."""
        return {"engine": self.engine.state_dict(), "acc": self.acc.state_dict()}

    def drive(self, trace: Trace) -> UserStreamSummary:
        """Stream ``trace`` from the engine's position to its horizon.

        ``engine.events`` counts observed records, so a resumed driver
        skips exactly the records its state already holds.
        """
        self.feed(islice(stream_trace(trace), self.engine.events, None))
        self.finish(trace.n_days)
        return self.acc.summary(self.engine, trace.n_days)


def _monitor_hook(user_id: str, config: "MonitorConfig | None", alerts: list):
    """A day-close hook feeding a fresh
    :class:`~repro.monitor.feedback.UserMonitor`; alerts go to ``alerts``."""
    from repro.monitor.feedback import UserMonitor

    monitor = UserMonitor(user_id, config)

    def on_days(engine: OnlineNetMaster, days: list, priced: list) -> None:
        alerts.extend(monitor.feed_days(engine, days, priced))

    return on_days


def stream_one_user(trace: Trace, *, config: FleetConfig) -> UserStreamSummary:
    """Drive one user's full stream through a plain :class:`UserDriver`.

    Completed days are priced :data:`PRICE_BATCH_DAYS` at a time and
    dropped, so the per-user memory is the engine state plus a few
    days' buffers.
    """
    driver = UserDriver(trace.user_id, config, start_weekday=trace.start_weekday)
    return driver.drive(trace)


def stream_one_user_monitored(
    trace: Trace, *, config: FleetConfig
) -> "tuple[UserStreamSummary, list[Alert]]":
    """:func:`stream_one_user` with a
    :class:`~repro.monitor.feedback.UserMonitor` as the day-close hook.

    When no alert fires the summary — and every engine checkpoint along
    the way — is byte-identical to the unmonitored drive.
    """
    alerts: list = []
    driver = UserDriver(
        trace.user_id,
        config,
        start_weekday=trace.start_weekday,
        on_days=_monitor_hook(trace.user_id, config.monitor, alerts),
    )
    return driver.drive(trace), alerts


# ----------------------------------------------------------------------
# the pool worker (module-level, so it pickles)
# ----------------------------------------------------------------------


def _spec_trace(spec: FleetUserSpec) -> Trace:
    if spec.trace is not None:
        return spec.trace
    if spec.seed is None:
        raise ValueError(f"user {spec.user_id!r} has neither a trace nor a seed")
    # Lazy import: evaluation.extensions pulls the policy stack in.
    import numpy as np

    from repro.evaluation.extensions import random_profile
    from repro.traces.generator import TraceGenerator

    rng = np.random.default_rng(spec.seed)
    profile = random_profile(spec.user_id, rng)
    return TraceGenerator(profile, rng).generate(
        spec.n_days, start_weekday=spec.start_weekday
    )


def _stream_spec(payload: "tuple[FleetUserSpec, FleetConfig, UserShardState | None]"):
    """Stream one admitted user; returns ``(summary, alerts, wal_records)``.

    With no shard state the user streams as in the plain fleet.  With
    one the user streams durably from it (resuming when it is
    resumable), and the day closes are recorded for the parent to
    append to the owning shard in admission order.
    """
    spec, config, shard_state = payload
    trace = _spec_trace(spec)
    if shard_state is not None:
        # Lazy: the shards layer imports this module.
        from repro.stream.shards import service as shards

        sink = shards._RecordingSink()
        summary, alerts = shards.stream_user_durable(
            trace, config=config, sink=sink, resume=shard_state
        )
        return summary, alerts, sink.records
    if config.monitor is not None:
        return (*stream_one_user_monitored(trace, config=config), [])
    return stream_one_user(trace, config=config), [], []


def _map_users(payloads: list, jobs: int) -> list:
    """:func:`_stream_spec` over ``payloads``, results in admission order,
    fanned over the shared process pool when ``jobs > 1``."""
    if jobs == 1 or len(payloads) <= 1:
        return [_stream_spec(p) for p in payloads]
    return map_shipped(_stream_spec, payloads, jobs)


class FleetService:
    """Admission-batched multi-tenant driver over the parallel runner."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()

    def run(
        self,
        specs: Iterable[FleetUserSpec],
        *,
        jobs: int = 1,
        monitor: "MonitorHub | None" = None,
    ) -> FleetResult:
        """Stream every admitted user; aggregates fold in spec order.

        ``specs`` may be any iterable — a list, or a lazy generator such
        as :func:`repro.stream.specgen.iter_fleet_specs` — and admission
        windows over it one ``islice`` batch at a time, so the cohort
        never materializes.  ``jobs > 1`` fans each batch over the
        shared process pool with worker telemetry merged back in
        admission order (deterministic registries).  Decisions and
        aggregates are byte-identical between list and iterator sources.

        Passing a :class:`~repro.monitor.sinks.MonitorHub` (or setting
        ``config.monitor``) attaches per-user anomaly monitoring:
        workers detect and apply feedback in-stream, and the parent
        publishes every user's alerts to the hub in admission order —
        identical serial or parallel.
        """
        config = self.config
        if monitor is not None and config.monitor is None:
            from dataclasses import replace

            from repro.monitor.detectors import MonitorConfig

            config = replace(config, monitor=MonitorConfig())
        registry = metrics()
        start = time.perf_counter()
        rollup = FleetRollup()
        spill = (
            SummarySpill(config.summary_spill)
            if config.summary_spill is not None
            else None
        )
        retained: list[UserStreamSummary] | None = (
            [] if config.retain_summaries else None
        )
        high_water = 0
        source = iter(specs)
        try:
            while True:
                batch = list(islice(source, config.batch_size))
                if not batch:
                    break
                registry.inc("stream.batches")
                results = self._admit(batch, jobs, config)
                for summary, alerts in results:
                    rollup.fold(summary)
                    if spill is not None:
                        spill.append(summary)
                    if retained is not None:
                        retained.append(summary)
                    if monitor is not None and alerts:
                        monitor.publish_many(alerts)
                registry.inc("stream.users", len(results))
                if len(batch) > high_water:
                    high_water = len(batch)
                    registry.set_gauge("fleet.active_users", high_water)
                rss = peak_rss_bytes()
                if rss is not None:
                    registry.set_gauge("fleet.peak_rss_bytes", rss)
        except BaseException:
            if spill is not None:
                spill.abort()
            raise
        spill_path = spill.close() if spill is not None else None
        if spill is not None:
            rollup.spilled = spill.count
        elapsed = time.perf_counter() - start
        return FleetResult(
            rollup=rollup,
            elapsed_s=elapsed,
            spill_path=spill_path,
            retained=tuple(retained) if retained is not None else None,
        )

    def _admit(
        self, batch: list[FleetUserSpec], jobs: int, config: FleetConfig
    ) -> "list[tuple[UserStreamSummary, list[Alert]]]":
        """Stream one admission batch: ``(summary, alerts)`` per user
        streamed, in admission order, identical serial or parallel.

        The one per-batch step a subclass overrides (the sharded fleet
        serves users from its logs here).
        """
        payloads = [(spec, config, None) for spec in batch]
        return [
            (summary, alerts)
            for summary, alerts, _ in _map_users(payloads, jobs)
        ]
