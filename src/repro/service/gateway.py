"""The service layer: a single-writer, multi-tenant session over engines.

:class:`FleetGateway` is what the HTTP worker task owns.  It is fully
synchronous — one call at a time, in arrival order — which is exactly
the discipline :class:`~repro.stream.fleet.FleetService` imposes by
construction, so every decision it makes is byte-equal to driving the
library directly.  Per user it keeps:

* one :class:`~repro.stream.online_netmaster.OnlineNetMaster` engine
  (the causal scheduler, checkpoint-exact);
* the compacted scalar aggregate
  (:class:`~repro.stream.fleet.SummaryAccumulator` plus the naive
  always-on baseline totals) — this is what the savings endpoint reads,
  and it covers *every* closed day regardless of retention;
* a bounded window of per-day decision records:
  :attr:`~repro.stream.fleet.FleetConfig.retention_days` caps how many
  day documents survive per user.  Older days are evicted right after
  they close — the service-lifetime answer to the fleet's
  summaries-accumulate-forever RSS leak — and only their scalar residue
  remains in the aggregate.

The ingest path validates a batch's causal order *before* touching the
engine, so a rejected out-of-order batch leaves no partial state behind
(:class:`CausalityError`, HTTP 409).  Checkpoints serialize the whole
gateway — engines, aggregates, retained decisions — to one JSON
document written through :func:`repro._util.write_json_atomic`, and a
restored gateway continues byte-identically.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from repro._util import peak_rss_bytes, write_json_atomic
from repro.baselines.naive import NaivePolicy
from repro.evaluation.metrics import measure_outcome
from repro.monitor import MonitorHub, RingAlertSink, UserMonitor, signal_of
from repro.service.schemas import SchemaError, decision_doc, saving_of
from repro.stream.fleet import FleetConfig, UserDriver
from repro.stream.ingest import event_time, stream_trace
from repro.stream.online_netmaster import (
    CheckpointError,
    CompletedDay,
    OnlineNetMaster,
)
from repro.telemetry import metrics
from repro.traces.events import Trace
from repro.traces.io import TraceRecord

#: Schema version of the gateway checkpoint document.
_SERVICE_CHECKPOINT_FORMAT = 1


class UnknownUserError(KeyError):
    """A read endpoint named a user the service has never seen (404)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else ""


class CausalityError(ValueError):
    """An event batch would move a user's stream backwards (409)."""


class ServiceOverloadError(RuntimeError):
    """The fleet-wide event budget is exhausted; batch shed whole (429)."""


class _UserSession:
    """One tenant's serving state (driver + naive baseline + window)."""

    __slots__ = ("driver", "naive_energy_j", "naive_radio_on_s",
                 "decisions", "evicted_days", "monitor")

    def __init__(
        self,
        gateway: "FleetGateway",
        user_id: str,
        *,
        start_weekday: int = 0,
        resume: dict | None = None,
    ) -> None:
        self.naive_energy_j = 0.0
        self.naive_radio_on_s = 0.0
        self.decisions: list[dict] = []
        self.evicted_days = 0
        #: Per-user anomaly monitor; ``None`` unless the fleet config
        #: carries a :class:`~repro.monitor.detectors.MonitorConfig`.
        self.monitor: UserMonitor | None = None
        self.driver = UserDriver(
            user_id,
            gateway.config,
            start_weekday=start_weekday,
            resume=resume,
            on_days=partial(gateway._close_days, self),
        )

    @property
    def engine(self) -> OnlineNetMaster:
        return self.driver.engine


class FleetGateway:
    """Synchronous multi-user service core (the single writer)."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        self._users: dict[str, _UserSession] = {}
        #: Total events accepted across all users (the budget meter).
        self.events_total = 0
        # Pre-register the fleet-scale instruments so /metrics exposes
        # them from the first scrape, not only after a batch lands.
        # Counters surface on creation; gauges only once written.
        registry = metrics()
        registry.counter("fleet.summaries_spilled")
        registry.counter("monitor.alerts")
        registry.counter("monitor.quarantined_users")
        registry.counter("monitor.sink_errors")
        registry.set_gauge("fleet.active_users", 0)
        rss = peak_rss_bytes()
        if rss is not None:
            registry.set_gauge("fleet.peak_rss_bytes", rss)
        #: Alert fan-out: the ring is what ``GET /v1/alerts`` reads; more
        #: sinks can be attached by the embedding process via ``hub``.
        self.alert_ring = RingAlertSink(capacity=1024)
        self.hub = MonitorHub([self.alert_ring])

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def ensure_user(self, user_id: str, *, start_weekday: int = 0) -> _UserSession:
        """The session for ``user_id``, created on first ingest."""
        session = self._users.get(user_id)
        if session is None:
            session = _UserSession(self, user_id, start_weekday=start_weekday)
            self._users[user_id] = session
            if self.config.monitor is not None:
                session.monitor = UserMonitor(user_id, self.config.monitor)
            registry = metrics()
            registry.inc("service.users_created")
            # Sessions are never dropped, so the live count is also the
            # gateway's high-water mark.
            registry.set_gauge("fleet.active_users", len(self._users))
        return session

    def session(self, user_id: str) -> _UserSession:
        """The existing session for ``user_id``; raises on strangers."""
        session = self._users.get(user_id)
        if session is None:
            raise UnknownUserError(f"unknown user: {user_id!r}")
        return session

    def user_ids(self) -> list[str]:
        """Every user the service holds state for, in admission order."""
        return list(self._users)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        user_id: str,
        records: list[TraceRecord],
        *,
        start_weekday: int = 0,
    ) -> dict:
        """Fold one event batch into a user's stream.

        The batch is validated against the causal order *before* any
        record reaches the engine: an out-of-order batch raises
        :class:`CausalityError` and leaves the session untouched.
        Records then go through the session's
        :class:`~repro.stream.fleet.UserDriver` — days close exactly as
        in :func:`repro.stream.fleet.stream_one_user`, including the
        ``checkpoint_every_days`` in-line round-trip cadence — so the
        decisions are byte-equal to the library drive.
        """
        budget = self.config.event_budget
        if budget is not None and self.events_total >= budget:
            metrics().inc("service.shed_batches")
            raise ServiceOverloadError(
                f"event budget exhausted ({self.events_total} >= {budget}); "
                "batch shed whole"
            )
        session = self.ensure_user(user_id, start_weekday=start_weekday)
        prev = session.engine.last_time
        for i, record in enumerate(records):
            t = event_time(record)
            if t < prev:
                raise CausalityError(
                    f"stream went backwards: events[{i}] at t={t} after "
                    f"t={prev}; batch rejected whole"
                )
            prev = t
        days_closed = session.driver.feed(records)
        self.events_total += len(records)
        metrics().inc("service.events_ingested", len(records))
        engine = session.engine
        return {
            "user_id": user_id,
            "accepted": len(records),
            "days_closed": days_closed,
            "day": engine.day,
            "events": engine.events,
        }

    def finish(self, user_id: str, n_days: int) -> dict:
        """Close a user's stream through day ``n_days`` (horizon known).

        Mirrors the finish tail of
        :func:`~repro.stream.fleet.stream_one_user`: remaining days are
        closed and priced with no checkpoint cadence applied.
        """
        session = self.session(user_id)
        days_closed = session.driver.finish(n_days)
        return {
            "user_id": user_id,
            "n_days": n_days,
            "days_closed": days_closed,
            "days_executed": session.engine.days_executed,
        }

    def _close_days(
        self,
        session: _UserSession,
        engine: OnlineNetMaster,
        days: list[CompletedDay],
        priced: list,
    ) -> None:
        """The sessions' day-close hook: price the naive baseline, keep
        the decision window, feed the monitor."""
        power = self.config.netmaster.power
        retention = self.config.retention_days
        monitor = session.monitor
        drift_total = engine.habits.drift_alerts
        signals = []
        for day, m in zip(days, priced):
            naive = measure_outcome(
                NaivePolicy().execute_day(day.trace), power, day.trace
            )
            session.naive_energy_j += naive.energy_j
            session.naive_radio_on_s += naive.radio_on_s
            session.decisions.append(decision_doc(day, m, naive))
            if monitor is not None:
                # The naive pricing is already on hand here, so the
                # signal assembly costs no extra policy run.
                signals.append(
                    signal_of(day, m, naive, drift_alerts_total=drift_total)
                )
            metrics().inc("service.days_closed")
            if retention is not None:
                while len(session.decisions) > retention:
                    session.decisions.pop(0)
                    session.evicted_days += 1
                    metrics().inc("service.days_evicted")
        if monitor is not None:
            alerts = monitor.feed(engine, signals)
            if alerts:
                self.hub.publish_many(alerts)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def decisions(self, user_id: str) -> dict:
        """The retained per-day decision records of one user."""
        session = self.session(user_id)
        return {
            "user_id": user_id,
            "days_executed": session.engine.days_executed,
            "evicted_days": session.evicted_days,
            "retained": [dict(doc) for doc in session.decisions],
        }

    def savings(self, user_id: str) -> dict:
        """One user's energy-savings summary, read from the compacted
        aggregate — complete even when retention evicted the day records."""
        session = self.session(user_id)
        engine = session.engine
        acc = session.driver.acc
        return {
            "user_id": user_id,
            "events": engine.events,
            "day": engine.day,
            "days_executed": engine.days_executed,
            "degraded_days": engine.days_degraded,
            "drift_alerts": engine.habits.drift_alerts,
            "retained_days": len(session.decisions),
            "evicted_days": session.evicted_days,
            "checkpoints": acc.checkpoints,
            "energy_j": acc.energy_j,
            "naive_energy_j": session.naive_energy_j,
            "saving": saving_of(acc.energy_j, session.naive_energy_j),
            "radio_on_s": acc.radio_on_s,
            "naive_radio_on_s": session.naive_radio_on_s,
            "interrupts": acc.interrupts,
            "user_interactions": acc.user_interactions,
            "interrupt_ratio": (
                acc.interrupts / acc.user_interactions
                if acc.user_interactions
                else 0.0
            ),
            "deferred": acc.deferred,
        }

    def alerts_doc(self) -> dict:
        """The monitoring read: published alerts plus hub/hold counters.

        Served even when monitoring is off (``monitoring: false``, empty
        window) so the endpoint's shape is stable for scrapers.  The
        ``alerts`` list is the ring window — the most recent 1024
        fleet-wide — while ``published`` counts everything ever fanned
        out.
        """
        return {
            "monitoring": self.config.monitor is not None,
            "published": self.hub.published,
            "by_kind": dict(self.hub.by_kind),
            "sink_errors": self.hub.sink_errors,
            "quarantined_users": sum(
                1
                for s in self._users.values()
                if s.monitor is not None and s.monitor.active
            ),
            "alerts": [a.as_dict() for a in self.alert_ring.alerts()],
        }

    def stats(self) -> dict:
        """Fleet-wide counters for the health endpoint (cheap, read-only)."""
        return {
            "users": len(self._users),
            "events": self.events_total,
            "days_executed": sum(
                s.engine.days_executed for s in self._users.values()
            ),
            "retained_decisions": sum(
                len(s.decisions) for s in self._users.values()
            ),
            "evicted_days": sum(s.evicted_days for s in self._users.values()),
        }

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The whole gateway as one JSON-safe document (bit-exact).

        The per-user ``monitor`` key appears only when a monitor is
        attached, so an unmonitored gateway's checkpoint bytes are
        unchanged by this feature existing.
        """
        users = {}
        for user_id, session in self._users.items():
            doc = {
                **session.driver.state_dict(),
                "naive_energy_j": session.naive_energy_j,
                "naive_radio_on_s": session.naive_radio_on_s,
                "decisions": session.decisions,
                "evicted_days": session.evicted_days,
            }
            if session.monitor is not None:
                doc["monitor"] = session.monitor.state_dict()
            users[user_id] = doc
        return {
            "format": _SERVICE_CHECKPOINT_FORMAT,
            "events_total": self.events_total,
            "users": users,
        }

    def load_state(self, state: object) -> None:
        """Replace this gateway's sessions with a checkpointed state."""
        if not isinstance(state, dict):
            raise CheckpointError(
                f"service checkpoint is not a JSON object "
                f"(got {type(state).__name__})"
            )
        fmt = state.get("format")
        if fmt != _SERVICE_CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported service checkpoint format: {fmt!r} "
                f"(this build reads format {_SERVICE_CHECKPOINT_FORMAT})"
            )
        users: dict[str, _UserSession] = {}
        try:
            for user_id, doc in state["users"].items():
                session = _UserSession(self, str(user_id), resume=doc)
                session.naive_energy_j = float(doc["naive_energy_j"])
                session.naive_radio_on_s = float(doc["naive_radio_on_s"])
                session.decisions = [dict(d) for d in doc["decisions"]]
                session.evicted_days = int(doc["evicted_days"])
                monitor_state = doc.get("monitor")
                if monitor_state is not None:
                    session.monitor = UserMonitor.load_state(
                        monitor_state,
                        user_id=str(user_id),
                        config=self.config.monitor,
                    )
                users[str(user_id)] = session
            events_total = int(state["events_total"])
        except CheckpointError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt service checkpoint: {type(exc).__name__}: {exc}"
            ) from exc
        self._users = users
        self.events_total = events_total

    def checkpoint(self, path: str | Path) -> Path:
        """Persist the gateway atomically (temp file + ``os.replace``)."""
        metrics().inc("service.checkpoints")
        return write_json_atomic(path, self.state_dict(), indent=1)

    def restore(self, path: str | Path) -> None:
        """Load a :meth:`checkpoint` document back into this gateway."""
        try:
            state = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SchemaError(
                f"cannot read service checkpoint {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"service checkpoint {path} is truncated or corrupt: {exc}"
            ) from exc
        self.load_state(state)
        metrics().inc("service.restores")


def reference_decisions(trace: Trace, *, config: FleetConfig | None = None) -> dict:
    """Drive the library directly and emit the service's wire documents.

    This is the parity oracle: one engine streamed record by record
    through the same :class:`~repro.stream.fleet.UserDriver` as
    :func:`repro.stream.fleet.stream_one_user` (checkpoint cadence
    included), every closed day priced and rendered through the same
    :func:`~repro.service.schemas.decision_doc`.
    Decisions served over HTTP must equal this output byte for byte.
    """
    gateway = FleetGateway(config)
    records = list(stream_trace(trace))
    gateway.ingest(trace.user_id, records, start_weekday=trace.start_weekday)
    gateway.finish(trace.user_id, trace.n_days)
    return {
        "decisions": gateway.decisions(trace.user_id),
        "savings": gateway.savings(trace.user_id),
    }
