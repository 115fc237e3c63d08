"""Closed-loop feedback: alerts become scheduler hints.

:class:`UserMonitor` is the per-user glue between the detector bank and
the engine: day-close signals are built at the pricing seam
(:func:`day_signals`), fed through the bank, and the verdict drives a
quarantine state machine with hysteresis —

* **trigger**: any alert activates the quarantine immediately;
* **hold**: while active, the engine's next days are forced to
  duty-cycle-only degradation (the PR 1 fallback, via
  ``NetMaster.force_degraded``);
* **release**: only after the user served ``quarantine_days`` *and*
  produced ``release_clean_days`` consecutive alert-free days — an
  alert during probation re-arms the hold (the
  :class:`~repro.faults.degradation.CircuitBreaker` cooldown idiom).

The invariant the whole subsystem hangs on: a monitor that never fires
is a pure observer.  ``apply`` writes ``0`` into the engine's feedback
window while inactive — the value it already holds — and the engine
serializes that window only when nonzero, so decisions, checkpoints
and WAL bytes stay byte-identical to an unmonitored run.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.naive import NaivePolicy
from repro.evaluation.metrics import PolicyDayMetrics, measure_outcome
from repro.monitor.detectors import Alert, DaySignal, DetectorBank, MonitorConfig
from repro.stream.online_netmaster import CompletedDay, OnlineNetMaster
from repro.telemetry import metrics

__all__ = ["UserMonitor", "day_signals", "signal_of"]

_STATE_FORMAT = 1


def signal_of(
    day: CompletedDay,
    priced: PolicyDayMetrics,
    naive: PolicyDayMetrics,
    *,
    drift_alerts_total: int,
) -> DaySignal:
    """Assemble the detector-facing signal for one priced day."""
    trace = day.trace
    return DaySignal(
        user_id=trace.user_id,
        day=day.day_index,
        energy_j=priced.energy_j,
        radio_on_s=priced.radio_on_s,
        transfer_s=priced.transfer_s,
        naive_energy_j=naive.energy_j,
        screen_on_s=sum(s.end - s.start for s in trace.screen_sessions),
        events=len(trace.screen_sessions) + len(trace.usages) + len(trace.activities),
        drift_alerts_total=drift_alerts_total,
        degraded=day.execution.degraded,
    )


def day_signals(
    engine: OnlineNetMaster,
    completed: list[CompletedDay],
    priced: list[PolicyDayMetrics],
) -> list[DaySignal]:
    """Signals for one drained batch, pricing the naive baseline per day.

    The engine's cumulative drift counter is read once per batch, so
    every signal of a multi-day drain carries the same total (see
    :class:`~repro.monitor.detectors.DriftEscalationDetector`).
    """
    power = engine.config.power
    drift_total = engine.habits.drift_alerts
    out = []
    for day, m in zip(completed, priced):
        naive = measure_outcome(
            NaivePolicy().execute_day(day.trace), power, day.trace
        )
        out.append(signal_of(day, m, naive, drift_alerts_total=drift_total))
    return out


class UserMonitor:
    """One user's detector bank plus the quarantine state machine."""

    def __init__(self, user_id: str, config: MonitorConfig | None = None) -> None:
        self.user_id = user_id
        self.config = config or MonitorConfig()
        self.bank = DetectorBank(user_id, self.config)
        #: Whether the quarantine hold is currently engaged.
        self.active = False
        #: Alert-free days is not enough — the hold also has a minimum
        #: sentence (``served``) before ``clean`` hysteresis can release.
        self.served = 0
        self.clean = 0
        self.quarantines = 0
        self.alerts_total = 0

    # ------------------------------------------------------------------
    # the detect → act step
    # ------------------------------------------------------------------
    def feed(
        self, engine: OnlineNetMaster | None, signals: Iterable[DaySignal]
    ) -> list[Alert]:
        """Run day-close signals through the bank and apply feedback.

        Returns the alerts raised, in (day, bank) order.  Telemetry
        counters are incremented here — the detection site — so worker
        processes ship them back deterministically with their snapshot.
        """
        registry = metrics()
        alerts: list[Alert] = []
        for signal in signals:
            day_alerts = self.bank.feed(signal)
            alerts.extend(day_alerts)
            self._step(alerted=bool(day_alerts))
        for alert in alerts:
            registry.inc("monitor.alerts")
            registry.inc(f"monitor.alerts.{alert.kind}")
        self.alerts_total += len(alerts)
        if engine is not None:
            self.apply(engine)
        return alerts

    def feed_days(
        self,
        engine: OnlineNetMaster,
        completed: list[CompletedDay],
        priced: list[PolicyDayMetrics],
    ) -> list[Alert]:
        """:meth:`feed` from the pricing seam's raw materials."""
        if not completed:
            return []
        return self.feed(engine, day_signals(engine, completed, priced))

    def _step(self, *, alerted: bool) -> None:
        if alerted:
            if not self.active:
                self.active = True
                self.quarantines += 1
                metrics().inc("monitor.quarantined_users")
            self.served = 0
            self.clean = 0
        elif self.active:
            self.served += 1
            self.clean += 1
            if (
                self.served >= self.config.quarantine_days
                and self.clean >= self.config.release_clean_days
            ):
                self.active = False

    def apply(self, engine: OnlineNetMaster) -> None:
        """Project the hold onto the engine's quarantine window.

        While active the window covers the next ``quarantine_days``
        closes (it is re-extended every fed day, so the effective hold
        lasts until hysteresis releases it); while inactive the window
        is zero — which is what it already was, keeping the unalerted
        engine byte-identical to an unmonitored one.
        """
        if self.config.action == "none":
            return
        engine.quarantined_until = (
            engine.day + 1 + self.config.quarantine_days if self.active else 0
        )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe monitor state (bank plus the hold machine)."""
        return {
            "format": _STATE_FORMAT,
            "active": self.active,
            "served": self.served,
            "clean": self.clean,
            "quarantines": self.quarantines,
            "alerts_total": self.alerts_total,
            "bank": self.bank.state_dict(),
        }

    @classmethod
    def load_state(
        cls, state: dict, *, user_id: str, config: MonitorConfig | None = None
    ) -> "UserMonitor":
        """Rebuild a monitor mid-stream; future verdicts are identical."""
        fmt = state.get("format")
        if fmt != _STATE_FORMAT:
            raise ValueError(
                f"unsupported monitor state format: {fmt!r} "
                f"(this build reads format {_STATE_FORMAT})"
            )
        monitor = cls(user_id, config)
        monitor.active = bool(state["active"])
        monitor.served = int(state["served"])
        monitor.clean = int(state["clean"])
        monitor.quarantines = int(state["quarantines"])
        monitor.alerts_total = int(state["alerts_total"])
        monitor.bank = DetectorBank.load_state(
            state["bank"], user_id=user_id, config=monitor.config
        )
        return monitor
