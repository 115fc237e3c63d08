"""The fleet-monitoring experiment behind ``python -m repro monitor``.

Grades the whole observe → detect → publish → act loop against
labelled ground truth.  A cohort streams through the online engine
with the monitor attached; a seeded minority of users carries a
:class:`~repro.faults.anomalies.AnomalyInjector` scenario (runaway-app
energy burst or a radio pinned in DCH) from a known onset day.  The
experiment then *asserts* the subsystem's three contracts end-to-end:

* **quiet monitor is a no-op** — every clean user produces zero alerts
  and a stream summary byte-identical to the unmonitored drive;
* **the matching detector fires** — runaway users raise
  ``runaway_energy``, stuck-DCH users raise ``dch_stuck``;
* **feedback bites** — an alerted user is quarantined to
  duty-cycle-only degradation, visible as extra degraded days relative
  to the same (anomalous) trace streamed without a monitor.

Alongside detection precision/recall it reports the online
least-squares energy model's one-day-ahead MAE against the trailing
and day-type mean baselines, each predictor scored causally (predict
before observe) over the clean users' day signals.

Set ``REPRO_MONITOR_ALERTS_OUT=/path/alerts.jsonl`` to tee every alert
to an append-only JSONL sink (the CI smoke job uploads it on failure).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.monitor.detectors import Alert, MonitorConfig
from repro.monitor.energy_model import (
    DayTypeMeanPredictor,
    OnlineEnergyModel,
    TrailingMeanPredictor,
)
from repro.monitor.feedback import day_signals
from repro.monitor.sinks import JsonlAlertSink, MonitorHub, RingAlertSink
from repro.stream.fleet import (
    FleetConfig,
    UserDriver,
    _spec_trace,
    stream_one_user,
    stream_one_user_monitored,
)
from repro.stream.specgen import iter_fleet_specs
from repro.telemetry import tracer
from repro.traces.events import Trace

DEFAULT_SEED = 2014
DEFAULT_USERS = 24
DEFAULT_DAYS = 20
DEFAULT_TRAIN_DAYS = 10

#: Environment knob: tee alerts to this JSONL path when set.
ALERTS_OUT_ENV = "REPRO_MONITOR_ALERTS_OUT"

#: Every this-many-th user (from the first) carries an anomaly.
ANOMALOUS_EVERY = 4

#: Anomaly kind -> the detector expected to name it.
EXPECTED_DETECTOR = {"runaway": "runaway_energy", "dch": "dch_stuck"}


class MonitorContractError(AssertionError):
    """An end-to-end monitoring contract failed (detection or no-op)."""


@dataclass(frozen=True)
class MonitorResult:
    """Everything the monitoring experiment measured (and asserted)."""

    n_users: int
    n_days: int
    train_days: int
    onset_day: int
    clean_users: int
    anomalous_users: int
    injected: dict[str, str]  # user_id -> anomaly kind
    alerts_total: int
    alerts_by_kind: dict[str, int]
    false_alert_users: int
    detected_users: int
    kind_matched_users: int
    precision: float
    recall: float
    kind_recall: float
    quarantine_effective_users: int
    degraded_days_monitored: int
    degraded_days_clean: int
    clean_byte_equal: bool
    model_mae_j: float
    trailing_mae_j: float
    daytype_mae_j: float
    model_days: int
    elapsed_s: float
    sink_errors: int = 0
    alerts_path: str | None = None


def _clean_signals(trace: Trace, *, config: FleetConfig) -> list:
    """Day signals of an unmonitored causal drive (for the MAE study)."""
    signals: list = []

    def on_days(engine, days, priced) -> None:
        signals.extend(day_signals(engine, days, priced))

    UserDriver(
        trace.user_id, config, start_weekday=trace.start_weekday, on_days=on_days
    ).drive(trace)
    return signals


def _mae_study(
    per_user_signals: list[tuple[int, list]],
) -> tuple[float, float, float, int]:
    """Causal one-day-ahead MAE of the three energy predictors.

    Each predictor scores a day *before* observing it; a day only
    counts once every predictor has enough history to answer, so the
    three MAEs cover the identical day set.
    """
    errors = {"model": 0.0, "trailing": 0.0, "daytype": 0.0}
    days = 0
    for start_weekday, signals in per_user_signals:
        model = OnlineEnergyModel()
        trailing = TrailingMeanPredictor()
        daytype = DayTypeMeanPredictor()
        for signal in signals:
            weekday = (start_weekday + signal.day) % 7
            features = OnlineEnergyModel.features_of(signal)
            p_model = model.predict(features)
            p_trail = trailing.predict()
            p_dtype = daytype.predict(weekday)
            if p_model is not None and p_trail is not None and p_dtype is not None:
                errors["model"] += abs(p_model - signal.energy_j)
                errors["trailing"] += abs(p_trail - signal.energy_j)
                errors["daytype"] += abs(p_dtype - signal.energy_j)
                days += 1
            model.observe(features, signal.energy_j)
            trailing.observe(signal.energy_j)
            daytype.observe(weekday, signal.energy_j)
    if not days:
        return 0.0, 0.0, 0.0, 0
    return (
        errors["model"] / days,
        errors["trailing"] / days,
        errors["daytype"] / days,
        days,
    )


def _summary_doc(summary) -> str:
    """Canonical byte-form of a stream summary for equality checks."""
    return json.dumps(summary.__dict__, sort_keys=True)


def monitor_experiment(
    *,
    seed: int = DEFAULT_SEED,
    n_users: int = DEFAULT_USERS,
    n_days: int = DEFAULT_DAYS,
    train_days: int = DEFAULT_TRAIN_DAYS,
) -> MonitorResult:
    """Closed-loop fleet monitoring graded against seeded anomalies.

    Every :data:`ANOMALOUS_EVERY`-th user carries an injected scenario
    (alternating runaway-app and stuck-DCH) from the onset day on; the
    onset leaves ``runaway_min_days`` executed days of per-user history
    so the z-score detectors are armed when the anomaly lands.  Raises
    :class:`MonitorContractError` if any monitoring contract fails —
    the experiment doubles as the subsystem's end-to-end gate.
    """
    from repro.faults import AnomalyInjector

    monitor_config = MonitorConfig()
    onset_day = train_days + monitor_config.runaway_min_days
    if not onset_day < n_days:
        raise ValueError(
            f"the anomaly onset (day {onset_day}) must fall before n_days "
            f"({n_days})"
        )
    config = FleetConfig(train_days=train_days, monitor=monitor_config)

    ring = RingAlertSink(capacity=4096)
    sinks: list = [ring]
    alerts_path = os.environ.get(ALERTS_OUT_ENV) or None
    if alerts_path:
        sinks.append(JsonlAlertSink(alerts_path))
    hub = MonitorHub(sinks)

    injector = AnomalyInjector(seed=seed)
    specs = list(iter_fleet_specs(seed=seed, n_users=n_users, n_days=n_days))
    injected: dict[str, str] = {}
    alerts_by_user: dict[str, list[Alert]] = {}
    degraded_mon = degraded_clean = 0
    false_alert_users = detected = kind_matched = quarantine_effective = 0
    clean_byte_equal = True
    clean_signal_sets: list[tuple[int, list]] = []

    start = time.perf_counter()
    trc = tracer()
    with trc.span("monitor-fleet", "monitor", users=n_users, days=n_days):
        for i, spec in enumerate(specs):
            trace = _spec_trace(spec)
            anomalous = i % ANOMALOUS_EVERY == 0
            if anomalous:
                kind = "runaway" if (i // ANOMALOUS_EVERY) % 2 == 0 else "dch"
                injected[spec.user_id] = kind
                streamed = (
                    injector.runaway_app(trace, start_day=onset_day)
                    if kind == "runaway"
                    else injector.stuck_dch(trace, start_day=onset_day)
                )
            else:
                streamed = trace
            summary, alerts = stream_one_user_monitored(streamed, config=config)
            hub.publish_many(alerts)
            alerts_by_user[spec.user_id] = alerts
            # The unmonitored reference streams the *same* trace the
            # monitored drive saw — anomaly included — so the degraded-day
            # delta isolates the quarantine feedback, nothing else.
            reference = stream_one_user(streamed, config=config)
            degraded_mon += summary.degraded_days
            degraded_clean += reference.degraded_days

            if anomalous:
                if alerts:
                    detected += 1
                kinds = {a.kind for a in alerts}
                if EXPECTED_DETECTOR[injected[spec.user_id]] in kinds:
                    kind_matched += 1
                if summary.degraded_days > reference.degraded_days:
                    quarantine_effective += 1
            else:
                if alerts:
                    false_alert_users += 1
                if _summary_doc(summary) != _summary_doc(reference):
                    clean_byte_equal = False
                clean_signal_sets.append(
                    (trace.start_weekday, _clean_signals(trace, config=config))
                )
    hub.close()

    # --- contract assertions: this experiment is the e2e gate -------
    if false_alert_users or not clean_byte_equal:
        raise MonitorContractError(
            f"quiet-monitor contract violated: {false_alert_users} clean "
            f"users alerted, byte_equal={clean_byte_equal}"
        )
    missed = {
        uid: kind
        for uid, kind in injected.items()
        if EXPECTED_DETECTOR[kind] not in {a.kind for a in alerts_by_user[uid]}
    }
    if missed:
        raise MonitorContractError(
            f"matching-detector contract violated: {missed} fired "
            f"{ {u: sorted({a.kind for a in alerts_by_user[u]}) for u in missed} }"
        )
    if quarantine_effective < len(injected):
        raise MonitorContractError(
            f"feedback contract violated: only {quarantine_effective} of "
            f"{len(injected)} anomalous users show extra degraded days"
        )

    model_mae, trailing_mae, daytype_mae, model_days = _mae_study(
        clean_signal_sets
    )
    by_kind: dict[str, int] = {}
    for alerts in alerts_by_user.values():
        for alert in alerts:
            by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
    n_anomalous = len(injected)
    alerting_users = sum(1 for a in alerts_by_user.values() if a)
    return MonitorResult(
        n_users=n_users,
        n_days=n_days,
        train_days=train_days,
        onset_day=onset_day,
        clean_users=n_users - n_anomalous,
        anomalous_users=n_anomalous,
        injected=dict(injected),
        alerts_total=ring.count,
        alerts_by_kind=by_kind,
        false_alert_users=false_alert_users,
        detected_users=detected,
        kind_matched_users=kind_matched,
        precision=detected / alerting_users if alerting_users else 0.0,
        recall=detected / n_anomalous if n_anomalous else 0.0,
        kind_recall=kind_matched / n_anomalous if n_anomalous else 0.0,
        quarantine_effective_users=quarantine_effective,
        degraded_days_monitored=degraded_mon,
        degraded_days_clean=degraded_clean,
        clean_byte_equal=clean_byte_equal,
        model_mae_j=model_mae,
        trailing_mae_j=trailing_mae,
        daytype_mae_j=daytype_mae,
        model_days=model_days,
        elapsed_s=time.perf_counter() - start,
        sink_errors=hub.sink_errors,
        alerts_path=alerts_path,
    )
