"""Every drive path agrees on an *alerting* cohort, not just a quiet one.

The byte-equality tests pin a monitor that never fires.  Here half the
cohort carries an injected anomaly, so alerts fire, quarantines bite
and degraded days appear: the plain fleet (serial and parallel), the
sharded fleet (serial and parallel) and the HTTP gateway's ingest path
must still produce the same summaries, the same degraded days and the
same alert sequence, and the sharded runs the same WAL bytes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import AnomalyInjector
from repro.monitor import MonitorConfig, MonitorHub, RingAlertSink
from repro.service.gateway import FleetGateway
from repro.stream import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    ShardConfig,
    ShardedFleetService,
    iter_fleet_specs,
    stream_trace,
)
from repro.stream.fleet import _spec_trace

SEED = 2014
N_USERS = 6
N_DAYS = 20
ONSET_DAY = 14
BATCH_EVENTS = 256
CONFIG = FleetConfig(
    train_days=10, checkpoint_every_days=2, monitor=MonitorConfig()
)
SAVINGS_FIELDS = (
    "events", "days_executed", "energy_j", "radio_on_s", "interrupts",
    "user_interactions", "deferred", "checkpoints",
)


@pytest.fixture(scope="module")
def specs() -> list[FleetUserSpec]:
    injector = AnomalyInjector(seed=SEED)
    out = []
    for i, spec in enumerate(
        iter_fleet_specs(seed=SEED, n_users=N_USERS, n_days=N_DAYS)
    ):
        trace = _spec_trace(spec)
        if i % 2 == 0:
            inject = injector.runaway_app if i % 4 == 0 else injector.stuck_dch
            trace = inject(trace, start_day=ONSET_DAY)
        out.append(replace(spec, trace=trace, start_weekday=trace.start_weekday))
    return out


def _alert_docs(ring: RingAlertSink) -> list[dict]:
    return [alert.as_dict() for alert in ring.alerts()]


def _fleet_view(summaries) -> list[dict]:
    return [
        {**{f: getattr(s, f) for f in SAVINGS_FIELDS},
         "user_id": s.user_id, "degraded_days": s.degraded_days}
        for s in summaries
    ]


@pytest.fixture(scope="module")
def fleet_runs(specs):
    runs = {}
    for jobs in (1, 2):
        ring = RingAlertSink(capacity=4096)
        result = FleetService(CONFIG).run(
            specs, jobs=jobs, monitor=MonitorHub([ring])
        )
        runs[f"fleet-jobs{jobs}"] = (result.summaries, _alert_docs(ring))
    return runs


@pytest.fixture(scope="module")
def sharded_runs(specs, tmp_path_factory):
    runs, wals = {}, {}
    for jobs in (1, 2):
        root = tmp_path_factory.mktemp(f"shards-jobs{jobs}")
        service = ShardedFleetService(
            CONFIG, shards=ShardConfig(root=root, n_shards=2)
        )
        ring = RingAlertSink(capacity=4096)
        result = service.run(specs, jobs=jobs, monitor=MonitorHub([ring]))
        runs[f"sharded-jobs{jobs}"] = (result.summaries, _alert_docs(ring))
        wals[jobs] = [store.wal_path.read_bytes() for store in service.stores]
    return runs, wals


@pytest.fixture(scope="module")
def gateway_run(specs):
    gateway = FleetGateway(CONFIG)
    savings = []
    for spec in specs:
        records = list(stream_trace(spec.trace))
        for lo in range(0, len(records), BATCH_EVENTS):
            gateway.ingest(
                spec.user_id,
                records[lo:lo + BATCH_EVENTS],
                start_weekday=spec.start_weekday,
            )
        gateway.finish(spec.user_id, spec.n_days)
        savings.append(gateway.savings(spec.user_id))
    return savings, _alert_docs(gateway.alert_ring)


def test_the_cohort_alerts_and_quarantines(fleet_runs):
    summaries, alerts = fleet_runs["fleet-jobs1"]
    assert len(alerts) == 30
    assert sum(s.degraded_days for s in summaries) == 15


def test_fleet_and_sharded_paths_agree(fleet_runs, sharded_runs):
    runs = {**fleet_runs, **sharded_runs[0]}
    summaries, alerts = runs.pop("fleet-jobs1")
    for name, (other, other_alerts) in runs.items():
        assert other == summaries, name
        assert other_alerts == alerts, name


def test_sharded_wal_bytes_equal_across_jobs(sharded_runs):
    _, wals = sharded_runs
    assert wals[1] == wals[2]


def test_gateway_agrees_with_the_fleet(fleet_runs, gateway_run):
    summaries, alerts = fleet_runs["fleet-jobs1"]
    savings, gateway_alerts = gateway_run
    assert [
        {**{f: doc[f] for f in SAVINGS_FIELDS},
         "user_id": doc["user_id"], "degraded_days": doc["degraded_days"]}
        for doc in savings
    ] == _fleet_view(summaries)
    assert gateway_alerts == alerts
