"""``stream-observe`` and ``durable-decide``: the streaming fleet in-process.

Both workloads hand the fleet ready traces (``FleetUserSpec.trace``),
so no synthesis happens inside the timed ``run()`` call, and both run
``jobs=1``.  Each timed call starts from a cleared solver memo and a
fresh service (and, for the durable fleet, a fresh shard root), so
every repetition does the same work a fresh process would.
``events_per_s`` counts the events of every timed call over their
summed CPU time, scaled to the reference host speed (see the README's
Steadiness section).
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
from dataclasses import replace

import numpy as np

from perfbench.common import Run, Times, check, peak_rss_mib, timed
from perfbench.layers import measure
from repro.baselines import NaivePolicy
from repro.core.batch import run_policy_tasks_columnar
from repro.core.overlapped import clear_slot_memo
from repro.monitor import MonitorConfig, MonitorHub, RingAlertSink
from repro.runtime.parallel import PolicyTask
from repro.service.gateway import reference_decisions
from repro.stream import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    ShardConfig,
    ShardedFleetService,
)
from repro.traces.generator import generate_cohort

#: stream-observe: two cohort draws (16 users), mostly training days,
#: so ingest dominates.
STREAM_SHAPE = {"copies": 2, "days": 14, "train_days": 10}
#: durable-decide: 8 users, 21 of 28 days executed, so decisions dominate.
DURABLE_SHAPE = {"copies": 1, "days": 28, "train_days": 7}
#: durable-decide's monitor: every detector at its default, but no
#: feedback, so an alert never changes a decision.  Under the default
#: quarantine a false alert on a clean cohort cascades and changes the
#: decisions (see the README's known defects).
DURABLE_MONITOR = MonitorConfig(action="none")
#: Two shards, so the default compaction threshold is crossed.
DURABLE_SHARDS = 2
#: Users re-derived through the reference oracle per run.
SAMPLED_USERS = 3
#: The summary fields ``tests/service/test_equivalence.py`` compares.
SAVINGS_FIELDS = (
    "energy_j", "radio_on_s", "interrupts", "user_interactions", "deferred",
    "days_executed", "events", "checkpoints",
)


def cohort(seed: int, copies: int, days: int) -> list[FleetUserSpec]:
    """``copies`` seeded draws of the paper's 8-user cohort, traces built up front.

    Fixed personas keep the work mix alike from seed to seed; the seed
    only changes each persona's day-to-day draws.
    """
    specs = []
    for copy, sub_seed in enumerate(np.random.SeedSequence(seed).generate_state(copies)):
        for trace in generate_cohort(days, seed=int(sub_seed)):
            trace = replace(trace, user_id=f"{trace.user_id}-{copy}")
            specs.append(FleetUserSpec(
                user_id=trace.user_id, n_days=days,
                start_weekday=trace.start_weekday, trace=trace,
            ))
    return specs


def fleet_doc(result) -> dict:
    """The outputs a fleet run must reproduce byte for byte."""
    return {
        "summaries": [s.as_dict() for s in result.summaries],
        "rollup": result.rollup.state_dict(),
    }


def naive_energy(specs, train_days: int, config: FleetConfig) -> list[float]:
    """Per-user always-on energy over the executed days (columnar grid)."""
    tasks = [
        PolicyTask(
            name=spec.user_id,
            policy=NaivePolicy(),
            days=tuple(spec.trace.day_view(d) for d in range(train_days, spec.n_days)),
            model=config.netmaster.power,
        )
        for spec in specs
    ]
    return [sum(m.energy_j for m in cells) for cells in run_policy_tasks_columnar(tasks)]


def check_against_reference(run: Run, specs, result, config, naive) -> None:
    """A seeded sample of users re-derived through ``reference_decisions``."""
    by_user = {s.user_id: s for s in result.summaries}
    sample = random.Random(run.seed).sample(range(len(specs)), SAMPLED_USERS)
    for i in sample:
        spec = specs[i]
        savings = reference_decisions(spec.trace, config=config)["savings"]
        summary = by_user[spec.user_id].as_dict()
        for name in SAVINGS_FIELDS:
            check(savings[name] == summary[name],
                  f"{spec.user_id}: {name} {summary[name]!r} != reference {savings[name]!r}")
        check(savings["naive_energy_j"] == naive[i],
              f"{spec.user_id}: naive energy {naive[i]!r} != reference "
              f"{savings['naive_energy_j']!r}")


# ----------------------------------------------------------------------
# stream-observe
# ----------------------------------------------------------------------


def stream_observe(run: Run) -> None:
    shape = STREAM_SHAPE
    config = FleetConfig(train_days=shape["train_days"], checkpoint_every_days=2)
    specs, setup_s = run.setup(lambda: cohort(run.seed, shape["copies"], shape["days"]))

    def once():
        clear_slot_memo()
        service = FleetService(config)
        return timed(lambda: service.run(specs, jobs=1))

    times, result, out_digest = measure(run, once, fleet_doc)
    rss = peak_rss_mib()
    # Every call gave the same outputs, so the same users.
    run.attempted = len(specs) * len(times)
    run.failed = (len(specs) - result.users) * len(times)
    naive = naive_energy(specs, shape["train_days"], config)
    check_against_reference(run, specs, result, config, naive)
    cpu = statistics.fmean(t.cpu_s for t in times)
    if not run.trace:
        _end_to_end(run, events=result.events, cpu_s=cpu, rss=rss,
                    energy=result.rollup.energy_j, naive_total=sum(naive),
                    setup_s=setup_s)
    run.detail.update({
        "digest": out_digest,
        "shape": shape,
        "reps": len(times),
        "run_s": [t.wall_s for t in times],
        "run_cpu_s": [t.cpu_s for t in times],
        "events_per_wall_s": result.events / statistics.fmean(t.wall_s for t in times),
        "user_days_per_s": result.user_days_streamed / cpu,
        "interrupt_ratio": _ratio(result.rollup),
        "operations": {"users_streamed": run.attempted, "users_failed": run.failed},
    })


# ----------------------------------------------------------------------
# durable-decide
# ----------------------------------------------------------------------


def _alert_docs(sink: RingAlertSink) -> list[dict]:
    return [alert.as_dict() for alert in sink.alerts()]


def durable_decide(run: Run) -> None:
    shape = DURABLE_SHAPE
    plain_config = FleetConfig(train_days=shape["train_days"], checkpoint_every_days=2)
    config = replace(plain_config, monitor=DURABLE_MONITOR)
    specs, setup_s = run.setup(lambda: cohort(run.seed, shape["copies"], shape["days"]))
    # Per call: run and recovery times, WAL records written and
    # replayed, users recovered as done, the alerts published.
    calls: list[dict] = []

    def once():
        clear_slot_memo()
        root = run.tempdir("shards")
        shards = ShardConfig(root=root, n_shards=DURABLE_SHARDS)
        service = ShardedFleetService(config, shards=shards)
        sink = RingAlertSink(capacity=1024)
        hub = MonitorHub([sink])
        ran, result = timed(lambda: service.run(specs, jobs=1, monitor=hub))
        recovered, reports = timed(ShardedFleetService(config, shards=shards).recover)
        calls.append({
            "run": ran,
            "recovery": recovered,
            "wal_records": sum(store.wal_records for store in service.stores),
            "replayed": sum(r.replayed_records for r in reports),
            "recovered_done": sum(r.done_users for r in reports),
            "alerts": _alert_docs(sink),
        })
        shutil.rmtree(root, ignore_errors=True)
        return Times(ran.wall_s + recovered.wall_s, ran.cpu_s + recovered.cpu_s), result

    times, result, out_digest = measure(run, once, fleet_doc)
    rss = peak_rss_mib()
    written = sum(c["wal_records"] for c in calls)
    recovered = sum(c["replayed"] for c in calls)
    run.attempted = len(specs) * len(calls) + written
    run.failed = (len(specs) - result.users) * len(calls) + written - recovered
    naive = naive_energy(specs, shape["train_days"], config)
    run_cpu = statistics.fmean(c["run"].cpu_s for c in calls)
    if not run.trace:
        _end_to_end(run, events=result.events, cpu_s=run_cpu, rss=rss,
                    energy=result.rollup.energy_j, naive_total=sum(naive),
                    setup_s=setup_s)
    alerts = calls[-1]["alerts"]
    run.detail.update({
        "digest": out_digest,
        "shape": shape,
        "reps": len(calls),
        "run_s": [c["run"].wall_s for c in calls],
        "run_cpu_s": [c["run"].cpu_s for c in calls],
        "events_per_wall_s": result.events / statistics.fmean(c["run"].wall_s for c in calls),
        "recovery_s": statistics.fmean(c["recovery"].wall_s for c in calls),
        "recovery_cpu_s": statistics.fmean(c["recovery"].cpu_s for c in calls),
        "user_days_per_s": result.user_days_streamed / run_cpu,
        "interrupt_ratio": _ratio(result.rollup),
        "operations": {
            "users_streamed": len(specs) * len(calls),
            "wal_records_written": written,
            "wal_records_recovered": recovered,
        },
        # Alerts on a clean cohort are false alerts (see the README's
        # known defects); they are reported, not hidden.
        "monitor_alerts": len(alerts),
        "monitor_alert_kinds": sorted({a["kind"] for a in alerts}),
    })
    for c in calls:
        check(c["replayed"] == c["wal_records"],
              f"recovery replayed {c['replayed']} of {c['wal_records']} WAL records")
        check(c["recovered_done"] == len(specs),
              f"recovery found {c['recovered_done']} of {len(specs)} users done")
        check(c["alerts"] == alerts, "repeated calls published different alerts")
    # The sharded fleet publishes what the plain fleet publishes, in order.
    sink = RingAlertSink(capacity=1024)
    FleetService(config).run(specs, jobs=1, monitor=MonitorHub([sink]))
    check(_alert_docs(sink) == alerts,
          "sharded alerts differ from the plain monitored fleet's")
    # With no feedback the monitor is a no-op, alerts or not: summaries
    # and rollup equal the plain, unmonitored fleet's.
    plain = FleetService(plain_config).run(specs, jobs=1)
    check(json.dumps(fleet_doc(plain)) == json.dumps(fleet_doc(result)),
          "sharded summaries/rollup differ from the plain fleet")


def _end_to_end(run: Run, *, events: int, cpu_s: float, rss: float,
                energy: float, naive_total: float, setup_s: float) -> None:
    run.metric("events_per_s", events * run.host_slowdown("run") / cpu_s, "events/s")
    run.metric("saving_frac", 1.0 - energy / naive_total, "fraction")
    run.metric("peak_rss_mib", rss, "MiB")
    run.metric("setup_s", (run.import_s + setup_s) / run.host_slowdown("setup"), "s")


def _ratio(rollup) -> float:
    return rollup.interrupts / rollup.user_interactions if rollup.user_interactions else 0.0
