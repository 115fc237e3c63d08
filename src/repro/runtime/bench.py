"""Perf benchmark harness: the numbers behind ``BENCH_perf.json``.

Times the hot paths the runtime layer optimizes — one section per
optimization tier — and writes a JSON report so subsequent PRs can track
the perf trajectory:

* **cohort generation** — cold (cache cleared) vs warm (in-process LRU
  hit) for the paper's 8-user cohort;
* **policy sweep** — a Fig. 7-style (user × policy) grid at 1 and N
  workers with chunked dispatch, plus a cross-check that every worker
  count produces identical energy totals.  ``parallel_regression``
  flags runs where the workers lost to the serial loop on a multi-core
  host; with ``cpu_count == 1`` the pool cannot win, so losing there is
  recorded (with ``cpu_count``) but never flagged.  ``task_mib`` and
  ``result_mib`` are the pickled sizes of the tasks a pool run ships
  out and of the day outcomes it ships back (pricing stays in the
  parent), measured outside the timed runs;
* **grid throughput** — the headline: the whole sweep grid priced in
  one lane-engine batch
  (:func:`repro.core.batch.measure_outcomes_columnar`) vs one cell per
  call (``measure_outcome``), with a bit-identity cross-check;
  ``grid_user_days_per_s`` is the number the perf trajectory tracks;
* **FPTAS batch** — the per-slot solver tier: scalar-loop vs batched
  kernel vs memo-warm batched kernel on identical random instances;
* **replay kernel** — the vectorized RRC interval engine
  (:func:`repro.radio.simulate`) on synthetic window lists;
* **stream** — the online engine end to end: a fleet of personas
  streamed through :class:`~repro.stream.fleet.FleetService`
  (incremental mining, causal execution, checkpoint round-trips),
  headline ``stream_events_per_s``;
* **monitor** — the anomaly monitor attached to that same fleet: clean
  (alert-free) stream CPU time vs the plain path
  (``overhead_frac``, budgeted at 10% under ``--compare``) and alert
  throughput on a seeded anomalous cohort (``alerts_per_s``);
* **shard recovery** — the durable sharded fleet: sustained WAL-logged
  throughput (``durable_events_per_s``) and crash-recovery replay time
  at growing WAL lengths (``recovery_points``);
* **service load** — the HTTP control plane (:mod:`repro.service`)
  under concurrent clients over real sockets: sustained ingest
  (``service_events_per_s``) plus p50/p95/p99 request latency.

Run it directly::

    python -m repro.runtime.bench --jobs 2 --out BENCH_perf.json
    python -m repro.runtime.bench --quick --check   # CI smoke mode
    python -m repro.runtime.bench --quick --compare BENCH_perf.json

``--check`` exits non-zero unless the warm-cache cohort path beat the
cold path; ``--compare`` exits non-zero on a >2x regression in solver
throughput or warm-cohort time versus a committed report.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.baselines import (
    DelayBatchPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
)
from repro.core.knapsack import SolutionMemo, knapsack_fptas, knapsack_fptas_batch
from repro.core.netmaster import NetMasterConfig
from repro.evaluation.experiments import split_history
from repro.radio import simulate
from repro.radio.power import wcdma_model
from repro.runtime.cache import cache_stats, clear_cache, default_cache
from repro.runtime.parallel import PolicyTask, execute_policy_tasks, run_policy_tasks
from repro.traces.generator import generate_cohort


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _pickled_mib(obj: object) -> float:
    return len(pickle.dumps(obj)) / 2**20


# ----------------------------------------------------------------------
# individual benchmarks
# ----------------------------------------------------------------------


#: LRU hits :func:`bench_cohort` takes ``warm_s`` as the fastest of.  One
#: hit takes a few milliseconds and single hits spread by about 2× on a
#: loaded host, so the fastest of only a handful flakes against the
#: ``--compare`` gate.  A contention burst that outlasts every hit still
#: slows the fastest one.
WARM_HITS = 20

#: Plain/monitored run pairs :func:`bench_monitor` takes the median of.
MONITOR_PAIRS = 5

#: Recovery passes :func:`bench_shard_recovery` times each point as the
#: fastest of.  A quick-mode point replays 8 records in about 4 ms, so
#: one scheduler hiccup can halve a single pass's rate.
RECOVERY_PASSES = 10


def bench_cohort(n_days: int = 21, seed: int = 2014) -> dict:
    """Cold vs warm cohort generation through the in-process cache."""
    cache = default_cache()
    was_enabled = cache.enabled
    cache.enabled = True
    clear_cache()
    try:
        cold_s, cohort = _timed(lambda: generate_cohort(n_days, seed=seed))
        warm_times = []
        for _ in range(WARM_HITS):
            warm_s, again = _timed(lambda: generate_cohort(n_days, seed=seed))
            warm_times.append(warm_s)
        warm_s = min(warm_times)
        assert [t.user_id for t in again] == [t.user_id for t in cohort]
        return {
            "n_days": n_days,
            "n_users": len(cohort),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "cache": cache_stats(),
        }
    finally:
        cache.enabled = was_enabled


def _sweep_tasks(
    n_days: int, n_history_days: int, seed: int
) -> list[PolicyTask]:
    """The Fig. 7-style (user × policy) profiling grid: 8 users × 6 policies."""
    model = wcdma_model()
    cohort = generate_cohort(n_days, seed=seed)
    tasks = []
    for trace in cohort:
        history, test_days = split_history(trace, n_history_days)
        for name, policy in (
            ("baseline", NaivePolicy()),
            ("oracle", OraclePolicy()),
            ("netmaster", NetMasterPolicy(history, NetMasterConfig())),
            ("delay-batch-10s", DelayBatchPolicy(10.0)),
            ("delay-batch-20s", DelayBatchPolicy(20.0)),
            ("delay-batch-60s", DelayBatchPolicy(60.0)),
        ):
            tasks.append(
                PolicyTask(name=name, policy=policy, days=tuple(test_days), model=model)
            )
    return tasks


def bench_policy_sweep(
    jobs: int = 2,
    n_days: int = 28,
    n_history_days: int = 14,
    seed: int = 7,
) -> dict:
    """A Fig. 7-style (user × policy) grid at 1 and ``jobs`` workers.

    Uses the 8-user profiling cohort over ``n_days`` so the grid is wide
    enough (8 users × 6 policies) for the pool to matter.  Asserts the
    parallel energy totals match the serial ones exactly before
    reporting the speedup.
    """
    tasks = _sweep_tasks(n_days, n_history_days, seed)

    def total_energy(grid) -> list[float]:
        return [sum(m.energy_j for m in metrics) for metrics in grid]

    serial_s, serial_grid = _timed(lambda: run_policy_tasks(tasks, jobs=1))
    parallel_s, parallel_grid = _timed(lambda: run_policy_tasks(tasks, jobs=jobs))
    serial_energy = total_energy(serial_grid)
    parallel_energy = total_energy(parallel_grid)
    if serial_energy != parallel_energy:
        raise AssertionError(
            "parallel policy sweep diverged from the serial sweep "
            f"(jobs={jobs}); determinism contract broken"
        )
    # What a pool run pickles, measured outside the timed runs: the
    # tasks go out, their raw day outcomes come back, and all pricing
    # stays in the parent.
    task_mib = _pickled_mib(tasks)
    result_mib = _pickled_mib(execute_policy_tasks(tasks, jobs=1))
    cpu_count = os.cpu_count() or 1
    # On a single-core host the pool cannot win; losing there is the
    # expected outcome, not a regression.
    regression = parallel_s > serial_s and cpu_count > 1
    if regression:
        print(
            f"WARNING: parallel sweep regression — jobs={jobs} took "
            f"{parallel_s:.3f}s vs {serial_s:.3f}s serial "
            f"(cpu_count={cpu_count}); the pool pickles {task_mib:.2f} MiB "
            f"of tasks out and {result_mib:.2f} MiB of outcomes back, "
            "and pricing runs in the parent",
            file=sys.stderr,
        )
    return {
        "n_tasks": len(tasks),
        "n_users": len({task.days[0].user_id for task in tasks}),
        "n_days": n_days,
        "user_days": sum(len(task.days) for task in tasks),
        "jobs": jobs,
        "cpu_count": cpu_count,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "parallel_regression": regression,
        "identical_results": True,
        "task_mib": task_mib,
        "result_mib": result_mib,
    }


def bench_grid_throughput(
    n_days: int = 28,
    n_history_days: int = 14,
    seed: int = 7,
    repeats: int = 3,
) -> dict:
    """Grid pricing in one batch vs one cell per call.

    Executes the profiling sweep grid once (policy execution is shared
    work either way), then times pricing every (outcome, day) cell — one
    :func:`~repro.evaluation.metrics.measure_outcome` call per cell
    (``per_lane_s``) against one
    :func:`~repro.core.batch.measure_outcomes_columnar` pass over all of
    them (``columnar_s``) — and asserts both produce identical metrics
    before reporting, which pins cross-lane independence.  Each is timed
    ``repeats`` times and the best run is kept (the standard
    microbenchmark guard against scheduler/GC noise).
    ``grid_user_days_per_s`` (batched cells priced per second) is the
    headline throughput number the perf trajectory tracks.
    """
    from repro.core.batch import measure_outcomes_columnar
    from repro.evaluation.metrics import measure_outcome

    tasks = _sweep_tasks(n_days, n_history_days, seed)
    outcomes = execute_policy_tasks(tasks, jobs=1)
    cells = [
        (outcome, day)
        for task, outs in zip(tasks, outcomes)
        for day, outcome in zip(task.days, outs)
    ]
    model = tasks[0].model

    per_lane_s, per_lane = _timed(
        lambda: [measure_outcome(o, model, day) for o, day in cells]
    )
    columnar_s, columnar = _timed(
        lambda: measure_outcomes_columnar(cells, model)
    )
    for _ in range(max(0, repeats - 1)):
        t, _r = _timed(
            lambda: [measure_outcome(o, model, day) for o, day in cells]
        )
        per_lane_s = min(per_lane_s, t)
        t, _r = _timed(lambda: measure_outcomes_columnar(cells, model))
        columnar_s = min(columnar_s, t)
    if columnar != per_lane:
        raise AssertionError(
            "batched grid pricing diverged from one cell per call; "
            "bit-identity contract broken"
        )
    n_user_days = len(cells)
    return {
        "n_tasks": len(tasks),
        "n_user_days": n_user_days,
        "per_lane_s": per_lane_s,
        "columnar_s": columnar_s,
        "grid_user_days_per_s": (
            n_user_days / columnar_s if columnar_s > 0 else float("inf")
        ),
        "columnar_speedup": per_lane_s / columnar_s if columnar_s > 0 else float("inf"),
        "identical_results": True,
    }


def bench_fptas_batch(
    n_solves: int = 40, n_items: int = 120, eps: float = 0.05, seed: int = 11
) -> dict:
    """The per-slot SinKnap solver tier, measured three ways.

    ``solves_per_s`` (the headline trajectory number) times the
    single-solve loop — the same workload every committed
    ``BENCH_perf.json`` measured — now running on the numpy rolling-array
    DP.  ``batch_solves_per_s`` times :func:`knapsack_fptas_batch` on the
    same instances, and ``memo_warm_solves_per_s`` re-runs the batch
    against a warm :class:`SolutionMemo` (the ``solve_overlapped``
    steady state, where repeated slot itemsets skip the DP entirely).
    """
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n_solves):
        profits = rng.uniform(0.5, 50.0, n_items)
        weights = rng.uniform(0.5, 12.0, n_items)
        capacity = float(weights.sum() * 0.35)
        instances.append((profits, weights, capacity))

    def solve_all() -> float:
        return sum(
            knapsack_fptas(p, w, c, eps=eps).profit for p, w, c in instances
        )

    batch_s, total_profit = _timed(solve_all)

    memo = SolutionMemo()
    batched_s, batched = _timed(
        lambda: knapsack_fptas_batch(instances, eps=eps, memo=memo)
    )
    memo_s, memoed = _timed(
        lambda: knapsack_fptas_batch(instances, eps=eps, memo=memo)
    )
    batched_profit = sum(sol.profit for sol in batched)
    if batched_profit != total_profit or batched_profit != sum(
        sol.profit for sol in memoed
    ):
        raise AssertionError(
            "batched/memoized FPTAS diverged from the single-solve loop"
        )

    def rate(elapsed: float) -> float:
        return n_solves / elapsed if elapsed > 0 else float("inf")

    return {
        "n_solves": n_solves,
        "n_items": n_items,
        "eps": eps,
        "batch_s": batch_s,
        "solves_per_s": rate(batch_s),
        "batch_solves_per_s": rate(batched_s),
        "memo_warm_solves_per_s": rate(memo_s),
        "memo_entries": len(memo),
        "total_profit": total_profit,
    }


def bench_replay_kernel(
    n_sims: int = 200, n_windows: int = 400, seed: int = 5
) -> dict:
    """One-lane replays of the RRC engine on synthetic window lists.

    Draws one day of Poisson-ish transfer windows and replays it
    ``n_sims`` times through :func:`repro.radio.simulate`, a one-lane
    call into :mod:`repro.radio.lanes` (the single-segment path).
    """
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, 86_400.0, n_windows))
    durations = rng.uniform(0.5, 30.0, n_windows)
    windows = [(float(s), float(s + d)) for s, d in zip(starts, durations)]
    model = wcdma_model()

    def replay_all() -> float:
        energy = 0.0
        for _ in range(n_sims):
            energy += simulate(windows, model).energy_j
        return energy

    replay_s, total_energy = _timed(replay_all)
    return {
        "n_sims": n_sims,
        "n_windows": n_windows,
        "replay_s": replay_s,
        "sims_per_s": n_sims / replay_s if replay_s > 0 else float("inf"),
        "windows_per_s": (
            n_sims * n_windows / replay_s if replay_s > 0 else float("inf")
        ),
        "total_energy_j": total_energy,
    }


def bench_stream(
    n_users: int = 16,
    n_days: int = 14,
    train_days: int = 10,
    checkpoint_every_days: int = 2,
    seed: int = 2014,
) -> dict:
    """The online streaming engine, end to end, measured as a fleet.

    Streams ``n_users`` synthetic personas through
    :class:`~repro.stream.fleet.FleetService` — incremental habit
    mining, causal day execution, in-line checkpoint round-trips — and
    reports ``stream_events_per_s``, the serving-shaped headline the
    perf trajectory tracks alongside solver throughput.
    """
    # Local import: the stream package pulls the policy stack in.
    from repro.stream.experiment import fleet_specs
    from repro.stream.fleet import FleetConfig, FleetService

    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    config = FleetConfig(
        train_days=train_days, checkpoint_every_days=checkpoint_every_days
    )
    result = FleetService(config).run(specs, jobs=1)
    return {
        "n_users": n_users,
        "n_days": n_days,
        "train_days": train_days,
        "user_days_streamed": result.user_days_streamed,
        "days_executed": result.days_executed,
        "events": result.events,
        "checkpoints": sum(s.checkpoints for s in result.summaries),
        "elapsed_s": result.elapsed_s,
        "stream_events_per_s": result.events_per_s,
    }


def bench_monitor(
    n_users: int = 16,
    n_days: int = 14,
    train_days: int = 10,
    seed: int = 2014,
) -> dict:
    """Monitoring overhead on the stream path, and alert throughput.

    Runs the same clean fleet as :func:`bench_stream` in
    :data:`MONITOR_PAIRS` pairs of runs after a shared warm-up — one
    plain, one with the anomaly monitor attached (zero alerts fire, so
    this prices the detector/signal machinery itself), the order
    alternating from pair to pair.  ``overhead_frac`` is the median
    over pairs of one pair's ``1 − plain/monitored`` process CPU
    seconds (:func:`time.process_time`; the runs are serial, so that is
    all their work): CPU time does not count the stretches a contended
    host spends running other processes, which wall time charges to
    whichever run they land in.  The difference under test is well
    inside run-to-run noise for single runs, and comparing the two runs
    of one pair cancels drift between pairs.  It is the gated headline:
    the monitored path may not trail the plain one by more than 10%
    (full runs).  The two ``*_events_per_s`` are each mode's best run
    in wall time, as their ``--compare`` gates expect.
    An anomalous cohort (stuck-DCH injection on every 4th user) then
    measures the detect→publish cost when alerts actually flow
    (``alerts_per_s``).
    """
    # Local import: the stream package pulls the policy stack in.
    from repro.faults import AnomalyInjector
    from repro.monitor import MonitorConfig, MonitorHub, RingAlertSink
    from repro.stream.experiment import fleet_specs
    from repro.stream.fleet import (
        FleetConfig,
        FleetService,
        _spec_trace,
        stream_one_user_monitored,
    )

    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    plain_config = FleetConfig(train_days=train_days)
    monitored_config = FleetConfig(train_days=train_days, monitor=MonitorConfig())

    def timed_run(config, hub=None) -> tuple[float, float]:
        """One fleet run: wall-clock events/s and process CPU seconds."""
        cpu = time.process_time()
        result = FleetService(config).run(specs, jobs=1, monitor=hub)
        return result.events_per_s, time.process_time() - cpu

    events = FleetService(plain_config).run(specs, jobs=1).events  # warm caches once
    pairs = []
    for i in range(MONITOR_PAIRS):
        hub = MonitorHub([RingAlertSink()])
        # Alternate which mode runs first, so run order favours neither.
        if i % 2:
            monitored = timed_run(monitored_config, hub)
            plain = timed_run(plain_config)
        else:
            plain = timed_run(plain_config)
            monitored = timed_run(monitored_config, hub)
        pairs.append((plain, monitored))
    alerts_clean = hub.published

    injector = AnomalyInjector(seed=seed)
    onset = train_days + 1
    hub = MonitorHub([RingAlertSink()])
    anomalous_events = 0
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        trace = _spec_trace(spec)
        if i % 4 == 0:
            trace = injector.stuck_dch(trace, start_day=onset)
        summary, alerts = stream_one_user_monitored(
            trace, config=monitored_config
        )
        hub.publish_many(alerts)
        anomalous_events += summary.events
    anomalous_s = time.perf_counter() - start

    return {
        "n_users": n_users,
        "n_days": n_days,
        "train_days": train_days,
        "events": events,
        "plain_events_per_s": max(p_eps for (p_eps, _), _ in pairs),
        "monitored_events_per_s": max(m_eps for _, (m_eps, _) in pairs),
        "overhead_frac": float(np.median([
            1.0 - p_cpu / m_cpu if m_cpu else 0.0
            for (_, p_cpu), (_, m_cpu) in pairs
        ])),
        "clean_alerts": alerts_clean,
        "anomalous_users": (n_users + 3) // 4,
        "anomalous_events": anomalous_events,
        "anomalous_elapsed_s": anomalous_s,
        "alerts_published": hub.published,
        "alerts_per_s": hub.published / anomalous_s if anomalous_s > 0 else 0.0,
    }


def bench_shard_recovery(
    n_users: int = 16,
    n_days: int = 14,
    train_days: int = 10,
    n_shards: int = 2,
    checkpoint_every_days: int = 2,
    seed: int = 2014,
) -> dict:
    """The durable sharded fleet: sustained throughput and recovery time.

    Streams the same fleet as :func:`bench_stream` through
    :class:`~repro.stream.shards.ShardedFleetService` — every day close
    a CRC-framed WAL append — and reports the sustained durable
    throughput (``durable_events_per_s``) plus its cost relative to the
    non-durable fleet (``durability_overhead``).  Recovery is then timed
    at growing WAL-prefix lengths (``recovery_points``): each point
    rebuilds shard directories holding that many records and takes the
    fastest of :data:`RECOVERY_PASSES` full
    :meth:`~repro.stream.shards.ShardStore.recover` passes, each over
    fresh stores, giving the replay cost a crashed fleet pays before
    serving resumes.
    """
    # Local import: the stream package pulls the policy stack in.
    from repro.stream.experiment import fleet_specs
    from repro.stream.fleet import FleetConfig
    from repro.stream.shards import (
        ShardConfig,
        ShardedFleetService,
        ShardStore,
        read_wal,
    )

    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    config = FleetConfig(
        train_days=train_days, checkpoint_every_days=checkpoint_every_days
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-shards-") as root:
        root = Path(root)
        # Compaction off: every record stays in generation 0, so the
        # recovery points below sample the worst-case replay cost.
        shards = ShardConfig(
            root=root / "live", n_shards=n_shards, compact_every_records=1_000_000
        )
        service = ShardedFleetService(config, shards=shards)
        result = service.run(specs, jobs=1)
        per_shard = [read_wal(store.wal_path).records for store in service.stores]
        total_records = sum(len(records) for records in per_shard)

        recovery_points = []
        for frac in (0.25, 0.5, 1.0):
            point_root = root / f"recover-{int(frac * 100):03d}"
            count = 0
            for i, records in enumerate(per_shard):
                prefix = records[: round(len(records) * frac)]
                writer = ShardStore(
                    point_root / f"shard-{i:03d}", compact_every_records=1_000_000
                )
                for record in prefix:
                    writer.append(record)
                count += len(prefix)
            passes = []
            for _ in range(RECOVERY_PASSES):
                stores = [
                    ShardStore(point_root / f"shard-{i:03d}") for i in range(n_shards)
                ]
                pass_s, reports = _timed(
                    lambda stores=stores: [store.recover() for store in stores]
                )
                replayed = sum(r.replayed_records for r in reports)
                if replayed != count:
                    raise AssertionError(
                        f"recovery replayed {replayed} records, expected {count}"
                    )
                passes.append(pass_s)
            recovery_s = min(passes)
            recovery_points.append(
                {
                    "wal_records": count,
                    "recovery_s": recovery_s,
                    "records_per_s": count / recovery_s if recovery_s > 0 else float("inf"),
                }
            )

    full = recovery_points[-1]
    return {
        "n_users": n_users,
        "n_days": n_days,
        "train_days": train_days,
        "n_shards": n_shards,
        "events": result.events,
        "wal_records": total_records,
        "wal_appends": sum(store.appends for store in service.stores),
        "elapsed_s": result.elapsed_s,
        "durable_events_per_s": result.events_per_s,
        "recovery_points": recovery_points,
        "full_recovery_s": full["recovery_s"],
        "recovery_records_per_s": full["records_per_s"],
    }


def bench_service_load(
    n_users: int = 8,
    n_days: int = 14,
    train_days: int = 10,
    concurrency: int = 4,
    batch_events: int = 256,
    seed: int = 2014,
) -> dict:
    """The HTTP control plane under concurrent load, over real sockets.

    Starts the :mod:`repro.service` server in-process on an ephemeral
    port and replays a generated cohort through the async load driver
    (:mod:`repro.service.loadgen`): ``concurrency`` keep-alive clients
    pushing event batches, closing streams, and reading decisions and
    savings back.  Headline is ``service_events_per_s`` — sustained
    ingest through parsing, routing, the single-writer queue, and the
    engine — plus p50/p95/p99 request latency.  Any non-200 response
    fails the benchmark: under load the service must shed or serve,
    never error.
    """
    import asyncio

    # Local imports: the service package pulls the stream stack in.
    from repro.service.gateway import FleetGateway
    from repro.service.http import ServiceApp
    from repro.service.loadgen import LoadOptions, run_load
    from repro.stream.fleet import FleetConfig

    config = FleetConfig(
        train_days=train_days,
        netmaster=NetMasterConfig(enable_circuit_breaker=False),
    )

    async def drive() -> dict:
        app = ServiceApp(FleetGateway(config))
        host, port = await app.start("127.0.0.1", 0)
        try:
            return await run_load(
                LoadOptions(
                    host=host,
                    port=port,
                    n_users=n_users,
                    n_days=n_days,
                    seed=seed,
                    concurrency=concurrency,
                    batch_events=batch_events,
                )
            )
        finally:
            await app.shutdown(reason="bench complete")

    report = asyncio.run(drive())
    if report["errors"]:
        raise AssertionError(
            f"service load run saw {report['errors']} non-200 responses"
        )
    report.pop("health", None)
    report["train_days"] = train_days
    return report


def bench_fleet_scale(
    *,
    n_users: int = 12_500,
    n_days: int = 8,
    train_days: int = 7,
    reference_divisor: int = 10,
    n_shards: int = 4,
    batch_size: int = 64,
    seed: int = 2014,
    jobs: int = 1,
) -> dict:
    """Constant-RSS fleet at scale: ≥100k user-days from an iterator.

    Drives ``n_users × n_days`` user-days through
    :class:`~repro.stream.shards.ShardedFleetService` with the whole
    O(active users) pipeline engaged: specs come from the lazy
    :func:`~repro.stream.specgen.iter_fleet_specs` generator (the cohort
    never materializes), summaries fold into the
    :class:`~repro.stream.rollup.FleetRollup` instead of accumulating
    (``retain_summaries=False``), full summary docs spill to JSONL, and
    done users are evicted from the shard stores.  Peak RSS is read off
    ``resource.getrusage`` (sampled at every batch boundary into the
    ``fleet.peak_rss_bytes`` gauge by the service itself).

    The headline is ``rss_flatness_ratio``: peak RSS after the full
    cohort over peak RSS after a ``n_users / reference_divisor``
    reference cohort.  ``ru_maxrss`` is monotonic over the process
    lifetime, so the *smaller* cohort must run first — and for the same
    reason this benchmark does NOT run inside :func:`run_bench`, where
    earlier benchmarks' allocations would mask the fleet's own
    footprint.  It runs standalone via ``python -m repro fleet-scale``,
    which merges the section into an existing ``BENCH_perf.json``.
    """
    # Local import: the stream package pulls the policy stack in.
    from repro._util import peak_rss_bytes
    from repro.stream.fleet import FleetConfig
    from repro.stream.shards import ShardConfig, ShardedFleetService
    from repro.stream.specgen import iter_fleet_specs

    if n_users < reference_divisor:
        raise ValueError(
            f"n_users must be >= reference_divisor, got {n_users} < {reference_divisor}"
        )
    reference_users = n_users // reference_divisor
    config = FleetConfig(
        train_days=train_days,
        batch_size=batch_size,
        retain_summaries=False,
    )

    def run_cohort(root: Path, users: int, spill: Path | None):
        cohort_config = (
            config
            if spill is None
            else FleetConfig(
                train_days=train_days,
                batch_size=batch_size,
                retain_summaries=False,
                summary_spill=spill,
            )
        )
        # Compaction off: rewriting every resident user per 64 appends is
        # an O(users²) term the scale run cannot afford (the recovery
        # bench samples compaction separately).
        shards = ShardConfig(
            root=root, n_shards=n_shards, compact_every_records=1_000_000_000
        )
        service = ShardedFleetService(cohort_config, shards=shards)
        return service.run(
            iter_fleet_specs(seed=seed, n_users=users, n_days=n_days), jobs=jobs
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        tmp = Path(tmp)
        # Reference cohort FIRST: ru_maxrss only ever ratchets up, so
        # running it after the full cohort would measure nothing.
        reference = run_cohort(tmp / "reference", reference_users, None)
        reference_rss = peak_rss_bytes()
        result = run_cohort(
            tmp / "full", n_users, tmp / "full" / "summaries.jsonl"
        )
        peak_rss = peak_rss_bytes()
        spilled = result.rollup.spilled

    if result.users != n_users:
        raise AssertionError(
            f"fleet-scale streamed {result.users} users, expected {n_users}"
        )
    if spilled != n_users:
        raise AssertionError(
            f"fleet-scale spilled {spilled} summaries, expected {n_users}"
        )
    flatness = (
        peak_rss / reference_rss
        if peak_rss is not None and reference_rss
        else None
    )
    user_days = result.user_days_streamed
    return {
        "n_users": n_users,
        "reference_users": reference_users,
        "n_days": n_days,
        "train_days": train_days,
        "n_shards": n_shards,
        "batch_size": batch_size,
        "jobs": jobs,
        "spec_source": "iterator",
        "user_days": user_days,
        "days_executed": result.days_executed,
        "events": result.events,
        "summaries_spilled": spilled,
        "elapsed_s": result.elapsed_s,
        "events_per_s": result.events_per_s,
        "user_days_per_s": (
            user_days / result.elapsed_s if result.elapsed_s > 0 else float("inf")
        ),
        "reference_events": reference.events,
        "reference_peak_rss_bytes": reference_rss,
        "peak_rss_bytes": peak_rss,
        "rss_flatness_ratio": flatness,
    }


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------


def run_bench(
    out_path: str | Path | None = "BENCH_perf.json",
    *,
    jobs: int = 2,
    quick: bool = False,
) -> dict:
    """Run every perf benchmark and (optionally) merge it into ``BENCH_perf.json``.

    ``quick`` shrinks the workloads for CI smoke runs; the structure of
    the report is identical so trend tooling can read both.
    """
    if quick:
        cohort = bench_cohort(n_days=7)
        sweep = bench_policy_sweep(jobs=jobs, n_days=14, n_history_days=10)
        grid = bench_grid_throughput(n_days=14, n_history_days=10)
        fptas = bench_fptas_batch(n_solves=10, n_items=60)
        replay = bench_replay_kernel(n_sims=50, n_windows=200)
        stream = bench_stream(
            n_users=4, n_days=9, train_days=7, checkpoint_every_days=1
        )
        monitor = bench_monitor(n_users=4, n_days=9, train_days=7)
        shard_recovery = bench_shard_recovery(
            n_users=4, n_days=9, train_days=7, checkpoint_every_days=1
        )
        service_load = bench_service_load(
            n_users=4, n_days=9, train_days=7, concurrency=3
        )
    else:
        cohort = bench_cohort()
        sweep = bench_policy_sweep(jobs=jobs)
        grid = bench_grid_throughput()
        fptas = bench_fptas_batch()
        replay = bench_replay_kernel()
        stream = bench_stream()
        monitor = bench_monitor()
        shard_recovery = bench_shard_recovery()
        service_load = bench_service_load()
    report = {
        "schema": 1,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cohort_generation": cohort,
        "policy_sweep": sweep,
        "grid_throughput": grid,
        "fptas_batch": fptas,
        "replay_kernel": replay,
        "stream": stream,
        "monitor": monitor,
        "shard_recovery": shard_recovery,
        "service_load": service_load,
    }
    if out_path is not None:
        merge_report(out_path, report)
    return report


#: The ``--compare`` gates: (section, metric, better direction, value
#: format).  A metric fails when it moves the wrong way by more than
#: the comparison factor.
COMPARE_GATES = (
    ("grid_throughput", "grid_user_days_per_s", "higher", "{:.0f}/s"),
    ("fptas_batch", "solves_per_s", "higher", "{:.1f}/s"),
    ("cohort_generation", "warm_s", "lower", "{:.4f}s"),
    ("stream", "stream_events_per_s", "higher", "{:.0f}/s"),
    ("service_load", "service_events_per_s", "higher", "{:.0f}/s"),
    ("monitor", "monitored_events_per_s", "higher", "{:.0f}/s"),
    ("shard_recovery", "durable_events_per_s", "higher", "{:.0f}/s"),
    ("shard_recovery", "recovery_records_per_s", "higher", "{:.0f}/s"),
    ("fleet_scale", "events_per_s", "higher", "{:.0f}/s"),
)


def compare_reports(fresh: dict, baseline: dict, *, factor: float = 2.0) -> list[str]:
    """Regressions of ``fresh`` vs a committed ``baseline`` report.

    Returns human-readable failure strings for every
    :data:`COMPARE_GATES` metric that regressed by more than ``factor``
    — the headline is grid pricing throughput
    (``grid_throughput.grid_user_days_per_s``) — plus the monitor's
    absolute overhead bound.  Workload sizes may differ between quick
    and full reports, which only makes the check lenient (smaller
    instances run faster), never flaky.  Sections the baseline predates
    are skipped — an old report is "no baseline, record only", never a
    failure.
    """
    failures = []
    for section, metric, better, fmt in COMPARE_GATES:
        if baseline.get(section) is None or section not in fresh:
            continue
        new = fresh[section][metric]
        old = baseline[section][metric]
        regressed = new > old * factor if better == "lower" else new < old / factor
        if regressed:
            failures.append(
                f"{section}.{metric} regressed >{factor:g}x: "
                f"{fmt.format(new)} vs committed {fmt.format(old)}"
            )
    if baseline.get("monitor") is not None and "monitor" in fresh:
        # Absolute bound, not baseline-relative: attaching the monitor
        # may cost at most 10% of stream throughput (quick runs are
        # noisy at their tiny size, so they get slack).
        bound = 0.25 if fresh.get("quick") else 0.10
        fresh_overhead = fresh["monitor"]["overhead_frac"]
        if fresh_overhead > bound:
            failures.append(
                f"monitor.overhead_frac exceeds the {bound:.0%} stream-path "
                f"budget: {fresh_overhead:.3f}"
            )
    return failures


def merge_report(path: str | Path, sections: dict) -> dict:
    """Read-merge-write ``sections`` into the JSON report at ``path``.

    Every writer of ``BENCH_perf.json`` goes through here, so one
    writer never drops the sections another wrote (``run_bench`` keeps
    ``fleet-scale``'s, and the reverse).  A missing file starts from a
    bare schema-1 report.  Returns the merged report.
    """
    path = Path(path)
    report = json.loads(path.read_text()) if path.exists() else {"schema": 1}
    report.update(sections)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def fleet_scale_main(argv: list[str] | None = None) -> int:
    """CLI behind ``python -m repro fleet-scale``.

    Runs :func:`bench_fleet_scale` standalone (never inside
    :func:`run_bench`, whose earlier benchmarks would pollute the
    monotonic ``ru_maxrss`` reading) and read-modify-writes the
    ``fleet_scale`` section into an existing ``BENCH_perf.json`` so the
    scale numbers live next to ``shard_recovery``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-scale",
        description="Constant-RSS fleet scale benchmark (iterator-sourced "
        "cohort through the sharded durable fleet).",
    )
    parser.add_argument("--out", default="BENCH_perf.json", help="report path")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke cohort: 250 users x 8 days (2k user-days), "
        "reference cohort at half size",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    parser.add_argument(
        "--users", type=int, default=None, help="override the cohort size"
    )
    parser.add_argument(
        "--days", type=int, default=None, help="override days per user"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the RSS-flatness ratio stays under "
        "--flatness-limit",
    )
    parser.add_argument(
        "--flatness-limit",
        type=float,
        default=1.5,
        metavar="RATIO",
        help="maximum allowed peak-RSS growth for the cohort growth "
        "(default 1.5)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="PATH",
        help="committed BENCH_perf.json to diff against; exit non-zero on "
        "a >2x events/s regression (reports without a fleet_scale section "
        "are record-only, never a failure)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        n_users = args.users if args.users is not None else 250
        reference_divisor = 2
    else:
        n_users = args.users if args.users is not None else 12_500
        reference_divisor = 10
    n_days = args.days if args.days is not None else 8
    section = bench_fleet_scale(
        n_users=n_users,
        n_days=n_days,
        reference_divisor=reference_divisor,
        jobs=args.jobs,
    )
    rss_mb = (section["peak_rss_bytes"] or 0) / 2**20
    ref_mb = (section["reference_peak_rss_bytes"] or 0) / 2**20
    flatness = section["rss_flatness_ratio"]
    print(
        f"fleet scale: {section['n_users']:,} users x {section['n_days']} days "
        f"= {section['user_days']:,} user-days from an iterator source, "
        f"{section['events']:,} events in {section['elapsed_s']:.1f}s "
        f"({section['events_per_s']:,.0f} events/s, "
        f"{section['user_days_per_s']:,.1f} user-days/s)"
    )
    print(
        f"  peak RSS {rss_mb:.1f} MiB vs {ref_mb:.1f} MiB at "
        f"{section['reference_users']:,} users — flatness "
        + (f"{flatness:.3f}x" if flatness is not None else "unavailable")
        + f" for {section['n_users'] // section['reference_users']}x cohort growth; "
        f"{section['summaries_spilled']:,} summaries spilled"
    )

    out = Path(args.out)
    try:
        merge_report(out, {"fleet_scale": section})
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot update report {out}: {exc}", file=sys.stderr)
        return 2
    print(f"fleet_scale section merged into {out}")

    failed = False
    if args.check:
        if flatness is None:
            print(
                "PERF CHECK FAILED: peak RSS unavailable on this platform",
                file=sys.stderr,
            )
            failed = True
        elif flatness > args.flatness_limit:
            print(
                f"PERF CHECK FAILED: RSS flatness {flatness:.3f}x exceeds "
                f"{args.flatness_limit:g}x for "
                f"{section['n_users'] // section['reference_users']}x cohort growth",
                file=sys.stderr,
            )
            failed = True
    if args.compare is not None:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read --compare report {args.compare}: {exc}", file=sys.stderr)
            return 2
        failures = compare_reports(
            {"fleet_scale": section}, baseline
        )
        for failure in failures:
            print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
        if not failures:
            print(f"perf comparison vs {args.compare}: no >2x regressions")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """CLI: run the perf suite, print a summary, write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.bench",
        description="Time the evaluation pipeline's hot paths.",
    )
    parser.add_argument("--out", default="BENCH_perf.json", help="report path")
    parser.add_argument("--jobs", type=int, default=2, help="parallel worker count")
    parser.add_argument(
        "--quick", action="store_true", help="shrink workloads (CI smoke mode)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless warm-cache cohort generation beat cold",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="PATH",
        help="committed BENCH_perf.json to diff against; exit non-zero on "
        "a >2x regression in grid pricing, solver throughput, streaming, "
        "or warm-cohort time",
    )
    args = parser.parse_args(argv)
    report = run_bench(args.out, jobs=args.jobs, quick=args.quick)
    cohort = report["cohort_generation"]
    sweep = report["policy_sweep"]
    fptas = report["fptas_batch"]
    replay = report["replay_kernel"]
    print(
        f"cohort generation: cold {cohort['cold_s']:.3f}s, "
        f"warm {cohort['warm_s']:.4f}s ({cohort['warm_speedup']:.1f}x)"
    )
    print(
        f"policy sweep ({sweep['n_tasks']} tasks): serial {sweep['serial_s']:.3f}s, "
        f"jobs={sweep['jobs']} {sweep['parallel_s']:.3f}s ({sweep['speedup']:.2f}x)"
        + (" [PARALLEL REGRESSION]" if sweep["parallel_regression"] else "")
    )
    grid = report["grid_throughput"]
    print(
        f"grid throughput: {grid['n_user_days']} user-days priced in "
        f"{grid['columnar_s']:.3f}s batched vs {grid['per_lane_s']:.3f}s one cell per call "
        f"({grid['grid_user_days_per_s']:,.0f} user-days/s, "
        f"{grid['columnar_speedup']:.2f}x)"
    )
    print(
        f"fptas batch: {fptas['n_solves']} solves in {fptas['batch_s']:.3f}s "
        f"({fptas['solves_per_s']:.1f}/s single, "
        f"{fptas['batch_solves_per_s']:.1f}/s batched, "
        f"{fptas['memo_warm_solves_per_s']:.1f}/s memo-warm)"
    )
    print(
        f"replay kernel: {replay['n_sims']} sims x {replay['n_windows']} windows "
        f"in {replay['replay_s']:.3f}s ({replay['sims_per_s']:.1f} sims/s)"
    )
    stream = report["stream"]
    print(
        f"stream fleet: {stream['n_users']} users x {stream['n_days']} days, "
        f"{stream['events']} events in {stream['elapsed_s']:.3f}s "
        f"({stream['stream_events_per_s']:,.0f} events/s, "
        f"{stream['checkpoints']} checkpoints)"
    )
    monitor = report["monitor"]
    print(
        f"monitor: plain {monitor['plain_events_per_s']:,.0f} vs monitored "
        f"{monitor['monitored_events_per_s']:,.0f} events/s "
        f"(overhead {monitor['overhead_frac']:+.3f}, "
        f"{monitor['clean_alerts']} clean alerts); anomalous cohort "
        f"{monitor['alerts_published']} alerts "
        f"({monitor['alerts_per_s']:,.1f} alerts/s)"
    )
    shards = report["shard_recovery"]
    print(
        f"shard recovery: {shards['n_users']} users over {shards['n_shards']} shards, "
        f"{shards['wal_records']} WAL records "
        f"({shards['durable_events_per_s']:,.0f} durable events/s); "
        f"full replay {shards['full_recovery_s'] * 1e3:.1f}ms "
        f"({shards['recovery_records_per_s']:,.0f} records/s)"
    )
    service = report["service_load"]
    print(
        f"service load: {service['n_users']} users x {service['concurrency']} "
        f"clients, {service['events']} events over {service['requests']} "
        f"requests ({service['service_events_per_s']:,.0f} events/s; "
        f"p50 {service['latency_p50_s'] * 1e3:.1f}ms, "
        f"p95 {service['latency_p95_s'] * 1e3:.1f}ms, "
        f"p99 {service['latency_p99_s'] * 1e3:.1f}ms)"
    )
    print(f"report written to {args.out}")
    failed = False
    if args.check and cohort["warm_s"] >= cohort["cold_s"]:
        print(
            "PERF CHECK FAILED: warm-cache cohort generation was not faster than cold",
            file=sys.stderr,
        )
        failed = True
    if args.compare is not None:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read --compare report {args.compare}: {exc}", file=sys.stderr)
            return 2
        failures = compare_reports(report, baseline)
        for failure in failures:
            print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
        if not failures:
            print(f"perf comparison vs {args.compare}: no >2x regressions")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
