"""The metric catalogue, and the timing of untraced and traced calls.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; the
self-test keeps the two in step.  Every workload prints every metric:
a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from perfbench import tracing
from perfbench.common import Run, check, digest, repeat_for
from repro.service.loadgen import percentile
from repro.telemetry import metrics

#: (name, unit, better) of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("events_per_s", "events/s", "higher"),
    ("saving_frac", "fraction", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Layers whose span self time is reported as ``<layer>.self_s``.
SELF_TIMED = (
    "stream.drive", "stream.observe", "stream.checkpoint", "stream.state_dict",
    "habits.to_model", "habits.fit", "core.adopt_model", "core.execute_day",
    "core.plan", "core.solve", "pricing", "baselines.execute", "monitor.feed",
    "wal.append", "wal.compact", "wal.recover",
    "service.read_request", "service.parse", "service.render",
    "service.dispatch", "service.gateway", "service.reads",
)

#: Layers whose span count is reported as ``<layer>.calls``.
COUNTED = (
    "stream.observe", "stream.checkpoint", "core.execute_day", "core.solve",
    "pricing", "monitor.feed", "wal.append", "wal.compact",
)

#: (name, unit, better) of the metrics printed with ``--trace 1``.
PER_LAYER = (
    tuple((f"{layer}.calls", "count", "lower") for layer in COUNTED)
    + tuple((f"{layer}.self_s", "s", "lower") for layer in SELF_TIMED)
    + (
        ("stream.checkpoint.bytes", "bytes", "lower"),
        ("core.solve.memo_hit_ratio", "fraction", "higher"),
        ("core.solve.dp_cells", "count", "lower"),
        ("pricing.days_per_call", "days", "higher"),
        ("monitor.alerts", "count", "lower"),
        ("wal.append.bytes", "bytes", "lower"),
        ("wal.replayed_records", "count", "lower"),
        ("service.queue_wait_p99_ms", "ms", "lower"),
        ("service.queue_depth_max", "count", "lower"),
        ("service.gen_lag_p99_ms", "ms", "lower"),
        ("other.self_s", "s", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
    )
)

def per_layer_metrics(
    summary: dict,
    *,
    counters: dict,
    other_s: float,
    traced_s: float,
    untraced_s: float,
    setup: dict,
    gen_lag_p99_ms: float = 0.0,
) -> dict:
    """Assemble every ``PER_LAYER`` value from one traced run.

    ``summary`` is :meth:`perfbench.tracing.Recorder.summary` output;
    ``counters`` are the telemetry-registry counter deltas over the
    traced call; ``other_s`` is the traced time no span covers (wall
    time in-process, CPU time in the server).  ``habits.fit.self_s``
    is read from the traced set-up (``setup``), where models are fitted.
    """
    totals = summary["totals"]
    counts = summary["counts"]
    out: dict[str, float] = {}
    for layer in COUNTED:
        out[f"{layer}.calls"] = totals.get(layer, [0, 0.0])[0]
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = totals.get(layer, [0, 0.0])[1]
    lookups = counts.get("core.solve.memo_lookups", 0)
    pricing_calls = totals.get("pricing", [0, 0.0])[0]
    waits = summary["samples"].get("service.queue_wait_s", [])
    out["habits.fit.self_s"] += setup["totals"].get("habits.fit", [0, 0.0])[1]
    out.update({
        "stream.checkpoint.bytes": counts.get("stream.checkpoint.bytes", 0),
        "core.solve.memo_hit_ratio": (
            counters.get("solver.memo_hits", 0) / lookups if lookups else 0.0
        ),
        "core.solve.dp_cells": counters.get("solver.dp_cells", 0),
        "pricing.days_per_call": (
            counts.get("pricing.days", 0) / pricing_calls if pricing_calls else 0.0
        ),
        "monitor.alerts": counters.get("monitor.alerts", 0),
        "wal.append.bytes": counts.get("wal.append.bytes", 0),
        "wal.replayed_records": counts.get("wal.replayed_records", 0),
        "service.queue_wait_p99_ms": percentile(sorted(waits), 0.99) * 1e3,
        "service.queue_depth_max": counts.get("service.queue_depth_max", 0),
        "service.gen_lag_p99_ms": gen_lag_p99_ms,
        "other.self_s": other_s,
        "trace_overhead_frac": (
            traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        ),
    })
    return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def counter_deltas(before: dict, after: dict) -> dict:
    """Counter increments between two registry snapshots."""
    old = before.get("counters", {})
    return {
        name: value - old.get(name, 0)
        for name, value in after.get("counters", {}).items()
    }


def measure(run: Run, once, outputs):
    """Time ``once()`` -> ``(Times, result)`` untraced or traced.

    Untraced: repeat for ``run.seconds`` and require every repetition
    to produce the same outputs.  Traced: one untraced call, then the
    same call with every layer wrapped; the outputs must not change,
    and the per-layer metrics become the run's metrics.  Returns the
    calls' times, the last result and the output digest.
    """
    if not run.trace:
        return repeat_for(run, once, outputs)
    once()  # warm-up, so the untraced and traced calls start alike
    untraced, plain = once()
    untraced_digest = digest(outputs(plain))
    plain = None
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    before = metrics().snapshot()
    try:
        traced, result = once()
    finally:
        undo()
    counters = counter_deltas(before, metrics().snapshot())
    traced_digest = digest(outputs(result))
    check(traced_digest == untraced_digest, "tracing changed the outputs")
    # Spans are wall-clock, so the traced figures are too.
    run.metrics = per_layer_metrics(
        rec.summary(), counters=counters, other_s=traced.wall_s - rec.root_s,
        traced_s=traced.wall_s, untraced_s=untraced.wall_s,
        setup=run.setup_recorder.summary(),
    )
    rec.write(run.spans_path())
    run.detail["untraced_digest"] = untraced_digest
    return [untraced, traced], result, traced_digest
