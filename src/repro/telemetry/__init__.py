"""Telemetry subsystem: metrics registry, span tracer, exports, report.

Process-global state with two independent switches:

* the **metrics registry** (:func:`metrics`) is on by default — counters,
  gauges and fixed-bucket histograms are cheap enough to leave running
  under every figure reproduction.  ``REPRO_TELEMETRY=0`` (or
  :func:`configure(metrics_enabled=False)`) swaps in a
  :class:`~repro.telemetry.registry.NullRegistry` whose methods are
  no-ops, which is the zero-overhead-disabled path;
* the **tracer** (:func:`tracer`) is off by default (a
  :class:`~repro.telemetry.tracer.NullTracer`) because span collection
  is proportional to simulated work; the CLI's ``--telemetry-out DIR``
  (or :func:`configure(tracing_enabled=True)`) turns it on.

Neither switch affects any computed result: instrumentation only ever
*observes*.  Figure outputs are bit-identical with telemetry on or off,
and at fixed seeds the registry contents are themselves deterministic —
which is what lets :func:`repro.runtime.parallel.run_policy_tasks` ship
per-worker registries back and merge them (in task order) into exactly
the registry a serial run would have produced.

:func:`isolated` temporarily installs a fresh enabled registry/tracer
pair — the worker-side capture primitive, also handy in tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    diff_snapshots,
)
from repro.telemetry.tracer import NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "configure",
    "diff_snapshots",
    "isolated",
    "metrics",
    "metrics_enabled",
    "tracer",
    "tracing_enabled",
]


def _default_registry() -> MetricsRegistry:
    if os.environ.get("REPRO_TELEMETRY", "1") == "0":
        return NullRegistry()
    return MetricsRegistry()


_registry: MetricsRegistry = _default_registry()
_tracer: Tracer = NullTracer()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry (possibly a no-op)."""
    return _registry


def tracer() -> Tracer:
    """The process-global tracer (a no-op unless tracing is enabled)."""
    return _tracer


def metrics_enabled() -> bool:
    """Whether the global registry records anything."""
    return _registry.enabled


def tracing_enabled() -> bool:
    """Whether the global tracer records anything."""
    return _tracer.enabled


def configure(
    *,
    metrics_enabled: bool | None = None,
    tracing_enabled: bool | None = None,
) -> tuple[MetricsRegistry, Tracer]:
    """Flip either telemetry switch; returns the (registry, tracer) pair.

    Enabling an already-enabled side keeps its accumulated state;
    disabling swaps in the null implementation (state is dropped).
    """
    global _registry, _tracer
    if metrics_enabled is not None:
        if metrics_enabled and not _registry.enabled:
            _registry = MetricsRegistry()
        elif not metrics_enabled and _registry.enabled:
            _registry = NullRegistry()
    if tracing_enabled is not None:
        if tracing_enabled and not _tracer.enabled:
            _tracer = Tracer()
        elif not tracing_enabled and _tracer.enabled:
            _tracer = NullTracer()
    return _registry, _tracer


@contextmanager
def isolated(
    *, with_tracing: bool = True
) -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """Run a block against a fresh enabled registry/tracer pair.

    The previous globals are restored on exit; the fresh pair is yielded
    so the caller can snapshot what the block recorded.  This is how
    worker processes capture exactly one task's telemetry regardless of
    what a forked parent left in the globals.
    """
    global _registry, _tracer
    prev_registry, prev_tracer = _registry, _tracer
    _registry = MetricsRegistry()
    _tracer = Tracer() if with_tracing else NullTracer()
    try:
        yield _registry, _tracer
    finally:
        _registry, _tracer = prev_registry, prev_tracer
