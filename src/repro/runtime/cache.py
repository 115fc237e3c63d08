"""In-process trace cache: never simulate the same cohort twice.

Cohort generation is the single hottest shared step of the evaluation
pipeline — every ``fig*`` driver and every benchmark module rebuilds
byte-identical synthetic traces from the same built-in persona set and
integer ``(seed, n_days, start_weekday)``.  This module keys each
generated cohort by that tuple, ``(persona_set, seed, n_days,
start_weekday)``, and serves repeats from an in-process LRU of recently
generated cohorts.

Cache hits return *independent* :class:`~repro.traces.events.Trace`
objects: event lists are fresh, so a caller mutating its cohort cannot
poison later hits (the event records themselves are frozen dataclasses
and safely shared).  Because generation is fully deterministic, a hit is
bit-identical to a regeneration; the cache is therefore enabled by
default and :func:`cache_stats` exposes hit/miss counters for
observability.

``REPRO_TRACE_CACHE=0`` (read when the default cache is first created)
disables caching entirely.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry import metrics
from repro.traces.events import Trace

#: Size of the in-process LRU (whole cohorts, not traces).
MAX_ENTRIES = 32

#: What a cohort is cached under: ``(persona_set, seed, n_days,
#: start_weekday)``, the integers as plain ``int``.
CohortKey = tuple[str, int, int, int]


# ----------------------------------------------------------------------
# independent-copy construction
# ----------------------------------------------------------------------


def _copy_trace(trace: Trace) -> Trace:
    """An independent view of a cached trace.

    Event records are frozen dataclasses and safely shared; only the
    containing lists must be fresh so callers can append/remove without
    poisoning the cache.  ``copy.copy`` skips ``__post_init__`` so the
    already-validated, already-sorted structure is not re-checked.
    """
    dup = copy.copy(trace)
    dup.screen_sessions = list(trace.screen_sessions)
    dup.usages = list(trace.usages)
    dup.activities = list(trace.activities)
    return dup


def _copy_cohort(traces: list[Trace]) -> list[Trace]:
    return [_copy_trace(t) for t in traces]


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters exposed through :func:`cache_stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (JSON-friendly)."""
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


@dataclass
class TraceCache:
    """In-process LRU of generated cohorts (at most :data:`MAX_ENTRIES`)."""

    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._memory: OrderedDict[CohortKey, list[Trace]] = OrderedDict()

    # -- lookup/store --------------------------------------------------
    def lookup(self, key: CohortKey) -> list[Trace] | None:
        """Fetch a cohort by key."""
        if not self.enabled:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            metrics().inc("runtime.cache.hits")
            return _copy_cohort(cached)
        return None

    def put(self, key: CohortKey, traces: list[Trace]) -> None:
        """Store a cohort under its key, evicting the least recent."""
        if not self.enabled:
            return
        self._memory[key] = _copy_cohort(traces)
        self._memory.move_to_end(key)
        while len(self._memory) > MAX_ENTRIES:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def get_or_generate(
        self, key: CohortKey, factory: Callable[[], list[Trace]]
    ) -> list[Trace]:
        """The main entry: serve ``key`` from cache or build and store."""
        cached = self.lookup(key)
        if cached is not None:
            return cached
        self.stats.misses += 1
        metrics().inc("runtime.cache.misses")
        traces = factory()
        self.put(key, traces)
        return traces

    def clear(self) -> None:
        """Drop every cached cohort."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


# ----------------------------------------------------------------------
# module-level default cache
# ----------------------------------------------------------------------

_default_cache: TraceCache | None = None


def default_cache() -> TraceCache:
    """The process-wide cache used by ``generate_cohort``.

    Created lazily; honours ``REPRO_TRACE_CACHE`` (``"0"`` disables).
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = TraceCache(
            enabled=os.environ.get("REPRO_TRACE_CACHE", "1") != "0"
        )
    return _default_cache


def configure_cache(*, enabled: bool) -> TraceCache:
    """Switch the default cache on or off in place; returns it."""
    cache = default_cache()
    cache.enabled = enabled
    return cache


def cache_stats() -> dict[str, int]:
    """Hit/miss counters of the default cache (plus current size)."""
    cache = default_cache()
    out = cache.stats.as_dict()
    out["entries"] = len(cache)
    return out


def clear_cache() -> None:
    """Empty the default cache."""
    default_cache().clear()
