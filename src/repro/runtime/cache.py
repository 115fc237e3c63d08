"""Content-addressed trace cache: never simulate the same cohort twice.

Cohort generation is the single hottest shared step of the evaluation
pipeline — every ``fig*`` driver and every benchmark module rebuilds
byte-identical synthetic traces from the same ``(profiles, seed, n_days,
start_weekday)`` tuple.  This module keys each generated cohort by a
stable SHA-256 digest of that tuple's full content (including every
persona parameter and app-model field, so custom profiles are cached
correctly and config changes can never alias) and serves repeats from
an in-process LRU of recently generated cohorts.

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
import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.telemetry import metrics
from repro.traces.events import Trace
from repro.traces.users import UserProfile

#: Default size of the in-process LRU (whole cohorts, not traces).
DEFAULT_MAX_ENTRIES = 32


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def _array_token(arr: np.ndarray) -> str:
    """Exact, stable token for a float array (byte-level, not repr)."""
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes().hex()


def _profile_payload(profile: UserProfile) -> dict:
    """Canonical JSON-able content of one persona, catalog included."""
    return {
        "user_id": profile.user_id,
        "weekday_intensity": _array_token(profile.weekday_intensity),
        "weekend_intensity": _array_token(profile.weekend_intensity),
        "session_median_s": profile.session_median_s,
        "session_sigma": profile.session_sigma,
        "fg_utilization": profile.fg_utilization,
        "day_jitter": profile.day_jitter,
        "day_shift_sigma_h": profile.day_shift_sigma_h,
        "bg_scale": profile.bg_scale,
        "catalog": [
            {
                "name": app.name,
                "foreground_weight": app.foreground_weight,
                "fg_net_prob": app.fg_net_prob,
                "fg_rate_median_bps": app.fg_rate_median_bps,
                "fg_rate_sigma": app.fg_rate_sigma,
                "fg_rate_cap_bps": app.fg_rate_cap_bps,
                "background_interval_s": app.background_interval_s,
                "bg_rate_median_bps": app.bg_rate_median_bps,
                "bg_rate_sigma": app.bg_rate_sigma,
                "bg_duration_mean_s": app.bg_duration_mean_s,
                "upload_fraction": app.upload_fraction,
            }
            for app in profile.catalog
        ],
    }


def cohort_cache_key(
    profiles: list[UserProfile],
    seed: int,
    n_days: int,
    start_weekday: int,
) -> str | None:
    """SHA-256 digest of everything that determines a generated cohort.

    Returns ``None`` when the inputs are not digestible (a non-integer
    seed, e.g. a live :class:`numpy.random.Generator`) — callers then
    bypass the cache rather than risk a wrong hit.
    """
    if not isinstance(seed, (int, np.integer)):
        return None
    payload = {
        "generator": "repro.traces.generator",
        "seed": int(seed),
        "n_days": int(n_days),
        "start_weekday": int(start_weekday),
        "profiles": [_profile_payload(p) for p in profiles],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    """In-process LRU of generated cohorts."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")
        self._memory: OrderedDict[str, list[Trace]] = OrderedDict()

    # -- lookup/store --------------------------------------------------
    def lookup(self, key: str) -> list[Trace] | None:
        """Fetch a cohort by digest."""
        if not self.enabled:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            metrics().inc("runtime.cache.hits")
            return _copy_cohort(cached)
        return None

    def put(self, key: str, traces: list[Trace]) -> None:
        """Store a cohort under its digest."""
        if not self.enabled:
            return
        self._memory_put(key, _copy_cohort(traces))

    def get_or_generate(
        self, key: str, factory: Callable[[], list[Trace]]
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

    # -- memory LRU ----------------------------------------------------
    def _memory_put(self, key: str, traces: list[Trace]) -> None:
        self._memory[key] = traces
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1


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


def configure_cache(
    *, enabled: bool | None = None, max_entries: int | None = None
) -> TraceCache:
    """Adjust the default cache in place; returns it."""
    cache = default_cache()
    if enabled is not None:
        cache.enabled = enabled
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        cache.max_entries = max_entries
        while len(cache._memory) > cache.max_entries:
            cache._memory.popitem(last=False)
            cache.stats.evictions += 1
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
