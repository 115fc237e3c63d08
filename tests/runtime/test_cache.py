"""In-process trace cache: keys, hits, LRU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cache import (
    MAX_ENTRIES,
    TraceCache,
    configure_cache,
    default_cache,
)
from repro.traces.generator import generate_cohort, generate_volunteers


@pytest.fixture
def isolated_cache(monkeypatch):
    """A fresh default cache for the duration of one test."""
    import repro.runtime.cache as cache_mod

    fresh = TraceCache()
    monkeypatch.setattr(cache_mod, "_default_cache", fresh)
    return fresh


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------


def test_key_is_stable_across_calls(isolated_cache):
    """A cohort is cached under ``(persona_set, seed, n_days,
    start_weekday)``, and a repeat call finds the same entry."""
    generate_cohort(2, seed=5)
    generate_cohort(2, seed=5)
    generate_volunteers(2, seed=5, start_weekday=3)
    assert len(isolated_cache) == 2
    assert isolated_cache.lookup(("default", 5, 2, 0)) is not None
    assert isolated_cache.lookup(("volunteers", 5, 2, 3)) is not None


def test_key_distinguishes_every_input(isolated_cache):
    """A different seed, day count, start weekday or persona set is a
    different entry."""
    generate_cohort(2, seed=5)
    generate_cohort(2, seed=6)
    generate_cohort(3, seed=5)
    generate_cohort(2, seed=5, start_weekday=1)
    generate_volunteers(2, seed=5)
    assert isolated_cache.stats.misses == 5
    assert isolated_cache.stats.hits == 0
    assert len(isolated_cache) == 5


def test_key_accepts_numpy_seed_rejects_non_int(isolated_cache):
    cohort = generate_cohort(2, seed=5)
    again = generate_cohort(np.int64(2), seed=np.int64(5), start_weekday=np.int64(0))
    assert isolated_cache.stats.hits == 1
    assert len(isolated_cache) == 1
    assert [t.activities for t in again] == [t.activities for t in cohort]
    # seed=None means fresh OS entropy: never cacheable.
    generate_cohort(2, seed=None)
    assert isolated_cache.stats.misses == 1
    assert len(isolated_cache) == 1


# ----------------------------------------------------------------------
# hit semantics
# ----------------------------------------------------------------------


def test_hit_is_bit_identical_to_regeneration(isolated_cache):
    first = generate_cohort(2, seed=5)
    second = generate_cohort(2, seed=5)
    assert isolated_cache.stats.misses == 1
    assert isolated_cache.stats.hits == 1
    for a, b in zip(first, second):
        assert a.user_id == b.user_id
        assert a.screen_sessions == b.screen_sessions
        assert a.usages == b.usages
        assert a.activities == b.activities


def test_hit_returns_independent_lists(isolated_cache):
    """Mutating a served cohort must not poison later hits."""
    first = generate_cohort(2, seed=5)
    n_activities = len(first[0].activities)
    first[0].activities.clear()
    first[0].screen_sessions.clear()
    second = generate_cohort(2, seed=5)
    assert len(second[0].activities) == n_activities
    assert second[0].screen_sessions
    # And the stored copy is not the served object either way.
    assert second[0] is not first[0]
    assert second[0].activities is not first[0].activities


def test_distinct_seeds_and_days_do_not_collide(isolated_cache):
    a = generate_cohort(2, seed=5)
    b = generate_cohort(2, seed=6)
    c = generate_cohort(3, seed=5)
    assert isolated_cache.stats.misses == 3
    assert isolated_cache.stats.hits == 0
    assert [t.user_id for t in a] == [t.user_id for t in b]
    assert a[0].activities != b[0].activities
    assert c[0].n_days == 3


def test_disabled_cache_always_regenerates(isolated_cache):
    isolated_cache.enabled = False
    generate_cohort(2, seed=5)
    generate_cohort(2, seed=5)
    assert isolated_cache.stats.hits == 0
    assert isolated_cache.stats.misses == 0
    assert len(isolated_cache) == 0


def test_entropy_seed_bypasses_cache(isolated_cache):
    """``seed=None`` draws OS entropy; such cohorts must never be cached."""
    generate_cohort(2, seed=None)
    assert isolated_cache.stats.misses == 0
    assert len(isolated_cache) == 0


def test_warm_hit_builds_no_personas(isolated_cache, monkeypatch):
    """A warm hit builds no personas."""
    import repro.traces.generator as generator

    cohort = generate_cohort(2, seed=5)
    volunteers = generate_volunteers(2, seed=5)

    def refuse():
        raise AssertionError("a warm hit built the personas")

    monkeypatch.setattr(generator, "default_profiles", refuse)
    monkeypatch.setattr(generator, "volunteer_profiles", refuse)
    assert [t.activities for t in generate_cohort(2, seed=5)] == [
        t.activities for t in cohort
    ]
    assert [t.activities for t in generate_volunteers(2, seed=5)] == [
        t.activities for t in volunteers
    ]
    assert isolated_cache.stats.hits == 2


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------


def test_lru_evicts_oldest():
    cache = TraceCache()
    keys = [("default", seed, 1, 0) for seed in range(MAX_ENTRIES + 1)]
    for key in keys[:MAX_ENTRIES]:
        cache.put(key, [])
    assert cache.stats.evictions == 0
    cache.lookup(keys[0])  # refresh the oldest
    cache.put(keys[-1], [])  # evicts keys[1], now the least recent
    assert len(cache) == MAX_ENTRIES
    assert cache.lookup(keys[1]) is None
    assert cache.lookup(keys[0]) is not None
    assert cache.lookup(keys[-1]) is not None
    assert cache.stats.evictions == 1


# ----------------------------------------------------------------------
# module-level configuration
# ----------------------------------------------------------------------


def test_configure_cache_roundtrip(isolated_cache):
    cache = configure_cache(enabled=False)
    assert cache is default_cache()
    assert cache.enabled is False
    configure_cache(enabled=True)
    assert cache.enabled is True
