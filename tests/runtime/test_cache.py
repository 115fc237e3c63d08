"""Content-addressed trace cache: digests, hits, LRU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cache import (
    TraceCache,
    cohort_cache_key,
    configure_cache,
    default_cache,
)
from repro.traces import default_profiles, volunteer_profiles
from repro.traces.generator import generate_cohort, generate_volunteers


@pytest.fixture
def isolated_cache(monkeypatch):
    """A fresh default cache for the duration of one test."""
    import repro.runtime.cache as cache_mod

    fresh = TraceCache()
    monkeypatch.setattr(cache_mod, "_default_cache", fresh)
    return fresh


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def test_key_is_stable_across_calls():
    profiles = default_profiles()
    k1 = cohort_cache_key(profiles, 2014, 21, 0)
    k2 = cohort_cache_key(default_profiles(), 2014, 21, 0)
    assert k1 == k2
    assert len(k1) == 64  # sha256 hex


def test_key_distinguishes_every_input():
    profiles = default_profiles()
    base = cohort_cache_key(profiles, 2014, 21, 0)
    assert cohort_cache_key(profiles, 2015, 21, 0) != base
    assert cohort_cache_key(profiles, 2014, 20, 0) != base
    assert cohort_cache_key(profiles, 2014, 21, 1) != base
    assert cohort_cache_key(volunteer_profiles(), 2014, 21, 0) != base
    assert cohort_cache_key(profiles[:4], 2014, 21, 0) != base


def test_key_sees_profile_content_changes():
    """A mutated persona parameter must change the digest (no aliasing)."""
    import copy

    profiles = default_profiles()
    base = cohort_cache_key(profiles, 2014, 21, 0)
    tweaked = copy.deepcopy(profiles)
    tweaked[0].weekday_intensity[3] += 1e-9
    assert cohort_cache_key(tweaked, 2014, 21, 0) != base


def test_key_accepts_numpy_seed_rejects_non_int():
    profiles = default_profiles()
    assert cohort_cache_key(profiles, np.int64(7), 21, 0) == cohort_cache_key(
        profiles, 7, 21, 0
    )
    # seed=None means fresh OS entropy: never cacheable.
    assert cohort_cache_key(profiles, None, 21, 0) is None


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


def test_builtin_persona_sets_keep_their_content_keys(isolated_cache):
    cohort = generate_cohort(2, seed=5)
    volunteers = generate_volunteers(2, seed=np.int64(5))
    assert isolated_cache.lookup(cohort_cache_key(default_profiles(), 5, 2, 0)) is not None
    assert isolated_cache.lookup(cohort_cache_key(volunteer_profiles(), 5, 2, 0)) is not None
    assert len(isolated_cache) == 2
    # The same personas passed in as custom profiles hit the same entry.
    custom = generate_cohort(2, seed=5, profiles=volunteer_profiles())
    assert isolated_cache.stats.misses == 2
    assert [t.activities for t in custom] == [t.activities for t in volunteers]
    assert [t.user_id for t in cohort] == [p.user_id for p in default_profiles()]


def test_warm_hit_builds_no_personas(isolated_cache, monkeypatch):
    """A hit of a built-in persona set neither builds nor hashes personas."""
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
    cache = TraceCache(max_entries=2)
    cache.put("a", [])
    cache.put("b", [])
    cache.lookup("a")  # refresh a
    cache.put("c", [])  # evicts b
    assert cache.lookup("b") is None
    assert cache.lookup("a") is not None
    assert cache.lookup("c") is not None
    assert cache.stats.evictions == 1


def test_max_entries_validated():
    with pytest.raises(ValueError, match="max_entries"):
        TraceCache(max_entries=0)


# ----------------------------------------------------------------------
# module-level configuration
# ----------------------------------------------------------------------


def test_configure_cache_roundtrip(isolated_cache):
    cache = configure_cache(enabled=False, max_entries=4)
    assert cache is default_cache()
    assert cache.enabled is False
    assert cache.max_entries == 4
    configure_cache(enabled=True)
    assert cache.enabled is True


def test_configure_cache_shrink_evicts(isolated_cache):
    for name in "abcd":
        isolated_cache.put(name, [])
    configure_cache(max_entries=2)
    assert len(isolated_cache) == 2
    assert isolated_cache.lookup("d") is not None
    with pytest.raises(ValueError, match="max_entries"):
        configure_cache(max_entries=0)
