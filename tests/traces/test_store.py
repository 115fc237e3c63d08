"""Tests for the monitoring database (TraceStore + WriteCache)."""

from __future__ import annotations

import pytest

from repro._util import DAY
from repro.traces import (
    AppUsage,
    NetworkActivity,
    ScreenSession,
    TraceStore,
    WriteCache,
)
from repro.traces.store import Record, RecordKind


def _filled(trace) -> TraceStore:
    """A store holding every record of ``trace``, committed."""
    store = TraceStore()
    for session in trace.screen_sessions:
        store.record_screen(session)
    for usage in trace.usages:
        store.record_usage(usage)
    for activity in trace.activities:
        store.record_network(activity)
    store.checkpoint()
    return store


def _screen(start=100.0, end=130.0):
    return Record(RecordKind.SCREEN, ScreenSession(start, end))


class TestWriteCache:
    def test_batches_until_capacity(self):
        cache = WriteCache(capacity_bytes=256, record_bytes=64)
        assert cache.add(_screen()) == []
        assert cache.add(_screen()) == []
        assert cache.add(_screen()) == []
        flushed = cache.add(_screen())  # 4 * 64 == 256 -> flush
        assert len(flushed) == 4
        assert cache.flush_count == 1
        assert cache.pending_bytes == 0

    def test_explicit_flush(self):
        cache = WriteCache(capacity_bytes=10_000)
        cache.add(_screen())
        flushed = cache.flush()
        assert len(flushed) == 1
        assert cache.flush_count == 1

    def test_flush_empty_is_noop(self):
        cache = WriteCache()
        assert cache.flush() == []
        assert cache.flush_count == 0

    def test_default_is_500kb(self):
        assert WriteCache().capacity_bytes == 500 * 1024

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            WriteCache(capacity_bytes=0)

    def test_fewer_flushes_than_records(self, volunteer):
        """The point of the cache: many records, few flash bursts."""
        store = _filled(volunteer)
        n_records = (
            len(volunteer.screen_sessions)
            + len(volunteer.usages)
            + len(volunteer.activities)
        )
        assert n_records > 100
        assert store.cache.flush_count < n_records / 100


class TestTraceStoreQueries:
    @pytest.fixture
    def store(self, tiny_trace):
        return _filled(tiny_trace)

    def test_records_visible_after_checkpoint(self, store):
        assert len(store.screen_sessions) == 2
        assert len(store.usages) == 2
        assert len(store.activities) == 4

    def test_uncommitted_records_invisible(self):
        store = TraceStore()
        store.record_usage(AppUsage(10.0, "a", 5.0))
        assert store.usages == []  # still in cache
        store.checkpoint()
        assert len(store.usages) == 1

    def test_n_days(self, store):
        assert store.n_days() == 1

    def test_n_days_empty(self):
        assert TraceStore().n_days() == 0

    def test_apps_seen(self, store):
        assert "com.tencent.mm" in store.apps_seen()
        assert "com.facebook.katana" in store.apps_seen()

    def test_screen_use_matrix(self, store):
        matrix = store.screen_use_matrix()
        assert matrix[0, 0] == 1.0
        assert matrix[0, 2] == 1.0
        assert matrix.sum() == 2.0

    def test_screen_use_matrix_spanning_hours(self):
        store = TraceStore()
        store.record_screen(ScreenSession(3500.0, 3700.0))  # crosses hour 0->1
        store.checkpoint()
        matrix = store.screen_use_matrix()
        assert matrix[0, 0] == 1.0 and matrix[0, 1] == 1.0

    def test_screen_use_matrix_midnight_crossing(self):
        store = TraceStore()
        store.record_screen(ScreenSession(DAY - 50.0, DAY + 50.0))
        store.checkpoint()
        matrix = store.screen_use_matrix()
        assert matrix.shape[0] == 2
        assert matrix[0, 23] == 1.0 and matrix[1, 0] == 1.0

    def test_app_counts(self, store):
        assert store.app_network_counts()["browser"] == 1
        assert store.app_usage_counts()["com.tencent.mm"] == 1

