"""Unit tests for the shared utility helpers."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    DAY,
    HOUR,
    as_rng,
    check_fraction,
    check_interval,
    check_positive,
    count_in_windows,
    day_of,
    hour_of,
    intersect_length,
    is_weekend,
    merge_intervals,
    total_length,
    weekday_of,
)

from repro.monitor.detectors import SEVERITY_CRITICAL, Alert
from repro.monitor.sinks import JsonlAlertSink
from repro.stream.fleet import UserStreamSummary
from repro.stream.rollup import SummarySpill

from tests.baselines.affected_oracle import scan_count


class TestValidators:
    def test_check_positive_strict(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_check_positive_nonstrict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    def test_check_fraction(self):
        assert check_fraction("f", 0.0) == 0.0
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("f", 1.01)

    def test_check_interval(self):
        check_interval(1.0, 2.0)
        with pytest.raises(ValueError):
            check_interval(2.0, 1.0)


class TestRng:
    def test_int_seed(self):
        a, b = as_rng(7), as_rng(7)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_none_gives_fresh(self):
        assert as_rng(None) is not as_rng(None)


class TestCalendar:
    def test_weekday_of(self):
        assert weekday_of(0, 0) == 0  # Monday
        assert weekday_of(6, 0) == 6  # Sunday
        assert weekday_of(7, 0) == 0  # wraps
        assert weekday_of(1, 4) == 5  # Friday start -> Saturday

    def test_is_weekend(self):
        assert not is_weekend(0, 0)
        assert is_weekend(5, 0) and is_weekend(6, 0)

    def test_weekday_validation(self):
        with pytest.raises(ValueError):
            weekday_of(-1, 0)
        with pytest.raises(ValueError):
            weekday_of(0, 7)

    def test_hour_and_day_of(self):
        assert hour_of(0.0) == 0
        assert hour_of(HOUR) == 1
        assert hour_of(DAY + 2 * HOUR + 1.0) == 2
        assert day_of(DAY - 0.001) == 0
        assert day_of(DAY) == 1


class TestIntervals:
    def test_merge_disjoint(self):
        assert merge_intervals([(5.0, 6.0), (1.0, 2.0)]) == [(1.0, 2.0), (5.0, 6.0)]

    def test_merge_overlapping(self):
        assert merge_intervals([(1.0, 3.0), (2.0, 5.0)]) == [(1.0, 5.0)]

    def test_merge_touching(self):
        assert merge_intervals([(1.0, 2.0), (2.0, 3.0)]) == [(1.0, 3.0)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_total_length(self):
        assert total_length([(0.0, 2.0), (5.0, 6.0)]) == 3.0

    def test_intersect_length(self):
        a = [(0.0, 10.0), (20.0, 30.0)]
        b = [(5.0, 25.0)]
        assert intersect_length(a, b) == 10.0

    def test_intersect_disjoint(self):
        assert intersect_length([(0.0, 1.0)], [(2.0, 3.0)]) == 0.0

    intervals = st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=50),
        ).map(lambda p: (p[0], p[0] + p[1])),
        max_size=10,
    )

    @given(intervals)
    @settings(max_examples=60, deadline=None)
    def test_merge_invariants(self, raw):
        merged = merge_intervals(raw)
        # Disjoint, sorted, and covering at least every input point.
        for (a0, a1), (b0, b1) in zip(merged, merged[1:]):
            assert a1 < b0
        for start, end in raw:
            assert any(lo <= start and end <= hi for lo, hi in merged)
        assert total_length(merged) <= sum(e - s for s, e in raw) + 1e-9

    # Endpoints of every numeric kind the merge meets: Python and numpy
    # floats and ints, with NaN and infinities.
    endpoints = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(10**6), 10**6),
        st.floats(min_value=-1e6, max_value=1e6).map(np.float64),
        st.integers(-(10**6), 10**6).map(np.int64),
    )
    # Mostly ordered pairs, so most lists merge; some pairs are inverted.
    pairs = st.lists(
        st.one_of(
            st.tuples(endpoints, endpoints).map(lambda p: tuple(sorted(p))),
            st.tuples(endpoints, endpoints),
        ),
        max_size=12,
    )

    @given(pairs)
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_the_validating_loop(self, raw):
        """The one-comprehension merge gives the loop it replaced's output
        bits, or raises its first exception."""
        try:
            want = _loop_merge_intervals(raw)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                merge_intervals(raw)
            assert str(got.value) == str(exc)
            return
        got = merge_intervals(raw)
        assert [(type(a), a.hex(), type(b), b.hex()) for a, b in got] == [
            (type(a), a.hex(), type(b), b.hex()) for a, b in want
        ]

    def test_merge_raises_for_the_first_bad_pair(self):
        for raw, message in (
            ([(0, 1), (5, 2), (9, 3)], "got [5, 2]"),
            ([(np.float64(4.5), np.float64(1.0))], "got [4.5, 1.0]"),
            ([(np.int64(3), 1.5), (2.0, 1.0)], "got [3, 1.5]"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                merge_intervals(raw)

    @given(intervals, intervals)
    @settings(max_examples=60, deadline=None)
    def test_intersection_symmetry_and_bounds(self, raw_a, raw_b):
        a, b = merge_intervals(raw_a), merge_intervals(raw_b)
        ab = intersect_length(a, b)
        ba = intersect_length(b, a)
        assert ab == pytest.approx(ba)
        assert ab <= min(total_length(a), total_length(b)) + 1e-9


class TestCountInWindows:
    """``count_in_windows`` against the pairwise scan it replaced."""

    @pytest.mark.parametrize(
        "times, windows, expected",
        [
            ([1.0, 2.0], [], 0),
            ([], [(0.0, 5.0)], 0),
            ([1.0, 2.0, 3.0], [(3.0, 1.0)], 0),  # inverted: holds nothing
            ([2.0], [(2.0, 2.0)], 0),  # empty
            ([1.0, 2.0], [(1.0, 2.0)], 1),  # on lo counts, on hi does not
            ([2.0], [(1.0, 2.0), (2.0, 3.0)], 1),  # touching windows
            ([1.5, 1.5], [(1.0, 2.0), (1.0, 2.0)], 2),  # duplicates, repeated time
            ([4.0, 0.5, 2.5], [(2.0, 3.0), (0.0, 1.0)], 2),  # unsorted
        ],
    )
    def test_cases(self, times, windows, expected):
        assert count_in_windows(times, windows) == expected
        assert scan_count(times, windows) == expected

    # A small grid makes duplicate, touching and on-edge values common;
    # arbitrary finite floats cover the rest.
    values = st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @given(st.lists(values, max_size=12), st.lists(st.tuples(values, values), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scan(self, times, windows):
        # Window edges are the interesting times: add them too.
        times = times + [v for w in windows for v in w]
        assert count_in_windows(times, windows) == scan_count(times, windows)
        assert count_in_windows(iter(times), windows) == scan_count(times, windows)


# ----------------------------------------------------------------------
# atomic JSON-lines files: the summary spill and the alert log
# ----------------------------------------------------------------------


def _spill(path):
    docs = [
        UserStreamSummary(
            user_id=f"ü-{i}",
            n_days=14,
            days_executed=4 + i,
            events=1000 * i,
            energy_j=0.1 + 0.2 * i,
            radio_on_s=1e-7 * i,
            interrupts=i,
            user_interactions=10 * i,
            deferred=3,
            degraded_days=0,
            drift_alerts=1,
            checkpoints=2,
        )
        for i in range(3)
    ]
    spill = SummarySpill(path)
    return spill, spill.append, docs


def _alert_log(path):
    docs = [
        Alert(
            user_id=f"ü-{i}",
            day=10 + i,
            kind="dch_stuck",
            severity=SEVERITY_CRITICAL,
            value=0.1 + 0.2 * i,
            threshold=0.95,
            message=f"share {i} \u2192 \"quoted\"",
        )
        for i in range(3)
    ]
    sink = JsonlAlertSink(path)
    return sink, sink.emit, docs


@pytest.mark.parametrize("make", [_spill, _alert_log], ids=["spill", "alert-log"])
class TestJsonLinesFiles:
    def test_published_bytes_are_one_json_line_per_doc(self, tmp_path, make):
        path = tmp_path / "out.jsonl"
        writer, add, docs = make(path)
        for doc in docs:
            add(doc)
        assert writer.close() == path
        expected = "".join(json.dumps(d.as_dict()) + "\n" for d in docs)
        assert path.read_bytes() == expected.encode("utf-8")
        assert writer.count == len(docs)

    def test_close_is_idempotent(self, tmp_path, make):
        path = tmp_path / "out.jsonl"
        writer, add, docs = make(path)
        add(docs[0])
        published = writer.close().read_bytes()
        assert writer.close() == path
        writer.abort()  # after a publish, abort has nothing left to discard
        assert path.read_bytes() == published
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def _loop_merge_intervals(intervals):
    """The merge before its validation became one comprehension: a loop
    that checks each pair, then the same fuse."""
    cleaned = []
    for start, end in intervals:
        check_interval(start, end)
        cleaned.append((float(start), float(end)))
    if not cleaned:
        return []
    cleaned.sort()
    merged = [cleaned[0]]
    for start, end in cleaned[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end + 0.0:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
