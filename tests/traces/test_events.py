"""Unit tests for the trace event data model."""

from __future__ import annotations

import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import DAY
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace
from repro.traces.events import COMPRESSED_FLOOR_S, PACK_GAP_S, pack_release


class TestScreenSession:
    def test_duration(self):
        assert ScreenSession(10.0, 25.0).duration == 15.0

    def test_contains_half_open(self):
        s = ScreenSession(10.0, 25.0)
        assert s.contains(10.0)
        assert s.contains(24.999)
        assert not s.contains(25.0)
        assert not s.contains(9.999)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="start <= end"):
            ScreenSession(25.0, 10.0)

    def test_zero_length_allowed(self):
        assert ScreenSession(5.0, 5.0).duration == 0.0


class TestAppUsage:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            AppUsage(100.0, "browser", -1.0)


_times = st.floats(min_value=-1e9, max_value=1e9)
_sizes = st.floats(min_value=0.0, max_value=1e12)


def _bits(record) -> tuple:
    """A record's type and fields, floats by their exact bit pattern."""
    return (type(record),) + tuple(
        value.hex() if isinstance(value, float) else value
        for value in (getattr(record, f.name) for f in fields(record))
    )


class TestNetworkActivity:
    def _act(self, **kw):
        defaults = dict(
            time=100.0,
            app="browser",
            down_bytes=8000.0,
            up_bytes=2000.0,
            duration=10.0,
            screen_on=True,
        )
        defaults.update(kw)
        return NetworkActivity(**defaults)

    def test_total_bytes(self):
        assert self._act().total_bytes == 10000.0

    def test_rate(self):
        assert self._act().rate_bps == pytest.approx(1000.0)

    def test_interval(self):
        assert self._act().interval == (100.0, 110.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            self._act(duration=0.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="down_bytes"):
            self._act(down_bytes=-1.0)

    def test_moved_to_preserves_everything_else(self):
        moved = self._act().moved_to(500.0)
        assert moved.time == 500.0
        assert moved.total_bytes == 10000.0
        assert moved.screen_on is True

    def test_compressed_shortens_slow_transfer(self):
        act = self._act(down_bytes=90000.0, up_bytes=10000.0)
        fast = act.compressed(24000.0)
        assert fast.duration == pytest.approx(100000.0 / 24000.0)
        assert fast.total_bytes == 100000.0

    def test_compressed_never_lengthens(self):
        # Already faster than the link: unchanged.
        act = self._act(down_bytes=500.0, up_bytes=0.0, duration=1.0)
        assert act.compressed(100.0) is act

    def test_compressed_min_duration_floor(self):
        act = self._act(down_bytes=10.0, up_bytes=0.0, duration=5.0)
        assert act.compressed(24000.0).duration == COMPRESSED_FLOOR_S == 0.5

    def test_compressed_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            self._act().compressed(0.0)

    def test_copies_are_still_validated(self):
        # A copy built from outside values is validated; a compressed
        # zero-byte transfer is held at the floor instead of lasting 0 s.
        act = self._act(down_bytes=0.0, up_bytes=0.0)
        with pytest.raises(ValueError, match="duration"):
            replace(act, duration=0.0)
        assert act.compressed(1000.0).duration == COMPRESSED_FLOOR_S

    @settings(max_examples=200, deadline=None)
    @given(
        time=_times,
        down=_sizes,
        up=_sizes,
        duration=st.floats(min_value=1e-6, max_value=1e6),
        screen_on=st.booleans(),
        new_time=st.one_of(_times, st.integers(-(10**6), 10**6)),
        bandwidth=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_copies_equal_dataclasses_replace(
        self, time, down, up, duration, screen_on, new_time, bandwidth
    ):
        act = NetworkActivity(time, "app", down, up, duration, screen_on)
        moved = act.moved_to(new_time)
        assert _bits(moved) == _bits(replace(act, time=float(new_time)))
        compressed = act.compressed(bandwidth)
        floor = max(COMPRESSED_FLOOR_S, act.total_bytes / bandwidth)
        want = act if floor >= duration else replace(act, duration=floor)
        assert _bits(compressed) == _bits(want)
        assert act.compressed_duration(bandwidth).hex() == want.duration.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=DAY, exclude_max=True),
                _sizes,
                _sizes,
                # Past half a day the midnight clamp moves the start; past
                # a whole day it makes it negative.
                st.floats(min_value=1e-3, max_value=2 * DAY),
                st.integers(0, 2),
                st.one_of(
                    st.floats(min_value=0.0, max_value=DAY), st.integers(0, int(DAY))
                ),
                st.booleans(),
            ),
            max_size=12,
        ),
        bandwidth=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_pack_release_equals_compress_then_move(self, steps, bandwidth):
        """``pack_release`` given the released duration builds, bit for
        bit, the record and cursors of the two steps it replaced: a
        compressed copy, then that copy moved to its packed start."""
        cursors: dict = {}
        two_step_cursors: dict = {}
        for time, down, up, duration, key, release, compress in steps:
            act = NetworkActivity(time, "app", down, up, duration, False)
            runs_for = act.compressed_duration(bandwidth) if compress else act.duration
            got = pack_release(cursors, key, release, act, runs_for)
            source = act.compressed(bandwidth) if compress else act
            want = _two_step_pack_release(two_step_cursors, key, release, source)
            assert _bits(got) == _bits(want)
            assert {k: v.hex() for k, v in cursors.items()} == {
                k: v.hex() for k, v in two_step_cursors.items()
            }


def _two_step_pack_release(cursors, key, release, activity):
    """The packing before it took a duration: ``activity`` (already
    compressed where the release compresses) moved to its packed start."""
    start = min(cursors.get(key, release), DAY - activity.duration)
    cursors[key] = start + activity.duration + PACK_GAP_S
    return activity.moved_to(start)


class TestTraceInvariants:
    def test_valid_trace_builds(self, tiny_trace):
        assert tiny_trace.n_days == 1
        assert len(tiny_trace.activities) == 4

    def test_sorts_events(self):
        trace = Trace(
            user_id="u",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(200.0, 210.0), ScreenSession(50.0, 60.0)],
        )
        starts = [s.start for s in trace.screen_sessions]
        assert starts == sorted(starts)

    def test_rejects_overlapping_sessions(self):
        with pytest.raises(ValueError, match="overlap"):
            Trace(
                user_id="u",
                n_days=1,
                start_weekday=0,
                screen_sessions=[ScreenSession(0.0, 100.0), ScreenSession(50.0, 150.0)],
            )

    def test_rejects_session_past_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            Trace(
                user_id="u",
                n_days=1,
                start_weekday=0,
                screen_sessions=[ScreenSession(DAY - 10.0, DAY + 10.0)],
            )

    def test_rejects_mistagged_activity(self):
        with pytest.raises(ValueError, match="screen"):
            Trace(
                user_id="u",
                n_days=1,
                start_weekday=0,
                screen_sessions=[ScreenSession(100.0, 200.0)],
                activities=[
                    NetworkActivity(150.0, "a", 100.0, 0.0, 5.0, screen_on=False)
                ],
            )

    @pytest.mark.parametrize(
        "records",
        [
            {"activities": [NetworkActivity(-1800.0, "a", 5000.0, 0.0, 5.0, False)]},
            {"usages": [AppUsage(-1.0, "a", 1.0)]},
            {"screen_sessions": [ScreenSession(-10.0, 10.0)]},
            {"activities": [NetworkActivity(90000.0, "b", 10.0, 0.0, 1.0, False)]},
            {"usages": [AppUsage(90000.0, "b", 1.0)]},
            {"usages": [AppUsage(DAY, "b", 1.0)]},
        ],
        ids=[
            "activity-negative", "usage-negative", "session-negative",
            "activity-past-horizon", "usage-past-horizon", "usage-at-horizon",
        ],
    )
    def test_rejects_record_outside_the_horizon(self, records):
        with pytest.raises(ValueError, match="outside|before"):
            Trace(user_id="u", n_days=1, start_weekday=0, **records)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["session-start", "session-end", "usage", "activity"])
    def test_rejects_non_finite_record_time(self, kind, bad, position):
        times = [100.0, 300.0, 500.0]
        if kind == "usage":
            times[position] = bad
            records = {"usages": [AppUsage(t, "a", 1.0) for t in times]}
        elif kind == "activity":
            times[position] = bad
            records = {
                "activities": [NetworkActivity(t, "a", 10.0, 0.0, 1.0, False) for t in times]
            }
        else:
            sessions = [ScreenSession(t, t + 50.0) for t in times]
            start, end = times[position], times[position] + 50.0
            try:
                sessions[position] = (
                    ScreenSession(bad, end) if kind == "session-start" else ScreenSession(start, bad)
                )
            except ValueError:  # start <= end is checked on construction
                sessions[position] = ScreenSession(bad, bad)
            records = {"screen_sessions": sessions}
        label = "screen session" if kind.startswith("session") else kind
        with pytest.raises(ValueError, match=re.escape(f"{label} at t={bad} is not finite")):
            Trace(user_id="u", n_days=1, start_weekday=0, **records)

    def test_accepts_records_at_the_horizon_edges(self):
        trace = Trace(
            user_id="u",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(0.0, 10.0), ScreenSession(DAY - 10.0, DAY)],
            usages=[AppUsage(0.0, "a", 1.0), AppUsage(DAY - 1e-6, "a", 1.0)],
        )
        assert len(trace.usages) == 2

    def test_rejects_bad_n_days(self):
        with pytest.raises(ValueError, match="n_days"):
            Trace(user_id="u", n_days=0, start_weekday=0)

    def test_rejects_bad_weekday(self):
        with pytest.raises(ValueError, match="start_weekday"):
            Trace(user_id="u", n_days=1, start_weekday=7)


class TestTraceQueries:
    def test_screen_on_at(self, tiny_trace):
        assert tiny_trace.screen_on_at(110.0)
        assert not tiny_trace.screen_on_at(130.0)  # half-open end
        assert not tiny_trace.screen_on_at(5000.0)
        assert tiny_trace.screen_on_at(7200.0)

    def test_is_weekend_day(self, two_day_trace):
        assert not two_day_trace.is_weekend_day(0)  # Friday
        assert two_day_trace.is_weekend_day(1)  # Saturday

    def test_total_screen_on_time(self, tiny_trace):
        assert tiny_trace.total_screen_on_time() == pytest.approx(90.0)


class TestDayView:
    def test_day_view_rebases_times(self, two_day_trace):
        day1 = two_day_trace.day_view(1)
        assert day1.n_days == 1
        assert day1.screen_sessions[0].start == pytest.approx(7200.0)
        assert day1.start_weekday == 5  # Saturday

    def test_day_view_partitions_activities(self, two_day_trace):
        day0 = two_day_trace.day_view(0)
        day1 = two_day_trace.day_view(1)
        assert len(day0.activities) + len(day1.activities) == 3

    def test_day_view_out_of_range(self, two_day_trace):
        with pytest.raises(ValueError, match="day_index"):
            two_day_trace.day_view(2)

    def test_days_iterator(self, two_day_trace):
        days = list(two_day_trace.days())
        assert len(days) == 2
        assert all(d.n_days == 1 for d in days)

    def test_day_view_clips_crossing_session(self):
        trace = Trace(
            user_id="u",
            n_days=2,
            start_weekday=0,
            screen_sessions=[ScreenSession(DAY - 10.0, DAY + 10.0)],
        )
        day0, day1 = trace.day_view(0), trace.day_view(1)
        assert day0.screen_sessions[0].end == pytest.approx(DAY)
        assert day1.screen_sessions[0].start == pytest.approx(0.0)
        assert day1.screen_sessions[0].end == pytest.approx(10.0)


class TestNumpyAccessors:
    def test_activity_bytes_shape(self, tiny_trace):
        assert tiny_trace.activity_bytes().shape == (4, 2)

    def test_activity_rates_positive(self, tiny_trace):
        assert (tiny_trace.activity_rates() > 0).all()

    def test_screen_flags_match(self, tiny_trace):
        flags = tiny_trace.activity_screen_flags()
        assert flags.tolist() == [True, False, True, False]

    def test_usage_bins(self, tiny_trace):
        assert tiny_trace.usage_hour_bins().tolist() == [0, 2]
        assert tiny_trace.usage_day_bins().tolist() == [0, 0]

    def test_empty_trace_accessors(self):
        trace = Trace(user_id="e", n_days=1, start_weekday=0)
        assert trace.activity_bytes().shape == (0, 2)
        assert trace.activity_rates().size == 0
