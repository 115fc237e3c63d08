"""Tests for the oracle and the NetMaster policy adapter."""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaivePolicy, NetMasterPolicy, OraclePolicy
from repro.baselines.oracle import _nearest_session
from repro.core import NetMasterConfig
from repro.radio import wcdma_model
from repro.traces import NetworkActivity, ScreenSession, Trace

MODEL = wcdma_model()


def min_nearest_session(session_starts, time_s):
    """The pick before it compared its two candidates directly: ``min``
    over the in-range neighbours, whose first minimum wins a tie."""
    if not session_starts:
        return None
    idx = bisect.bisect_left(session_starts, time_s)
    candidates = [i for i in (idx - 1, idx) if 0 <= i < len(session_starts)]
    return min(candidates, key=lambda i: abs(session_starts[i] - time_s))


class TestNearestSession:
    # Whole-second starts and half-second times make exact ties common;
    # a repeated start is empty sessions sharing a start.
    starts = st.lists(st.integers(0, 60), max_size=8).map(
        lambda xs: sorted(float(x) for x in xs)
    )
    times = st.one_of(
        st.integers(-10, 140).map(lambda x: x / 2),
        st.floats(min_value=-1e3, max_value=1e3),
        st.integers(-10, 70),
        st.integers(-10, 70).map(np.int64),
        st.floats(min_value=-10.0, max_value=70.0).map(np.float64),
    )

    @given(starts, times)
    @settings(max_examples=500, deadline=None)
    def test_equals_min_over_the_candidates(self, session_starts, time_s):
        assert _nearest_session(session_starts, time_s) == min_nearest_session(
            session_starts, time_s
        )

    @pytest.mark.parametrize(
        "session_starts, time_s, want",
        [
            ([], 5.0, None),
            ([10.0, 20.0], 15.0, 0),  # a tie goes to the earlier session
            ([10.0, 20.0, 20.0], 20.0, 1),  # empty sessions sharing a start
            ([10.0, 20.0, 20.0], 25.0, 2),
            ([10.0, 20.0], -3.0, 0),  # before the first session
            ([10.0, 20.0], 99.0, 1),  # after the last session
        ],
    )
    def test_cases(self, session_starts, time_s, want):
        assert _nearest_session(session_starts, time_s) == want
        assert min_nearest_session(session_starts, time_s) == want


class TestOraclePolicy:
    def test_screen_off_moved_to_sessions(self, test_day):
        outcome = OraclePolicy().execute_day(test_day)
        session_starts = {s.start for s in test_day.screen_sessions}
        moved = [a for a in outcome.activities if not a.screen_on]
        # Every deferred transfer is packed at/after some session start.
        for activity in moved:
            assert any(
                abs(activity.time - start) < 120.0 for start in session_starts
            )

    def test_oracle_beats_everything(self, test_day, history):
        base = NaivePolicy().execute_day(test_day).energy(MODEL).energy_j
        nm = NetMasterPolicy(history).execute_day(test_day).energy(MODEL).energy_j
        oracle = OraclePolicy().execute_day(test_day).energy(MODEL).energy_j
        assert oracle <= nm * 1.02  # oracle is the (near-)floor
        assert oracle < base

    def test_payload_conserved(self, test_day):
        OraclePolicy().execute_day(test_day).validate_payload(test_day)

    def test_day_without_sessions(self):
        trace = Trace(
            user_id="nosess",
            n_days=1,
            start_weekday=0,
            activities=[NetworkActivity(1000.0, "a", 500.0, 50.0, 4.0, False)],
        )
        outcome = OraclePolicy().execute_day(trace)
        assert len(outcome.activities) == 1

    def test_compression_applied(self):
        trace = Trace(
            user_id="c",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(5000.0, 5030.0)],
            activities=[
                NetworkActivity(1000.0, "a", 48000.0, 0.0, 60.0, False)
            ],
        )
        outcome = OraclePolicy().execute_day(trace)
        moved = outcome.activities[0]
        assert moved.duration == pytest.approx(2.0)  # 48 kB at 24 kB/s

    def test_guard_is_netmasters(self, test_day):
        """The oracle cuts the radio after NetMaster's own guard, so the
        comparison isolates the value of perfect prediction."""
        outcome = OraclePolicy().execute_day(test_day)
        assert outcome.tail_policy == NetMasterConfig().tail_policy()


class TestNetMasterPolicyAdapter:
    def test_wraps_middleware(self, history, test_day):
        policy = NetMasterPolicy(history)
        outcome = policy.execute_day(test_day)
        assert outcome.policy == "netmaster"
        assert outcome.activity_tails is not None
        assert len(outcome.activity_tails) == len(outcome.activities)
        outcome.validate_payload(test_day)

    def test_middleware_accessible(self, history):
        policy = NetMasterPolicy(history)
        assert policy.middleware.habit is not None

    def test_repeatable(self, history, test_day):
        policy = NetMasterPolicy(history)
        a = policy.execute_day(test_day)
        b = policy.execute_day(test_day)
        assert [x.time for x in a.activities] == [x.time for x in b.activities]

    def test_interrupts_tracked(self, history, test_day):
        outcome = NetMasterPolicy(history).execute_day(test_day)
        assert outcome.user_interactions == len(test_day.usages)
        assert outcome.interrupts <= 0.01 * outcome.user_interactions
