"""Tests for the delay, batch, and combined delay&batch baselines."""

from __future__ import annotations

import math

import pytest

from repro._util import DAY
from repro.baselines import BatchPolicy, DelayBatchPolicy, DelayPolicy, NaivePolicy
from repro.radio import wcdma_model
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace

MODEL = wcdma_model()


def _burst_day():
    """A day with one session and a burst of three screen-off syncs."""
    sessions = [ScreenSession(40000.0, 40060.0)]
    usages = [AppUsage(40000.0, "com.tencent.mm", 60.0)]
    activities = [
        NetworkActivity(40010.0, "com.tencent.mm", 5000.0, 500.0, 10.0, True),
        NetworkActivity(10000.0, "a", 1000.0, 100.0, 4.0, False),
        NetworkActivity(10030.0, "b", 1000.0, 100.0, 4.0, False),
        NetworkActivity(10065.0, "c", 1000.0, 100.0, 4.0, False),
    ]
    return Trace(
        user_id="burst",
        n_days=1,
        start_weekday=0,
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )


class TestDelayPolicy:
    def test_zero_interval_is_identity(self, test_day):
        outcome = DelayPolicy(0.0).execute_day(test_day)
        assert [a.time for a in outcome.activities] == [
            a.time for a in test_day.activities
        ]

    def test_quantized_release(self):
        outcome = DelayPolicy(100.0).execute_day(_burst_day())
        moved = [a for a in outcome.activities if not a.screen_on]
        # 10000 is on a tick boundary -> released at 10100; 10030 and
        # 10065 share the 10100 tick and pack together.
        assert moved[0].time == pytest.approx(10100.0)
        assert moved[1].time == pytest.approx(10100.0 + 4.2)

    def test_same_tick_items_merge_radio_bursts(self):
        base = NaivePolicy().execute_day(_burst_day()).energy(MODEL)
        delayed = DelayPolicy(600.0).execute_day(_burst_day()).energy(MODEL)
        assert delayed.energy_j < base.energy_j

    def test_foreground_never_delayed(self, test_day):
        outcome = DelayPolicy(300.0).execute_day(test_day)
        fg_before = [a.time for a in test_day.activities if a.screen_on]
        fg_after = sorted(a.time for a in outcome.activities if a.screen_on)
        assert fg_after == sorted(fg_before)

    def test_payload_conserved(self, test_day):
        outcome = DelayPolicy(120.0).execute_day(test_day)
        outcome.validate_payload(test_day)

    def test_affected_grows_with_interval(self, history_and_days):
        _, days = history_and_days
        ratios = []
        for interval in (5.0, 120.0, 600.0):
            affected = total = 0
            for day in days:
                outcome = DelayPolicy(interval).execute_day(day)
                affected += outcome.affected_user_activities
                total += outcome.user_interactions
            ratios.append(affected / total)
        assert ratios == sorted(ratios)

    def test_name(self):
        assert DelayPolicy(60.0).name == "delay-60s"


class TestBatchPolicy:
    def test_batch_leq_one_is_identity(self, test_day):
        for n in (0, 1):
            outcome = BatchPolicy(n).execute_day(test_day)
            assert [a.time for a in outcome.activities] == [
                a.time for a in test_day.activities
            ]

    def test_batch_releases_on_fill(self):
        outcome = BatchPolicy(2).execute_day(_burst_day())
        moved = sorted(
            (a for a in outcome.activities if not a.screen_on), key=lambda a: a.time
        )
        # First two released together when the second arrives (t=10030).
        assert moved[0].time == pytest.approx(10030.0)
        assert moved[1].time == pytest.approx(10030.0 + 4.2)

    def test_screen_on_flushes(self):
        # Batch of 10 never fills; the session at 40000 flushes it.
        outcome = BatchPolicy(10).execute_day(_burst_day())
        moved = [a for a in outcome.activities if not a.screen_on]
        assert all(a.time >= 40000.0 for a in moved)

    def test_batching_saves_energy(self, test_day):
        base = NaivePolicy().execute_day(test_day).energy(MODEL)
        batched = BatchPolicy(5).execute_day(test_day).energy(MODEL)
        assert batched.energy_j < base.energy_j

    def test_payload_conserved(self, test_day):
        BatchPolicy(4).execute_day(test_day).validate_payload(test_day)

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(-1)


class TestDelayBatchPolicy:
    def test_screen_on_flush_rides_session(self):
        outcome = DelayBatchPolicy(36000.0).execute_day(_burst_day())
        moved = [a for a in outcome.activities if not a.screen_on]
        # All three syncs wait for the session at 40000 (within timeout).
        assert all(a.time >= 40000.0 for a in moved)

    def test_timeout_release_without_session(self):
        outcome = DelayBatchPolicy(60.0).execute_day(_burst_day())
        moved = sorted(
            (a for a in outcome.activities if not a.screen_on), key=lambda a: a.time
        )
        assert moved[0].time == pytest.approx(10060.0)

    def test_fast_dormancy_tails(self):
        outcome = DelayBatchPolicy(60.0).execute_day(_burst_day())
        assert outcome.activity_tails is not None
        # Deferred items carry the fast-dormancy tail; foreground stays inf.
        finite = [t for t in outcome.activity_tails if not math.isinf(t)]
        assert len(finite) == 3

    def test_saves_energy(self, test_day):
        base = NaivePolicy().execute_day(test_day).energy(MODEL)
        db = DelayBatchPolicy(60.0).execute_day(test_day).energy(MODEL)
        assert db.energy_j < base.energy_j

    def test_weaker_than_full_tail_elimination(self, test_day, history):
        """Delay&batch saves something but far less than NetMaster."""
        from repro.baselines import NetMasterPolicy

        base = NaivePolicy().execute_day(test_day).energy(MODEL).energy_j
        db = DelayBatchPolicy(60.0).execute_day(test_day).energy(MODEL).energy_j
        nm = NetMasterPolicy(history).execute_day(test_day).energy(MODEL).energy_j
        assert nm < db < base

    def test_payload_conserved(self, test_day):
        DelayBatchPolicy(20.0).execute_day(test_day).validate_payload(test_day)

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayBatchPolicy(0.0)
