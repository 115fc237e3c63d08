"""Tests for the deterministic fault injector."""

from __future__ import annotations

import pytest

from repro._util import DAY
from repro.faults import FaultInjector, FaultPlan


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        assert FaultPlan().inert

    def test_uniform_zero_is_inert(self):
        assert FaultPlan.uniform(0.0).inert

    def test_uniform_scales_rates(self):
        plan = FaultPlan.uniform(0.2, seed=7)
        assert plan.seed == 7
        assert plan.transfer_failure_rate == pytest.approx(0.2)
        assert plan.promotion_failure_rate == pytest.approx(0.1)
        assert plan.outage_keep_prob == pytest.approx(0.2)
        assert not plan.inert

    def test_outage_without_candidates_is_inert(self):
        assert FaultPlan(outage_keep_prob=0.5, outage_candidates_per_day=0).inert

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(outage_duration_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan(outage_candidates_per_day=-1)
        with pytest.raises(ValueError):
            FaultPlan.uniform(-0.1)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        b = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        grid = [
            a.attempt_fails(d, i, att, 1000.0 * i)
            for d in range(3)
            for i in range(20)
            for att in (1, 2)
        ]
        grid_b = [
            b.attempt_fails(d, i, att, 1000.0 * i)
            for d in range(3)
            for i in range(20)
            for att in (1, 2)
        ]
        assert grid == grid_b
        assert a.outage_windows(0) == b.outage_windows(0)

    def test_decisions_independent_of_call_order(self):
        a = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        b = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        # Query b in reverse order: counter-based draws must not couple.
        forward = [a.attempt_fails(0, i, 1, 0.0) for i in range(10)]
        backward = [b.attempt_fails(0, i, 1, 0.0) for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan.uniform(0.5, seed=1))
        b = FaultInjector(FaultPlan.uniform(0.5, seed=2))
        grid_a = [a.attempt_fails(0, i, 1, 0.0) for i in range(64)]
        grid_b = [b.attempt_fails(0, i, 1, 0.0) for i in range(64)]
        assert grid_a != grid_b

    def test_failure_sets_nest_as_rate_rises(self):
        # The whole monotonicity argument: any attempt failing at a low
        # rate also fails at every higher rate (same seed).
        low = FaultInjector(FaultPlan(transfer_failure_rate=0.1, seed=3))
        high = FaultInjector(FaultPlan(transfer_failure_rate=0.4, seed=3))
        for i in range(200):
            if low.attempt_fails(0, i, 1, 0.0) is not None:
                assert high.attempt_fails(0, i, 1, 0.0) is not None


class TestOutages:
    def test_windows_within_day(self):
        injector = FaultInjector(
            FaultPlan(outage_keep_prob=1.0, outage_candidates_per_day=3, seed=11)
        )
        windows = injector.outage_windows(0)
        assert len(windows) == 3
        for lo, hi in windows:
            assert 0.0 <= lo < hi <= DAY
            assert hi - lo == pytest.approx(900.0)

    def test_in_outage_and_end(self):
        injector = FaultInjector(
            FaultPlan(outage_keep_prob=1.0, outage_candidates_per_day=1, seed=11)
        )
        (lo, hi), = injector.outage_windows(0)
        mid = (lo + hi) / 2.0
        assert injector.in_outage(0, mid)
        assert injector.outage_end(0, mid) == hi
        assert not injector.in_outage(0, hi)
        assert injector.outage_end(0, hi) == hi
        assert injector.attempt_fails(0, 0, 1, mid) == "outage"

    def test_zero_keep_prob_no_windows(self):
        injector = FaultInjector(FaultPlan(transfer_failure_rate=0.5))
        assert injector.outage_windows(0) == []

    def test_days_draw_different_windows(self):
        injector = FaultInjector(
            FaultPlan(outage_keep_prob=1.0, outage_candidates_per_day=2, seed=11)
        )
        assert injector.outage_windows(0) != injector.outage_windows(1)
