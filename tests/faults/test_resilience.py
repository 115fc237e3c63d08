"""Tests for apply_faults: outcome-level fault composition."""

from __future__ import annotations

import pytest

from repro.baselines import DelayBatchPolicy, NaivePolicy, NetMasterPolicy
from repro.evaluation import measure_outcome
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    apply_faults,
)


class TestInertPlan:
    def test_returns_same_object(self, test_day):
        outcome = NaivePolicy().execute_day(test_day)
        faulted, stats = apply_faults(outcome, FaultInjector(FaultPlan()))
        assert faulted is outcome
        assert stats.retries == 0
        assert stats.failed_attempts == 0
        assert stats.forced == 0
        assert stats.added_delays == ()

    def test_rate_zero_energy_bit_for_bit(self, history, test_day, wcdma):
        # The acceptance bar: the fault-injected pipeline at rate 0 must
        # reproduce the stock pipeline's EnergyReport exactly.
        injector = FaultInjector(FaultPlan.uniform(0.0, seed=43))
        for policy in (
            NaivePolicy(),
            NetMasterPolicy(history),
            DelayBatchPolicy(60.0),
        ):
            outcome = policy.execute_day(test_day)
            faulted, _ = apply_faults(outcome, injector, RetryPolicy())
            assert faulted.energy(wcdma) == outcome.energy(wcdma)
            assert measure_outcome(faulted, wcdma, test_day) == measure_outcome(
                outcome, wcdma, test_day
            )


class TestFaultyPlan:
    @pytest.fixture
    def faulted_pair(self, history, test_day):
        outcome = NetMasterPolicy(history).execute_day(test_day)
        injector = FaultInjector(FaultPlan.uniform(0.3, seed=7))
        faulted, stats = apply_faults(outcome, injector, RetryPolicy())
        return outcome, faulted, stats

    def test_payload_conserved(self, faulted_pair, test_day):
        _, faulted, _ = faulted_pair
        faulted.validate_payload(test_day)  # raises on loss

    def test_transfers_never_move_earlier(self, faulted_pair):
        outcome, faulted, _ = faulted_pair
        for before, after in zip(outcome.activities, faulted.activities):
            assert after.time >= before.time - 1e-9

    def test_delay_bound_holds(self, faulted_pair):
        outcome, faulted, stats = faulted_pair
        bound = RetryPolicy().max_delay_s
        assert stats.added_delay_max_s <= bound + 1e-9
        for before, after in zip(outcome.activities, faulted.activities):
            assert after.time - before.time <= bound + 1e-9

    def test_faults_cost_energy(self, faulted_pair, wcdma):
        outcome, faulted, stats = faulted_pair
        assert stats.failed_attempts + stats.failed_promotions > 0
        assert faulted.energy(wcdma).energy_j > outcome.energy(wcdma).energy_j

    def test_stats_consistent_with_outcome(self, faulted_pair):
        outcome, faulted, stats = faulted_pair
        assert stats.n_transfers == len(outcome.activities)
        assert len(faulted.failed_windows) == stats.failed_attempts
        assert faulted.failed_promotions == stats.failed_promotions
        assert faulted.retries == stats.retries
        assert len(stats.added_delays) == stats.n_transfers

    def test_original_outcome_untouched(self, faulted_pair):
        outcome, faulted, _ = faulted_pair
        assert outcome.failed_windows == []
        assert outcome.failed_promotions == 0
        assert faulted is not outcome

    def test_monotone_energy_in_rate(self, history, test_day, wcdma):
        outcome = NetMasterPolicy(history).execute_day(test_day)
        energies = []
        for rate in (0.0, 0.1, 0.2, 0.4):
            injector = FaultInjector(FaultPlan.uniform(rate, seed=7))
            faulted, _ = apply_faults(outcome, injector, RetryPolicy())
            energies.append(faulted.energy(wcdma).energy_j)
        assert energies == sorted(energies)


class TestFaultStats:
    def test_delay_aggregates(self):
        stats = FaultStats(3, 2, 2, 0, 1, (0.0, 10.0, 50.0))
        assert stats.added_delay_mean_s == pytest.approx(20.0)
        assert stats.added_delay_max_s == pytest.approx(50.0)

    def test_empty_delays(self):
        stats = FaultStats(0, 0, 0, 0, 0, ())
        assert stats.added_delay_mean_s == 0.0
        assert stats.added_delay_max_s == 0.0
