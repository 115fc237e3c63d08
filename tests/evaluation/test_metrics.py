"""Tests for the evaluation metrics layer."""

from __future__ import annotations

import pytest

from repro.baselines import NaivePolicy, OraclePolicy
from repro.evaluation import (
    aggregate_energy_saving,
    energy_saving,
    measure_outcome,
    radio_time_saving,
    run_policy_over_days,
)


class TestMeasureOutcome:
    def test_fields_populated(self, test_day, wcdma):
        outcome = NaivePolicy().execute_day(test_day)
        metrics = measure_outcome(outcome, wcdma, test_day)
        assert metrics.policy == "baseline"
        assert metrics.energy_j > 0
        assert metrics.radio_on_s > metrics.transfer_s
        assert metrics.bandwidth.avg_down_bps > 0

    def test_payload_validated(self, test_day, wcdma):
        outcome = NaivePolicy().execute_day(test_day)
        outcome.activities = outcome.activities[:-1]
        with pytest.raises(ValueError, match="payload"):
            measure_outcome(outcome, wcdma, test_day)


class TestAggregation:
    def test_run_policy_over_days(self, history_and_days, wcdma):
        _, days = history_and_days
        metrics = run_policy_over_days(NaivePolicy(), days, wcdma)
        assert len(metrics) == len(days)

    def test_energy_saving_sign(self, test_day, wcdma):
        base = measure_outcome(NaivePolicy().execute_day(test_day), wcdma, test_day)
        oracle = measure_outcome(OraclePolicy().execute_day(test_day), wcdma, test_day)
        assert energy_saving(oracle, base) > 0.3
        assert energy_saving(base, base) == 0.0

    def test_radio_time_saving(self, test_day, wcdma):
        base = measure_outcome(NaivePolicy().execute_day(test_day), wcdma, test_day)
        oracle = measure_outcome(OraclePolicy().execute_day(test_day), wcdma, test_day)
        assert radio_time_saving(oracle, base) > 0.3

    def test_aggregate_over_window(self, history_and_days, wcdma):
        _, days = history_and_days
        base = run_policy_over_days(NaivePolicy(), days, wcdma)
        oracle = run_policy_over_days(OraclePolicy(), days, wcdma)
        saving = aggregate_energy_saving(oracle, base)
        assert 0.3 < saving < 0.95

    def test_zero_baseline_guard(self, test_day, wcdma):
        base = measure_outcome(NaivePolicy().execute_day(test_day), wcdma, test_day)
        zero = base.__class__(
            policy="z",
            energy_j=0.0,
            radio_on_s=0.0,
            transfer_s=0.0,
            bandwidth=base.bandwidth,
            interrupts=0,
            user_interactions=0,
            affected_user_activities=0,
            deferred=0,
        )
        assert energy_saving(base, zero) == 0.0
        assert radio_time_saving(base, zero) == 0.0
        assert aggregate_energy_saving([base], [zero]) == 0.0
