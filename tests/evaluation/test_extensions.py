"""Tests for the extension experiments (beyond the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import (
    channel_extension,
    cohort_scale,
    hidden_impact,
    learning_curve,
    random_profile,
)


class TestChannelExtension:
    def test_runs_and_improves(self):
        result = channel_extension()
        assert result.n_batches > 0
        assert result.energy_multiplier_gain >= 0.0
        assert result.rate_gain >= 1.0


class TestHiddenImpact:
    @pytest.fixture(scope="class")
    def result(self):
        return hidden_impact()

    def test_distribution_ordered(self, result):
        assert 0.0 <= result.p50_delay_s <= result.p95_delay_s <= result.max_delay_s

    def test_most_background_traffic_is_deferred(self, result):
        assert result.deferred_fraction > 0.5

    def test_median_delay_bounded_by_duty_cycle(self, result):
        """Half of deferrals resolve within the first few backoff rounds
        or the next active slot — well under two hours."""
        assert result.p50_delay_s < 7200.0


class TestRandomProfile:
    def test_valid_profile(self):
        rng = np.random.default_rng(0)
        profile = random_profile("x", rng)
        assert profile.weekday_intensity.shape == (24,)
        assert profile.intensity_for(False).sum() > 10.0

    def test_distinct_draws(self):
        rng = np.random.default_rng(0)
        a, b = random_profile("a", rng), random_profile("b", rng)
        assert not np.allclose(a.weekday_intensity, b.weekday_intensity)

    def test_generates_traces(self):
        from repro.traces import TraceGenerator

        rng = np.random.default_rng(1)
        profile = random_profile("r", rng)
        trace = TraceGenerator(profile, rng).generate(2)
        assert trace.activities


class TestCohortScale:
    def test_savings_consistent_across_personas(self):
        result = cohort_scale(n_users=6, n_days=12, n_history_days=9)
        assert result.n_users == 6
        assert result.min_saving > 0.4
        assert result.max_saving < 0.9
        assert result.mean_saving == pytest.approx(np.mean(result.savings))


class TestLearningCurve:
    def test_accuracy_converges(self):
        result = learning_curve(history_lengths=(2, 7, 12))
        assert len(result.accuracy) == 3
        # A week of history predicts much better than two days.
        assert result.accuracy[1] > result.accuracy[0]
        assert all(0.0 <= a <= 1.0 for a in result.accuracy)
