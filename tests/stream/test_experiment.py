"""The ``python -m repro stream`` experiment, shrunk to a smoke size."""

from __future__ import annotations

import pytest

from repro.evaluation.reporting import format_stream, results_to_json
from repro.stream import fleet_specs, stream_experiment


@pytest.fixture(scope="module")
def result():
    return stream_experiment(
        n_users=3, n_days=9, train_days=7, checkpoint_every_days=1
    )


class TestStreamExperiment:
    def test_fleet_accounting(self, result):
        assert result.users_streamed == 3
        assert result.user_days_streamed == 27
        assert result.days_executed == 3 * 2  # two post-training days each
        assert result.events > 0
        assert result.events_per_s > 0
        assert result.checkpoints > 0

    def test_energy_ordering_is_sane(self, result):
        # Both schedulers must beat always-on; savings are proper fractions.
        assert 0.0 < result.online_saving < 1.0
        assert 0.0 < result.offline_saving < 1.0
        assert result.online_energy_j < result.naive_energy_j
        assert result.offline_energy_j < result.naive_energy_j

    def test_causality_gap_is_small(self, result):
        # The online engine sees strictly less data than offline training;
        # on habitual synthetic users the gap should be marginal.
        assert abs(result.online_offline_gap) < 0.1

    def test_interrupt_ratios_bounded(self, result):
        assert 0.0 <= result.online_interrupt_ratio <= 1.0
        assert 0.0 <= result.offline_interrupt_ratio <= 1.0

    def test_specs_are_deterministic(self):
        a = fleet_specs(seed=1, n_users=4, n_days=5)
        b = fleet_specs(seed=1, n_users=4, n_days=5)
        assert a == b
        assert len({s.seed for s in a}) == 4  # distinct personas

    def test_formatter_and_json_export(self, result):
        text = format_stream(result)
        assert "Streaming fleet" in text
        assert "online saving vs naive" in text
        export = results_to_json({"stream": result})
        headlines = export["experiments"]["stream"]["headlines"]
        labels = {h["label"] for h in headlines}
        assert "stream events per second" in labels
        assert all(h["paper"] is None for h in headlines)
