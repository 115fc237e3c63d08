"""``python -m repro monitor`` smoke: contracts, sinks, formatting."""

from __future__ import annotations

import json
import os

import pytest

from repro.evaluation.reporting import format_monitor, results_to_json
from repro.monitor.experiment import (
    ALERTS_OUT_ENV,
    EXPECTED_DETECTOR,
    monitor_experiment,
)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    """One quick-shape run with the JSONL tee enabled (the CI artifact)."""
    out = tmp_path_factory.mktemp("alerts") / "alerts.jsonl"
    previous = os.environ.get(ALERTS_OUT_ENV)
    os.environ[ALERTS_OUT_ENV] = str(out)
    try:
        return monitor_experiment(seed=2014, n_users=8, n_days=14, train_days=7)
    finally:
        if previous is None:
            del os.environ[ALERTS_OUT_ENV]
        else:
            os.environ[ALERTS_OUT_ENV] = previous


class TestContracts:
    def test_cohort_split(self, result):
        assert result.n_users == 8
        assert result.anomalous_users == 2  # every 4th user
        assert result.clean_users == 6
        assert set(result.injected.values()) == {"runaway", "dch"}
        assert result.onset_day == 7 + 4  # train_days + runaway_min_days

    def test_quiet_monitor_contract(self, result):
        assert result.false_alert_users == 0
        assert result.clean_byte_equal
        assert result.precision == 1.0

    def test_matching_detector_contract(self, result):
        assert result.detected_users == result.anomalous_users
        assert result.kind_matched_users == result.anomalous_users
        assert result.recall == 1.0 and result.kind_recall == 1.0
        for kind in set(result.injected.values()):
            assert result.alerts_by_kind.get(EXPECTED_DETECTOR[kind], 0) > 0

    def test_feedback_contract(self, result):
        assert result.quarantine_effective_users == result.anomalous_users
        assert result.degraded_days_monitored > result.degraded_days_clean

    def test_energy_model_study_ran(self, result):
        assert result.model_days > 0
        assert result.model_mae_j > 0.0
        assert result.trailing_mae_j > 0.0
        assert result.daytype_mae_j > 0.0

    def test_alert_jsonl_tee(self, result):
        assert result.alerts_path is not None
        lines = [
            line
            for line in open(result.alerts_path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == result.alerts_total > 0
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == set(result.alerts_by_kind)
        assert result.sink_errors == 0


class TestValidation:
    def test_onset_must_leave_history_and_horizon(self):
        # The onset, runaway_min_days after training, must fall before the end.
        with pytest.raises(ValueError, match="onset"):
            monitor_experiment(n_users=4, n_days=11, train_days=7)


class TestReporting:
    def test_formatter_renders_the_contracts(self, result):
        text = format_monitor(result)
        assert "Fleet monitoring" in text
        assert "quiet-monitor contract" in text
        assert "recall" in text
        assert "alerts.jsonl" in text  # the tee path is surfaced

    def test_json_export_carries_headlines(self, result):
        export = results_to_json({"monitor": result})
        headlines = export["experiments"]["monitor"]["headlines"]
        assert headlines, "monitor experiment should export headline rows"
        assert all(h["paper"] is None for h in headlines)
