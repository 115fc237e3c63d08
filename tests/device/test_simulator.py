"""Integration tests for whole-device replay."""

from __future__ import annotations

import pytest

from repro.baselines import NetMasterPolicy
from repro.device import DeviceSimulator
from repro.habits import HabitModel
from repro.radio import TruncatedTail, wcdma_model
from tests.radio.rrc_oracle import trace_energy


class TestStockReplay:
    def test_energy_matches_analytic(self, test_day, wcdma):
        report = DeviceSimulator().replay(test_day)
        analytic = trace_energy(test_day, wcdma)
        assert report.energy.energy_j == pytest.approx(analytic["energy_j"])
        assert report.energy.radio_on_s == pytest.approx(analytic["radio_on_s"])

    def test_all_activities_transferred(self, test_day):
        report = DeviceSimulator().replay(test_day)
        assert report.transfers == len(test_day.activities)
        assert report.refused == []

    def test_payload_matches(self, test_day):
        report = DeviceSimulator().replay(test_day)
        expected = sum(a.total_bytes for a in test_day.activities)
        assert report.payload_bytes == pytest.approx(expected)

    def test_monitoring_captured_the_day(self, test_day):
        report = DeviceSimulator().replay(test_day)
        assert len(report.store.screen_sessions) == len(test_day.screen_sessions)
        assert len(report.store.activities) == len(test_day.activities)

    def test_rejects_multiday(self, volunteer):
        with pytest.raises(ValueError, match="single-day"):
            DeviceSimulator().replay(volunteer)


class TestRescheduledReplay:
    def test_netmaster_schedule_through_device(self, history, test_day, wcdma):
        """The DES prices a NetMaster schedule like the analytic path."""
        policy = NetMasterPolicy(history)
        outcome = policy.execute_day(test_day)
        report = DeviceSimulator().replay(
            test_day,
            schedule=outcome.activities,
            tail_policy=TruncatedTail(1.0),
        )
        stock = DeviceSimulator().replay(test_day)
        assert report.energy.energy_j < stock.energy.energy_j
        assert report.transfers == len(outcome.activities)

    def test_data_off_windows_refuse_transfers(self, test_day):
        report = DeviceSimulator().replay(
            test_day, data_off_windows=[(0.0, 86000.0)]
        )
        assert report.transfers < len(test_day.activities)
        assert len(report.refused) > 0

    def test_invalid_off_window(self, test_day):
        with pytest.raises(ValueError, match="window"):
            DeviceSimulator().replay(test_day, data_off_windows=[(100.0, 50.0)])


class TestMonitorToMinerLoop:
    def test_replayed_store_supports_mining(self, test_day):
        """Close the Fig. 6 loop: monitor a replay, mine the store."""
        report = DeviceSimulator().replay(test_day)
        store = report.store
        assert store.n_days() == 1
        probs = store.screen_use_matrix().mean(axis=0)
        assert probs.max() <= 1.0
        assert (probs > 0).any()
        # Special apps can be derived from the monitored records too.
        from repro.habits import SpecialAppRegistry

        registry = SpecialAppRegistry.from_store(store)
        assert registry.special  # at least one app used with traffic
