"""Tests for trace-level energy accounting."""

from __future__ import annotations

import pytest

from repro.radio import (
    activities_energy,
    activity_windows,
    wcdma_model,
)
from repro.traces import NetworkActivity
from tests.radio.rrc_oracle import assert_report_matches, trace_energy

MODEL = wcdma_model()


def _act(t=100.0, dur=10.0, down=5000.0, up=1000.0, on=True):
    return NetworkActivity(t, "app", down, up, dur, on)


class TestActivityEnergy:
    def test_windows(self):
        acts = [_act(0.0), _act(100.0)]
        assert activity_windows(acts) == [(0.0, 10.0), (100.0, 110.0)]

    def test_single_activity(self):
        report = activities_energy([_act()], MODEL)
        assert report.energy_j == pytest.approx(MODEL.isolated_transfer_energy_j(10.0))

    def test_trace_energy_equals_activity_energy(self, tiny_trace):
        assert_report_matches(
            activities_energy(tiny_trace.activities, MODEL),
            trace_energy(tiny_trace, MODEL),
        )

    def test_isolated_and_delta(self):
        act = _act(dur=8.0)
        # Merging saves the promotion and the tail, never the transfer.
        isolated = activities_energy([act], MODEL).energy_j
        assert 0.0 < MODEL.saved_energy_j(act.duration) < isolated
