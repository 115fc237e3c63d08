"""Detector verdicts, self-excluding baselines, checkpoint round-trips."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.detectors import (
    DaySignal,
    DchStuckDetector,
    DetectorBank,
    DriftEscalationDetector,
    MonitorConfig,
    ResidualEnergyDetector,
    RunawayEnergyDetector,
    SavingsCollapseDetector,
    SEVERITY_CRITICAL,
)


def sig(
    day,
    *,
    energy=400.0,
    radio=2000.0,
    transfer=1200.0,
    naive=900.0,
    screen=3000.0,
    events=40,
    drift=0,
    degraded=False,
):
    return DaySignal(
        user_id="u0",
        day=day,
        energy_j=energy,
        radio_on_s=radio,
        transfer_s=transfer,
        naive_energy_j=naive,
        screen_on_s=screen,
        events=events,
        drift_alerts_total=drift,
        degraded=degraded,
    )


class TestMonitorConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"action": "explode"},
            {"runaway_z": 0.0},
            {"residual_z": -1.0},
            {"dch_share_bound": 0.0},
            {"dch_share_bound": 1.5},
            {"collapse_window_days": 0},
            {"collapse_drop": 0.0},
            {"drift_run_days": 0},
            {"quarantine_days": 0},
            {"release_clean_days": -1},
            {"action": "freeze"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            MonitorConfig(**overrides)

    def test_defaults_validate(self):
        assert MonitorConfig().action == "quarantine"


class TestRunawayEnergy:
    def test_quiet_before_min_days(self):
        det = RunawayEnergyDetector(z_threshold=6.0, min_days=4, min_std_j=25.0)
        for day in range(3):
            assert det.feed(sig(day, energy=400.0)) is None
        # Day 3 spikes but only 3 history days are folded: still unarmed.
        assert det.feed(sig(3, energy=50_000.0)) is None

    def test_fires_on_spike_and_excludes_it(self):
        det = RunawayEnergyDetector(z_threshold=6.0, min_days=4, min_std_j=25.0)
        for day in range(6):
            det.feed(sig(day, energy=400.0 + day))  # tiny slope, std floor rules
        first = det.feed(sig(6, energy=5_000.0))
        assert first is not None and first.kind == "runaway_energy"
        assert first.severity == SEVERITY_CRITICAL  # z far past 2x threshold
        # Self-exclusion: the alerted day never teaches the baseline, so
        # the same spike keeps firing with an unchanged mean.
        second = det.feed(sig(7, energy=5_000.0))
        assert second is not None
        assert second.value == pytest.approx(first.value)
        assert det.fired == 2

    def test_std_floor_suppresses_noise_alerts(self):
        det = RunawayEnergyDetector(z_threshold=6.0, min_days=4, min_std_j=25.0)
        for day in range(8):
            det.feed(sig(day, energy=400.0))  # zero variance history
        # +100 J is 4 sigma against the 25 J floor: below threshold.
        assert det.feed(sig(8, energy=500.0)) is None


class TestDchStuck:
    def test_needs_enough_radio_time(self):
        det = DchStuckDetector(share_bound=0.9, min_radio_s=900.0)
        assert det.feed(sig(0, radio=800.0, transfer=800.0)) is None

    def test_fires_above_bound(self):
        det = DchStuckDetector(share_bound=0.9, min_radio_s=900.0)
        assert det.feed(sig(0, radio=2000.0, transfer=1700.0)) is None
        alert = det.feed(sig(1, radio=2000.0, transfer=1960.0))
        assert alert is not None and alert.kind == "dch_stuck"
        assert alert.value == pytest.approx(0.98)
        assert alert.severity == SEVERITY_CRITICAL  # past 0.95 hard point
        assert det.fired == 1


class TestSavingsCollapse:
    def test_fires_when_saving_drops(self):
        det = SavingsCollapseDetector(window_days=3, drop=0.2, min_naive_j=50.0)
        for day in range(4):
            assert det.feed(sig(day, energy=400.0, naive=1000.0)) is None
        alert = det.feed(sig(4, energy=950.0, naive=1000.0))
        assert alert is not None and alert.kind == "savings_collapse"
        # The collapsed day stays out of the window: it keeps firing.
        assert det.feed(sig(5, energy=950.0, naive=1000.0)) is not None

    def test_small_naive_days_are_ignored(self):
        det = SavingsCollapseDetector(window_days=1, drop=0.1, min_naive_j=50.0)
        det.feed(sig(0, energy=10.0, naive=100.0))
        assert det.feed(sig(1, energy=200.0, naive=40.0)) is None


class TestDriftEscalation:
    def test_streak_of_alerting_days_fires(self):
        det = DriftEscalationDetector(run_days=3)
        total = 0
        for day in range(2):
            total += 1
            assert det.feed(sig(day, drift=total)) is None
        total += 1
        alert = det.feed(sig(2, drift=total))
        assert alert is not None and alert.kind == "drift_escalation"
        assert alert.value == 3.0

    def test_flat_day_resets_the_run(self):
        det = DriftEscalationDetector(run_days=3)
        det.feed(sig(0, drift=1))
        det.feed(sig(1, drift=2))
        det.feed(sig(2, drift=2))  # counter did not move
        assert det.feed(sig(3, drift=3)) is None  # streak restarted at 1


class TestResidualEnergy:
    def test_fires_on_overconsumption_vs_learned_model(self):
        det = ResidualEnergyDetector(z_threshold=8.0, min_days=4, min_std_j=25.0)
        # Energy is an exact linear function of usage: residuals ~0.
        for day in range(8):
            s = sig(
                day,
                screen=1000.0 + 137.0 * day,
                events=20 + 3 * day,
                radio=1500.0 + 61.0 * day,
            )
            s = replace(
                s, energy_j=10.0 + 0.1 * s.screen_on_s + 2.0 * s.events + 0.05 * s.radio_on_s
            )
            assert det.feed(s) is None
        spike = sig(8, screen=2000.0, events=44, radio=2000.0, energy=50_000.0)
        alert = det.feed(spike)
        assert alert is not None and alert.kind == "energy_residual"
        # Self-exclusion: residual stats unchanged, so it fires again.
        assert det.feed(replace(spike, day=9)) is not None


# ----------------------------------------------------------------------
# checkpoint round-trips
# ----------------------------------------------------------------------

#: Twitchy thresholds so random streams exercise the firing paths too.
TWITCHY = MonitorConfig(
    runaway_z=0.5,
    runaway_min_days=2,
    runaway_min_std_j=1.0,
    dch_share_bound=0.5,
    dch_min_radio_s=100.0,
    collapse_window_days=2,
    collapse_drop=0.05,
    collapse_min_naive_j=10.0,
    drift_run_days=2,
    residual_z=0.5,
    residual_min_days=2,
    residual_min_std_j=1.0,
)

finite = st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)


@st.composite
def signal_streams(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    out, drift_total = [], 0
    for day in range(n):
        drift_total += draw(st.integers(0, 1))
        radio = draw(finite)
        out.append(
            DaySignal(
                user_id="hyp",
                day=day,
                energy_j=draw(finite),
                radio_on_s=radio,
                transfer_s=radio * draw(st.floats(0.0, 1.0)),
                naive_energy_j=draw(finite),
                screen_on_s=draw(finite),
                events=draw(st.integers(0, 500)),
                drift_alerts_total=drift_total,
                degraded=False,
            )
        )
    return out


class TestCheckpointRoundTrip:
    @given(stream=signal_streams(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bank_resumes_bit_identically_mid_stream(self, stream, data):
        split = data.draw(st.integers(0, len(stream)))
        straight = DetectorBank("hyp", TWITCHY)
        straight_alerts = [a for s in stream for a in straight.feed(s)]

        prefix = DetectorBank("hyp", TWITCHY)
        prefix_alerts = [a for s in stream[:split] for a in prefix.feed(s)]
        # The checkpoint crosses a real JSON boundary, like the WAL does.
        state = json.loads(json.dumps(prefix.state_dict()))
        resumed = DetectorBank.load_state(state, user_id="hyp", config=TWITCHY)
        resumed_alerts = [a for s in stream[split:] for a in resumed.feed(s)]

        assert prefix_alerts + resumed_alerts == straight_alerts
        assert json.dumps(resumed.state_dict(), sort_keys=True) == json.dumps(
            straight.state_dict(), sort_keys=True
        )

    def test_bank_rejects_unknown_state_format(self):
        state = DetectorBank("u", MonitorConfig()).state_dict()
        state["format"] = 99
        with pytest.raises(ValueError, match="format"):
            DetectorBank.load_state(state, user_id="u", config=MonitorConfig())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RunawayEnergyDetector(z_threshold=0.5, min_days=2, min_std_j=1.0),
            lambda: DchStuckDetector(share_bound=0.5, min_radio_s=100.0),
            lambda: SavingsCollapseDetector(window_days=2, drop=0.05, min_naive_j=10.0),
            lambda: DriftEscalationDetector(run_days=2),
            lambda: ResidualEnergyDetector(z_threshold=0.5, min_days=2, min_std_j=1.0),
        ],
    )
    def test_each_detector_roundtrips_alone(self, make):
        stream = [
            sig(day, energy=300.0 + 90.0 * (day % 3), transfer=1960.0, drift=day)
            for day in range(10)
        ]
        straight, resumed = make(), make()
        expected = [straight.feed(s) for s in stream]
        got = [resumed.feed(s) for s in stream[:5]]
        resumed.load_state(json.loads(json.dumps(resumed.state_dict())))
        got += [resumed.feed(s) for s in stream[5:]]
        assert got == expected
