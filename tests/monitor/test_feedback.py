"""The quarantine state machine: trigger, hold, hysteresis, no-op apply."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.monitor.detectors import DaySignal, MonitorConfig
from repro.monitor.feedback import UserMonitor

#: DCH-stuck is the only default detector with no warm-up period, so a
#: crafted share drives the machine deterministically from day 0.
CONFIG = MonitorConfig(quarantine_days=3, release_clean_days=2)


def sig(day, *, stuck=False):
    radio = 2000.0
    return DaySignal(
        user_id="u0",
        day=day,
        energy_j=400.0,
        radio_on_s=radio,
        transfer_s=radio * (0.99 if stuck else 0.7),
        naive_energy_j=900.0,
        screen_on_s=3000.0,
        events=40,
        drift_alerts_total=0,
        degraded=False,
    )


def engine(day=10):
    return SimpleNamespace(day=day, quarantined_until=0)


class TestHysteresis:
    def test_trigger_hold_release(self):
        m = UserMonitor("u0", CONFIG)
        assert m.feed(None, [sig(0)]) == []
        assert not m.active

        alerts = m.feed(None, [sig(1, stuck=True)])
        assert [a.kind for a in alerts] == ["dch_stuck"]
        assert m.active and m.quarantines == 1

        # Two clean days: served < quarantine_days, still held.
        m.feed(None, [sig(2), sig(3)])
        assert m.active and m.served == 2
        # Third clean day satisfies both served and clean bounds.
        m.feed(None, [sig(4)])
        assert not m.active

    def test_alert_during_probation_rearms(self):
        m = UserMonitor("u0", CONFIG)
        m.feed(None, [sig(0, stuck=True), sig(1), sig(2)])
        assert m.active and m.served == 2
        m.feed(None, [sig(3, stuck=True)])  # re-offend on the last day
        assert m.served == 0 and m.clean == 0
        assert m.quarantines == 1  # one continuous hold, not a new one
        m.feed(None, [sig(4), sig(5)])
        assert m.active  # the sentence restarted
        m.feed(None, [sig(6)])
        assert not m.active

    def test_release_needs_clean_run_not_just_served_days(self):
        config = MonitorConfig(quarantine_days=1, release_clean_days=3)
        m = UserMonitor("u0", config)
        m.feed(None, [sig(0, stuck=True)])
        m.feed(None, [sig(1), sig(2)])
        assert m.active  # served >= 1 but clean run is only 2
        m.feed(None, [sig(3)])
        assert not m.active


class TestApply:
    def test_quarantine_writes_the_window_while_active(self):
        m = UserMonitor("u0", CONFIG)
        m.feed(None, [sig(0, stuck=True)])
        eng = engine(day=12)
        m.apply(eng)
        assert eng.quarantined_until == 12 + 1 + CONFIG.quarantine_days

    def test_quiet_monitor_writes_zero(self):
        # The byte-equality invariant: an inactive monitor writes the
        # value the engine already holds.
        m = UserMonitor("u0", CONFIG)
        m.feed(None, [sig(0)])
        eng = engine()
        m.apply(eng)
        assert eng.quarantined_until == 0

    def test_none_action_never_touches_the_engine(self):
        m = UserMonitor("u0", MonitorConfig(action="none"))
        m.feed(None, [sig(0, stuck=True)])
        eng = SimpleNamespace(day=5, quarantined_until=-1)
        m.apply(eng)
        assert eng.quarantined_until == -1

    def test_feed_applies_feedback_when_engine_is_passed(self):
        m = UserMonitor("u0", CONFIG)
        eng = engine(day=3)
        m.feed(eng, [sig(0, stuck=True)])
        assert eng.quarantined_until == 3 + 1 + CONFIG.quarantine_days


class TestCheckpoint:
    def test_roundtrip_mid_hold_resumes_identically(self):
        stream = [sig(0), sig(1, stuck=True), sig(2), sig(3, stuck=True)] + [
            sig(d) for d in range(4, 10)
        ]
        straight = UserMonitor("u0", CONFIG)
        expected = [straight.feed(None, [s]) for s in stream]

        m = UserMonitor("u0", CONFIG)
        got = [m.feed(None, [s]) for s in stream[:3]]
        state = json.loads(json.dumps(m.state_dict()))
        resumed = UserMonitor.load_state(state, user_id="u0", config=CONFIG)
        assert resumed.active and resumed.served == 1
        got += [resumed.feed(None, [s]) for s in stream[3:]]

        assert got == expected
        assert json.dumps(resumed.state_dict(), sort_keys=True) == json.dumps(
            straight.state_dict(), sort_keys=True
        )
        assert resumed.alerts_total == straight.alerts_total == 2

    def test_rejects_unknown_format(self):
        state = UserMonitor("u0").state_dict()
        state["format"] = 0
        with pytest.raises(ValueError, match="format"):
            UserMonitor.load_state(state, user_id="u0")
