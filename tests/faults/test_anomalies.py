"""AnomalyInjector: determinism, trace invariants, placement semantics."""

from __future__ import annotations

import pytest

from repro._util import DAY
from repro.faults import AnomalyInjector


def _added(clean, injected):
    """Activities present in the injected trace but not the clean one."""
    remaining = list(clean.activities)
    out = []
    for a in injected.activities:
        if a in remaining:
            remaining.remove(a)
        else:
            out.append(a)
    return out


class TestDeterminism:
    def test_same_seed_same_trace(self, volunteer):
        a = AnomalyInjector(seed=7).runaway_app(volunteer, start_day=8)
        b = AnomalyInjector(seed=7).runaway_app(volunteer, start_day=8)
        assert a.activities == b.activities
        c = AnomalyInjector(seed=7).stuck_dch(volunteer, start_day=8)
        d = AnomalyInjector(seed=7).stuck_dch(volunteer, start_day=8)
        assert c.activities == d.activities

    def test_different_seed_different_placement(self, volunteer):
        a = AnomalyInjector(seed=7).runaway_app(volunteer, start_day=8)
        b = AnomalyInjector(seed=8).runaway_app(volunteer, start_day=8)
        assert a.activities != b.activities

    def test_invocation_counter_decorrelates_repeat_injections(self, volunteer):
        # The same injector re-injecting the same trace advances its
        # Philox counter: independent placements, both still valid.
        injector = AnomalyInjector(seed=7)
        first = injector.runaway_app(volunteer, start_day=8)
        second = injector.runaway_app(volunteer, start_day=8)
        assert injector.injected == 2
        assert first.activities != second.activities


class TestRunawayApp:
    def test_adds_the_advertised_bursts_from_onset(self, volunteer):
        injected = AnomalyInjector(seed=7).runaway_app(
            volunteer, start_day=8, bursts_per_day=16
        )
        added = _added(volunteer, injected)
        assert len(added) == 16 * (volunteer.n_days - 8)
        assert all(a.time >= 8 * DAY for a in added)
        assert all(a.app == "com.devourer.sync" for a in added)
        # Construction re-validated every trace invariant already; spot
        # check the provenance flag the validator enforces.
        assert all(
            a.screen_on == volunteer.screen_on_at(a.time) for a in added
        )

    def test_rejects_out_of_range_onset(self, volunteer):
        with pytest.raises(ValueError, match="start_day"):
            AnomalyInjector().runaway_app(volunteer, start_day=volunteer.n_days)
        with pytest.raises(ValueError, match="start_day"):
            AnomalyInjector().runaway_app(volunteer, start_day=-1)

    def test_clean_trace_is_not_mutated(self, volunteer):
        n_before = len(volunteer.activities)
        AnomalyInjector(seed=7).runaway_app(volunteer, start_day=8)
        assert len(volunteer.activities) == n_before


class TestStuckDch:
    def test_holds_start_inside_screen_sessions(self, volunteer):
        injected = AnomalyInjector(seed=7).stuck_dch(
            volunteer, start_day=8, holds_per_day=4, hold_s=1800.0
        )
        added = _added(volunteer, injected)
        assert added, "the volunteer trace should admit at least one hold"
        for hold in added:
            # Foreground placement is the whole point: a screen-off hold
            # would be compressed to sub-second carrier-speed transfers.
            assert hold.screen_on
            assert volunteer.screen_on_at(hold.time)
            assert hold.duration == 1800.0
            # Each hold fits inside its day horizon.
            assert hold.time + hold.duration <= volunteer.n_days * DAY

    def test_at_most_holds_per_day(self, volunteer):
        injected = AnomalyInjector(seed=7).stuck_dch(
            volunteer, start_day=8, holds_per_day=3
        )
        added = _added(volunteer, injected)
        per_day: dict[int, int] = {}
        for hold in added:
            day = int(hold.time // DAY)
            assert day >= 8
            per_day[day] = per_day.get(day, 0) + 1
        assert per_day and max(per_day.values()) <= 3

    def test_rejects_out_of_range_onset(self, volunteer):
        with pytest.raises(ValueError, match="start_day"):
            AnomalyInjector().stuck_dch(volunteer, start_day=99)
