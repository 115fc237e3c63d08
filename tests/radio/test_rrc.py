"""RRC state-machine tests, including Hypothesis invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import (
    FullTail,
    TruncatedTail,
    simulate,
    wcdma_model,
)
from tests.radio.test_lanes import columns, lane_radio_on

MODEL = wcdma_model()


class TestSingleWindow:
    def test_empty(self):
        report = simulate([], MODEL)
        assert report.energy_j == 0.0
        assert report.window_count == 0

    def test_isolated_matches_g(self):
        report = simulate([(100.0, 110.0)], MODEL)
        assert report.energy_j == pytest.approx(MODEL.isolated_transfer_energy_j(10.0))
        assert report.promo_idle_count == 1
        assert report.promo_fach_count == 0

    def test_components(self):
        report = simulate([(0.0, 10.0)], MODEL)
        assert report.transfer_energy_j == pytest.approx(8.0)
        assert report.tail_energy_j == pytest.approx(MODEL.full_tail_energy_j)
        assert report.promo_energy_j == pytest.approx(MODEL.promo_idle_energy_j)
        assert report.transfer_s == 10.0
        assert report.tail_s == pytest.approx(17.0)

    def test_radio_on_time(self):
        report = simulate([(0.0, 10.0)], MODEL)
        assert report.radio_on_s == pytest.approx(10.0 + 17.0 + 2.0)


class TestGapRegimes:
    def test_short_gap_stays_dch(self):
        # Gap of 3 s < DCH tail (5 s): one promo, gap charged at DCH.
        report = simulate([(0.0, 10.0), (13.0, 20.0)], MODEL)
        assert report.promo_idle_count == 1
        assert report.promo_fach_count == 0
        # tail covers the 3 s gap at DCH power plus the final full tail.
        assert report.tail_s == pytest.approx(3.0 + 17.0)

    def test_medium_gap_fach_repromotion(self):
        # Gap of 10 s: 5 s DCH tail + 5 s FACH, then FACH->DCH promo.
        report = simulate([(0.0, 10.0), (20.0, 25.0)], MODEL)
        assert report.promo_idle_count == 1
        assert report.promo_fach_count == 1

    def test_long_gap_full_demotion(self):
        report = simulate([(0.0, 10.0), (100.0, 105.0)], MODEL)
        assert report.promo_idle_count == 2
        assert report.promo_fach_count == 0
        assert report.tail_s == pytest.approx(17.0 + 17.0)

    def test_two_isolated_equals_sum(self):
        single_a = simulate([(0.0, 10.0)], MODEL).energy_j
        single_b = simulate([(1000.0, 1005.0)], MODEL).energy_j
        both = simulate([(0.0, 10.0), (1000.0, 1005.0)], MODEL).energy_j
        assert both == pytest.approx(single_a + single_b)

    def test_overlapping_windows_merge(self):
        merged = simulate([(0.0, 10.0), (5.0, 15.0)], MODEL)
        single = simulate([(0.0, 15.0)], MODEL)
        assert merged.energy_j == pytest.approx(single.energy_j)
        assert merged.window_count == 1


class TestTailPolicies:
    def test_truncation_cuts_energy(self):
        full = simulate([(0.0, 10.0)], MODEL, FullTail())
        cut = simulate([(0.0, 10.0)], MODEL, TruncatedTail(1.0))
        assert cut.energy_j < full.energy_j
        assert cut.tail_s == pytest.approx(1.0)

    def test_zero_guard(self):
        cut = simulate([(0.0, 10.0)], MODEL, TruncatedTail(0.0))
        assert cut.tail_s == 0.0
        assert cut.energy_j == pytest.approx(8.0 + MODEL.promo_idle_energy_j)

    def test_truncation_forces_idle_promotions(self):
        # 10 s gap would stay FACH under full tails, but a 1 s guard
        # forces IDLE, so the second window pays a full promotion.
        report = simulate([(0.0, 10.0), (20.0, 25.0)], MODEL, TruncatedTail(1.0))
        assert report.promo_idle_count == 2

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            TruncatedTail(-1.0)


class TestPerWindowTails:
    def test_matches_global_policies(self):
        windows = [(0.0, 5.0), (100.0, 104.0), (300.0, 301.0)]
        full = simulate(windows, MODEL)
        per_full = simulate(windows, MODEL, window_tails=[math.inf] * 3)
        assert per_full.energy_j == pytest.approx(full.energy_j)
        cut = simulate(windows, MODEL, TruncatedTail(0.5))
        per_cut = simulate(windows, MODEL, window_tails=[0.5] * 3)
        assert per_cut.energy_j == pytest.approx(cut.energy_j)

    def test_mixed_tails_between_extremes(self):
        windows = [(0.0, 5.0), (100.0, 104.0)]
        full = simulate(windows, MODEL).energy_j
        cut = simulate(windows, MODEL, TruncatedTail(0.0)).energy_j
        mixed = simulate(windows, MODEL, window_tails=[0.0, math.inf]).energy_j
        assert cut < mixed < full

    def test_merged_window_takes_last_ender_tail(self):
        # Overlapping windows: the one ending last carries the allowance.
        loose = simulate([(0.0, 5.0), (2.0, 10.0)], MODEL, window_tails=[0.0, math.inf])
        tight = simulate([(0.0, 5.0), (2.0, 10.0)], MODEL, window_tails=[math.inf, 0.0])
        assert loose.energy_j > tight.energy_j

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            simulate([(0.0, 1.0)], MODEL, window_tails=[1.0, 2.0])

    def test_conflicting_policy_rejected(self):
        with pytest.raises(ValueError, match="combined"):
            simulate([(0.0, 1.0)], MODEL, TruncatedTail(1.0), window_tails=[1.0])

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            simulate([(0.0, 1.0)], MODEL, window_tails=[-1.0])


class TestRadioOnIntervals:
    def test_single_window_extended_by_tail(self):
        intervals = lane_radio_on(([0.0], [10.0]), MODEL)
        assert intervals == [(0.0, 27.0)]

    def test_truncated(self):
        intervals = lane_radio_on(([0.0], [10.0]), MODEL, TruncatedTail(1.0))
        assert intervals == [(0.0, 11.0)]

    def test_fusion_within_tail(self):
        intervals = lane_radio_on(([0.0, 15.0], [10.0, 20.0]), MODEL)
        assert len(intervals) == 1

    def test_per_window_tails(self):
        intervals = lane_radio_on(
            ([0.0, 100.0], [10.0, 110.0]), MODEL, window_tails=[0.0, 5.0]
        )
        assert intervals == [(0.0, 10.0), (100.0, 115.0)]


# ----------------------------------------------------------------------
# Hypothesis invariants
# ----------------------------------------------------------------------

window_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=0.1, max_value=60.0),
    ).map(lambda p: (p[0], p[0] + p[1])),
    min_size=1,
    max_size=12,
)


@given(windows=window_lists)
@settings(max_examples=60, deadline=None)
def test_truncation_never_costs_more(windows):
    """Forcing the radio off early can only save energy and radio time."""
    full = simulate(windows, MODEL)
    cut = simulate(windows, MODEL, TruncatedTail(0.5))
    assert cut.energy_j <= full.energy_j + 1e-9
    assert cut.radio_on_s <= full.radio_on_s + 1e-9


@given(windows=window_lists)
@settings(max_examples=60, deadline=None)
def test_energy_positive_and_consistent(windows):
    """Energy decomposition always sums to the total."""
    report = simulate(windows, MODEL)
    assert report.energy_j > 0
    parts = sum(report.state_energy_j.values())
    assert report.energy_j == pytest.approx(parts)


@given(windows=window_lists, extra_start=st.floats(min_value=0.0, max_value=5000.0))
@settings(max_examples=60, deadline=None)
def test_adding_work_never_saves_energy(windows, extra_start):
    """Superset of transfer windows costs at least as much, up to promos.

    Strict monotonicity is false for RRC models with promotion energies:
    a new window can bridge a gap that previously demoted the radio,
    eliminating one re-promotion (e.g. windows (0,1) and (7,8) plus a new
    (1,2) can turn a FACH demotion + promotion into cheaper tail time).
    A 1-second window bridges at most one promo-bearing gap, so the
    saving is bounded by the larger promotion energy.
    """
    base = simulate(windows, MODEL).energy_j
    more = simulate(windows + [(extra_start, extra_start + 1.0)], MODEL).energy_j
    promo_slack = max(MODEL.promo_idle_energy_j, MODEL.promo_fach_energy_j)
    assert more >= base - promo_slack - 1e-9


@given(windows=window_lists)
@settings(max_examples=60, deadline=None)
def test_radio_on_intervals_cover_transfers(windows):
    """Every transfer second lies inside a radio-on interval."""
    intervals = lane_radio_on(columns(windows), MODEL)
    for start, end in windows:
        assert any(lo <= start and end <= hi for lo, hi in intervals)
