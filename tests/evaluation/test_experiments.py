"""Shape tests for every paper experiment (Figs. 1-10, §VI-B, Lemma IV.1).

These assert the *qualitative* results the paper reports: who wins, the
rough factors, where curves saturate or cross.  Exact paper numbers are
recorded in EXPERIMENTS.md; the tolerances here are deliberately loose so
the suite stays robust to seed changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._util import DAY
from repro.evaluation import (
    approximation_ratio,
    fig1a,
    fig1b,
    fig2,
    fig3,
    fig4,
    fig5,
    fig7,
    fig8,
    fig9,
    fig10a,
    fig10b,
    fig10c,
    interactions_in_short_gaps,
    split_history,
    user_experience,
)
from repro.traces import generate_cohort, generate_volunteers

from tests.traces.strategies import valid_traces


class TestMotivationFigures:
    def test_fig1a_screen_off_share(self):
        result = fig1a(n_days=7)
        assert len(result.off_fractions) == 8
        assert 0.3 < result.average_off_fraction < 0.55  # paper: 0.4098

    def test_fig1b_rate_percentiles(self):
        result = fig1b(n_days=7)
        assert result.p90_off_kbps < 1.5  # paper: < 1 kBps
        assert result.p90_on_kbps < 6.0  # paper: < 5 kBps
        assert result.p90_off_kbps < result.p90_on_kbps
        assert np.all(np.diff(result.cdf_screen_on) >= 0)

    def test_fig2_utilization(self):
        result = fig2(n_days=7)
        assert 0.3 < result.average_utilization < 0.6  # paper: 0.4514
        for total, used in zip(result.avg_session_s, result.avg_utilized_s):
            assert 0 < used < total

    def test_fig3_cross_user_low(self):
        result = fig3(n_days=7)
        assert result.matrix.shape == (8, 8)
        assert result.average < 0.35  # paper: 0.1353

    def test_fig4_intra_user_high(self):
        result = fig4(n_days=14)
        assert result.matrix.shape == (8, 8)
        assert result.average > 0.35  # paper: 0.8171
        assert result.average > fig3(n_days=7).average

    def test_fig5_special_app_dominance(self):
        result = fig5()
        assert result.n_installed == 23
        assert 4 <= result.n_active <= 10  # paper: 8
        assert result.top_app == "com.tencent.mm"
        assert result.top_share > 0.4  # paper: 0.59


@pytest.fixture(scope="module")
def fig7_result():
    return fig7()


class TestFig7:
    def test_netmaster_saving_large(self, fig7_result):
        assert fig7_result.netmaster_mean_saving > 0.55  # paper: 0.778

    def test_ordering_netmaster_beats_delay_batch(self, fig7_result):
        # Paper: 77.8% vs 22.5% — NetMaster wins by ~3x.
        assert (
            fig7_result.netmaster_mean_saving
            > 2.0 * fig7_result.delay_batch_mean_saving
        )

    def test_delay_batch_positive_but_modest(self, fig7_result):
        assert 0.1 < fig7_result.delay_batch_mean_saving < 0.35  # paper: 0.2254

    def test_near_oracle(self, fig7_result):
        assert fig7_result.worst_oracle_gap < 0.2  # paper worst: 0.112
        assert fig7_result.netmaster_mean_saving > 0.85 * fig7_result.oracle_mean_saving

    def test_radio_time_saving(self, fig7_result):
        assert 0.6 < fig7_result.mean_radio_time_saving < 0.9  # paper: 0.7539

    def test_bandwidth_ratios(self, fig7_result):
        assert fig7_result.mean_down_ratio > 2.0  # paper: 3.84
        assert fig7_result.mean_up_ratio > 2.0  # paper: 2.63
        # Peak rates are channel-bound: no scheduler raises them.
        assert 0.8 < fig7_result.mean_peak_down_ratio < 1.3
        assert 0.8 < fig7_result.mean_peak_up_ratio < 1.3

    def test_every_volunteer_covered(self, fig7_result):
        assert [v.user_id for v in fig7_result.volunteers] == [
            "volunteer1",
            "volunteer2",
            "volunteer3",
        ]
        for vol in fig7_result.volunteers:
            assert set(vol.energy_saving) == {
                "baseline",
                "oracle",
                "netmaster",
                "delay-batch-10s",
                "delay-batch-20s",
                "delay-batch-60s",
            }
            assert vol.energy_saving["baseline"] == 0.0


@pytest.fixture(scope="module")
def fig8_result():
    return fig8(delays_s=(0.0, 5.0, 60.0, 300.0, 600.0))


class TestFig8:
    def test_small_delay_saves_nothing(self, fig8_result):
        assert abs(fig8_result.energy_saving[1]) < 0.02  # 5 s

    def test_savings_grow_with_interval(self, fig8_result):
        assert fig8_result.energy_saving[-1] > fig8_result.energy_saving[1]
        assert fig8_result.energy_saving[-1] > 0.02  # paper @600s: 0.092

    def test_user_impact_grows_with_interval(self, fig8_result):
        affected = fig8_result.affected_ratio
        assert affected[-1] > affected[1]
        assert affected[-1] > 0.03  # paper: > 0.40 at 600 s

    def test_gap_cannot_be_filled(self, fig8_result):
        """The paper's conclusion: no delay both saves much and affects
        few users."""
        for saving, affected in zip(
            fig8_result.energy_saving, fig8_result.affected_ratio
        ):
            assert not (saving > 0.4 and affected < 0.01)

    def test_interactions_in_short_gaps(self, fig8_result):
        # Paper: 17% of interactions fall within 100 s of the previous one.
        assert 0.05 < fig8_result.interactions_within_100s_gaps < 0.4

    def test_helper_counts(self, history_and_days):
        _, days = history_and_days
        tight = interactions_in_short_gaps(days, 1.0)
        loose = interactions_in_short_gaps(days, 10_000.0)
        assert tight <= loose <= 1.0


@pytest.fixture(scope="module")
def fig9_result():
    return fig9(batch_sizes=(0, 2, 3, 5, 10))


class TestFig9:
    def test_batching_saves(self, fig9_result):
        assert fig9_result.radio_time_saving[-1] > 0.08  # paper: 0.177

    def test_saturates_past_five(self, fig9_result):
        """Paper: no improvement past 5 batched activities."""
        at5 = fig9_result.energy_saving[3]
        at10 = fig9_result.energy_saving[4]
        assert at10 - at5 < 0.05

    def test_monotone_up_to_five(self, fig9_result):
        savings = fig9_result.energy_saving[:4]  # sizes 0,2,3,5
        assert savings == sorted(savings)

    def test_interrupts_stay_low(self, fig9_result):
        # The batch method flushes on screen-on, keeping impact ≤ 1%.
        assert all(a <= 0.05 for a in fig9_result.affected_ratio)


class TestFig10:
    def test_fig10a_longer_sleep_lower_fraction(self):
        result = fig10a()
        for k_idx in range(len(result.wakeup_counts)):
            column = [result.fractions[t][k_idx] for t in result.sleep_intervals_s]
            assert column == sorted(column, reverse=True)

    def test_fig10a_fraction_decreases_with_wakeups(self):
        result = fig10a()
        for t in result.sleep_intervals_s:
            series = result.fractions[t]
            assert series[-1] <= series[0]

    def test_fig10b_exponential_wins(self):
        result = fig10b()
        assert result.exponential[-1] < result.fixed[-1] / 5
        assert result.exponential[-1] < result.random[-1] / 5

    def test_fig10b_counts_monotone(self):
        result = fig10b()
        for series in (result.exponential, result.fixed, result.random):
            assert series == sorted(series)

    def test_fig10c_tradeoff(self):
        result = fig10c(thresholds=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
        # Accuracy never increases with δ; energy saving never decreases
        # (within small numerical wiggle).
        acc = result.accuracy
        sav = result.energy_saving
        assert acc[0] >= acc[-1]
        assert sav[-1] >= sav[0] - 0.02
        assert 0.0 <= result.crossover <= 0.5


class TestUserExperience:
    def test_interrupt_ratio_below_one_percent(self):
        result = user_experience()
        assert result.user_interactions > 100
        assert result.interrupt_ratio < 0.01  # paper: < 1%


class TestApproximationRatio:
    def test_lemma_bound_holds(self):
        result = approximation_ratio(trials=40)
        assert result.trials == 40
        assert result.worst_ratio >= result.bound
        assert result.mean_ratio > 0.8  # typically near-optimal in practice


class TestSplitHistory:
    def test_split_shapes(self, volunteer):
        history, days = split_history(volunteer, 10)
        assert history.n_days == 10
        assert len(days) == volunteer.n_days - 10
        assert all(d.n_days == 1 for d in days)

    def test_split_bounds(self, volunteer):
        with pytest.raises(ValueError):
            split_history(volunteer, 0)
        with pytest.raises(ValueError):
            split_history(volunteer, volunteer.n_days)

    @settings(max_examples=200, deadline=None)
    @given(trace=valid_traces(), data=st.data())
    def test_history_keeps_screen_time_before_the_cut(self, trace, data):
        assume(trace.n_days > 1)
        cut = data.draw(st.integers(min_value=1, max_value=trace.n_days - 1))
        history, days = split_history(trace, cut)
        assert history.total_screen_on_time() == _screen_time_before(trace, cut * DAY)
        assert len(days) == trace.n_days - cut

    @pytest.mark.parametrize(
        "traces",
        [
            pytest.param(lambda: generate_volunteers(14, seed=0), id="volunteers-seed0"),
            pytest.param(lambda: generate_cohort(21, seed=15), id="cohort-seed15"),
        ],
    )
    def test_session_crossing_the_cut_is_clipped(self, traces):
        crossed = 0
        for trace in traces():
            cut = 10 * DAY
            crossed += any(s.start < cut < s.end for s in trace.screen_sessions)
            history, _ = split_history(trace, 10)
            assert history.total_screen_on_time() == _screen_time_before(trace, cut)
        assert crossed  # the seed exercises the clip


def _screen_time_before(trace, cut: float) -> float:
    return sum(min(s.end, cut) - s.start for s in trace.screen_sessions if s.start < cut)
