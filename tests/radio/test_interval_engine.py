"""One-lane replay (``simulate`` / radio-on intervals) vs the oracle.

Both are one-lane calls into the lane engine
(:mod:`repro.radio.lanes`), which replaced the per-window Python loops
the RRC accounting started as.  The replacement must be *bit-identical*:
every :class:`EnergyReport` field and every radio-on interval has to
equal the scalar reference walk (``tests/radio/rrc_oracle.py``) on
randomized seeded schedules and on the degenerate edges — empty input,
a single window, zero-length windows, zero/infinite tail allowances.
One-lane inputs take the engine's single-segment shortcut.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.radio import (
    FullTail,
    TruncatedTail,
    lte_model,
    simulate,
    wcdma_model,
)
from repro.radio.lanes import merge_lanes, merge_lanes_with_allowances, pack_lanes
from tests.radio.test_lanes import columns, lane_radio_on
from tests.radio.rrc_oracle import (
    assert_report_matches,
    reference_machine,
    reference_merge,
    reference_merge_with_allowances,
    reference_radio_on,
)

MODELS = [wcdma_model(), lte_model()]


def _random_windows(rng: np.random.Generator):
    n = int(rng.integers(1, 25))
    starts = rng.uniform(0.0, 600.0, n)
    durations = rng.uniform(0.0, 40.0, n)  # includes zero-length windows
    return [(float(s), float(s + d)) for s, d in zip(starts, durations)]


def _random_tails(rng: np.random.Generator, n: int):
    mode = rng.integers(0, 4)
    if mode == 0:
        return [0.0] * n
    if mode == 1:
        return [math.inf] * n
    if mode == 2:
        return [float(t) for t in rng.uniform(0.0, 20.0, n)]
    tails = [float(t) for t in rng.uniform(0.0, 20.0, n)]
    for i in range(n):
        if rng.random() < 0.3:
            tails[i] = math.inf
    return tails


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_simulate_matches_reference_randomized(seed, model):
    rng = np.random.default_rng(2000 + seed)
    for _ in range(25):
        windows = _random_windows(rng)
        merged = reference_merge(windows)
        expected = reference_machine(merged, model, [math.inf] * len(merged))
        assert_report_matches(simulate(windows, model), expected)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_per_window_tails_match_reference_randomized(seed, model):
    rng = np.random.default_rng(3000 + seed)
    for _ in range(25):
        windows = _random_windows(rng)
        tails = _random_tails(rng, len(windows))
        merged, allowances = reference_merge_with_allowances(windows, tails)
        expected = reference_machine(merged, model, allowances)
        assert_report_matches(
            simulate(windows, model, window_tails=tails), expected
        )
        assert lane_radio_on(
            columns(windows), model, window_tails=tails
        ) == reference_radio_on(merged, model, allowances)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_radio_on_intervals_match_reference(seed, model):
    rng = np.random.default_rng(4000 + seed)
    for _ in range(25):
        windows = _random_windows(rng)
        merged = reference_merge(windows)
        for policy in (FullTail(), TruncatedTail(0.0), TruncatedTail(2.5)):
            allowances = [policy.max_tail_s()] * len(merged)
            assert lane_radio_on(
                columns(windows), model, policy
            ) == reference_radio_on(merged, model, allowances)


def test_merge_windows_matches_reference():
    rng = np.random.default_rng(9)
    for _ in range(50):
        windows = _random_windows(rng)
        merged = merge_lanes(pack_lanes([columns(windows)]))
        assert merged.lane(0) == reference_merge(windows)


def test_merge_with_allowances_matches_reference():
    rng = np.random.default_rng(10)
    for _ in range(50):
        windows = _random_windows(rng)
        tails = _random_tails(rng, len(windows))
        merged, allowances = merge_lanes_with_allowances(
            pack_lanes([columns(windows)]), np.asarray(tails, dtype=np.float64)
        )
        assert (merged.lane(0), allowances.tolist()) == (
            reference_merge_with_allowances(windows, tails)
        )


class TestEdgeCases:
    def test_empty(self):
        for model in MODELS:
            report = simulate([], model)
            assert report.energy_j == 0.0
            assert report.window_count == 0
            assert lane_radio_on(([], []), model) == []

    def test_single_window(self):
        model = MODELS[0]
        expected = reference_machine([(5.0, 9.0)], model, [math.inf])
        assert_report_matches(simulate([(5.0, 9.0)], model), expected)

    def test_zero_length_window(self):
        model = MODELS[0]
        merged = reference_merge([(4.0, 4.0)])
        expected = reference_machine(merged, model, [math.inf])
        assert_report_matches(simulate([(4.0, 4.0)], model), expected)

    def test_zero_allowance_everywhere(self):
        model = MODELS[0]
        windows = [(0.0, 2.0), (10.0, 11.0)]
        merged, allowances = reference_merge_with_allowances(windows, [0.0, 0.0])
        expected = reference_machine(merged, model, allowances)
        report = simulate(windows, model, window_tails=[0.0, 0.0])
        assert_report_matches(report, expected)
        assert report.tail_s == 0.0
        assert report.promo_idle_count == 2
