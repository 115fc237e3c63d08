"""The lane engine vs the scalar oracle, stage by stage and end to end.

``radio.lanes`` batches many independent replay problems into one set of
array passes; the contract is *bit-identity per lane* with the scalar
reference walk in ``tests/radio/rrc_oracle.py``, and batched results
must equal one-lane calls (``simulate`` / :func:`lane_radio_on`) —
a lane never depends on its neighbours.  The engine takes each lane as
``(starts, ends)`` columns; the grids here are drawn as ``(start, end)``
windows, the oracle's form, and handed to the engine through
:func:`columns`.  The list-of-tuples packer the columns replaced is
the packing oracle (:func:`tuple_pack_lanes`).  Random ragged grids
cover empty lanes, one-lane grids and single-window lanes (the
single-segment shortcut), zero-length windows, and lanes whose windows
bridge promo-bearing gaps; every comparison is exact equality, never
approximate.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
import pytest

from repro._util import total_length
from repro.radio import (
    FullTail,
    TruncatedTail,
    lte_model,
    simulate,
    wcdma_model,
)
from repro.radio.lanes import (
    decompose_lanes,
    extend_lanes_by_tails,
    lane_serial_sums,
    merge_lanes,
    merge_lanes_with_allowances,
    pack_lanes,
    replay_many_lengths,
    segmented_cummax,
)
from repro.telemetry import isolated
from tests.radio.rrc_oracle import (
    reference_decomposition,
    reference_merge,
    reference_merge_with_allowances,
    reference_radio_on,
    reference_sequential_sum,
)

MODELS = [wcdma_model(), lte_model()]


def columns(windows):
    """``(start, end)`` windows as one engine lane: ``(starts, ends)``."""
    return [start for start, _ in windows], [end for _, end in windows]


def tuple_pack_lanes(window_lists):
    """The packer the column lanes replaced: one list of ``(start, end)``
    tuples per lane, flattened through one interleaved array.  Returns
    ``(starts, ends, offsets)``."""
    n_lanes = len(window_lists)
    counts = np.fromiter((len(w) for w in window_lists), dtype=np.intp, count=n_lanes)
    offsets = np.zeros(n_lanes + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0), np.empty(0), offsets
    flat = []
    for w in window_lists:
        flat.extend(w)
    stacked = np.fromiter(
        chain.from_iterable(flat), dtype=np.float64, count=2 * total
    ).reshape(-1, 2)
    return (
        np.ascontiguousarray(stacked[:, 0]),
        np.ascontiguousarray(stacked[:, 1]),
        offsets,
    )


def lane_radio_on(lane, model, tail_policy=None, *, window_tails=None):
    """The engine's radio-on intervals of one ``(starts, ends)`` lane:
    what ``replay_many_lengths`` keeps for it."""
    [(_, _, on)] = replay_many_lengths(
        [lane], model, [tail_policy], window_tails=[window_tails], keep_intervals=[True]
    )
    return on


def _random_lane(rng: np.random.Generator) -> list[tuple[float, float]]:
    """One lane's windows; gap scale spans stay-DCH through IDLE promos."""
    n = int(rng.integers(0, 14))
    if n == 0:
        return []
    # Spread controls gap sizes relative to the tail timers: tight packs
    # fuse, mid packs promote from FACH, wide packs demote to IDLE.
    spread = float(rng.choice([30.0, 120.0, 900.0]))
    starts = rng.uniform(0.0, spread, n)
    durations = rng.uniform(0.0, 10.0, n)
    durations[rng.random(n) < 0.2] = 0.0  # zero-length windows
    return [(float(s), float(s + d)) for s, d in zip(starts, durations)]


def _random_grid(rng: np.random.Generator) -> list[list[tuple[float, float]]]:
    shape = rng.random()
    if shape < 0.2:
        # One lane: every pass sees a single segment.
        return [_random_lane(rng)]
    if shape < 0.3:
        # Single-window lanes: every segment has length one.
        return [_random_lane(rng)[:1] for _ in range(int(rng.integers(1, 6)))]
    n_lanes = int(rng.integers(0, 10))
    return [_random_lane(rng) for _ in range(n_lanes)]


def _random_tails(rng: np.random.Generator, n: int) -> list[float]:
    tails = [float(t) for t in rng.uniform(0.0, 20.0, n)]
    for i in range(n):
        r = rng.random()
        if r < 0.2:
            tails[i] = 0.0
        elif r < 0.4:
            tails[i] = math.inf
    return tails


def _flat_tails(per_lane: list[list[float]]) -> np.ndarray:
    return np.asarray([t for ts in per_lane for t in ts], dtype=np.float64)


def _assert_decomp_equal(lane_decomp, merged, ref):
    assert lane_decomp.n_lanes == 1
    assert lane_decomp.starts.tolist() == [s for s, _ in merged]
    assert lane_decomp.ends.tolist() == [e for _, e in merged]
    for name, want in ref.items():
        assert getattr(lane_decomp, name).tolist() == want, name


# ----------------------------------------------------------------------
# kernel primitives
# ----------------------------------------------------------------------


def test_segmented_cummax_matches_per_segment_accumulate():
    rng = np.random.default_rng(50)
    for trial in range(100):
        n = int(rng.integers(1, 60))
        values = rng.uniform(-100.0, 100.0, n)
        # Every fourth trial is one segment: the accumulate shortcut.
        head = rng.random(n) < (0.0 if trial % 4 == 0 else 0.25)
        head[0] = True
        out = segmented_cummax(values, head)
        expected = np.empty(n)
        start = 0
        for i in range(1, n + 1):
            if i == n or head[i]:
                expected[start:i] = np.maximum.accumulate(values[start:i])
                start = i
        assert np.array_equal(out, expected)


def test_lane_sequential_sums_match_sequential_sum():
    """Each lane's total equals a plain left-to-right ``+=`` loop."""
    rng = np.random.default_rng(51)
    for _ in range(100):
        n_lanes = int(rng.integers(1, 9))
        counts = rng.integers(0, 12, n_lanes)
        offsets = np.zeros(n_lanes + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        n = int(offsets[-1])
        rows = rng.uniform(0.0, 1e6, (3, n))
        initials = (0.0, float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        totals = lane_serial_sums(rows, offsets, initials)
        for j in range(3):
            for i in range(n_lanes):
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                assert totals[j, i] == reference_sequential_sum(
                    rows[j, lo:hi].tolist(), initial=initials[j]
                )


# ----------------------------------------------------------------------
# pipeline stages vs the scalar oracle
# ----------------------------------------------------------------------


def test_merge_lanes_matches_per_lane_merge():
    rng = np.random.default_rng(52)
    for _ in range(60):
        grid = _random_grid(rng)
        merged = merge_lanes(pack_lanes([columns(lane) for lane in grid]))
        assert merged.n_lanes == len(grid)
        for i, lane in enumerate(grid):
            assert merged.lane(i) == reference_merge(lane)


def test_merge_lanes_with_allowances_matches_per_lane():
    rng = np.random.default_rng(53)
    for _ in range(60):
        grid = _random_grid(rng)
        tails = [_random_tails(rng, len(lane)) for lane in grid]
        merged, allow = merge_lanes_with_allowances(
            pack_lanes([columns(lane) for lane in grid]), _flat_tails(tails)
        )
        for i, lane in enumerate(grid):
            ref_m, ref_a = reference_merge_with_allowances(lane, tails[i])
            lo, hi = int(merged.offsets[i]), int(merged.offsets[i + 1])
            assert merged.lane(i) == ref_m
            assert allow[lo:hi].tolist() == ref_a


@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_decompose_and_extend_match_per_lane(model):
    rng = np.random.default_rng(54)
    for _ in range(40):
        grid = _random_grid(rng)
        tails = [_random_tails(rng, len(lane)) for lane in grid]
        merged, allow = merge_lanes_with_allowances(
            pack_lanes([columns(lane) for lane in grid]), _flat_tails(tails)
        )
        decomp = decompose_lanes(
            merged, allow, tail_s=model.tail_s, dch_tail_s=model.dch_tail_s
        )
        extended = extend_lanes_by_tails(decomp)
        for i, lane in enumerate(grid):
            ref_m, ref_a = reference_merge_with_allowances(lane, tails[i])
            ref = reference_decomposition(ref_m, model, ref_a)
            _assert_decomp_equal(decomp.lane(i), ref_m, ref)
            assert extended.lane(i) == reference_radio_on(ref_m, model, ref_a)


# ----------------------------------------------------------------------
# full batched pricing vs one-lane simulate / lane_radio_on
# ----------------------------------------------------------------------


def _random_priced_grid(rng: np.random.Generator):
    """A random grid with a tail mode per lane, and which lanes keep
    their radio-on intervals: ``(grid, policies, window_tails, keep)``."""
    grid = _random_grid(rng)
    policies: list = []
    window_tails: list = []
    for lane in grid:
        mode = int(rng.integers(0, 4))
        if mode == 0:
            policies.append(None)
            window_tails.append(None)
        elif mode == 1:
            policies.append(FullTail())
            window_tails.append(None)
        elif mode == 2:
            policies.append(TruncatedTail(float(rng.uniform(0.0, 8.0))))
            window_tails.append(None)
        else:
            policies.append(None)
            window_tails.append(_random_tails(rng, len(lane)))
    keep = [bool(rng.integers(0, 2)) for _ in grid]
    return grid, policies, window_tails, keep


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_replay_many_matches_per_lane_simulate(seed, model):
    rng = np.random.default_rng(6000 + seed)
    for _ in range(12):
        grid, policies, window_tails, keep = _random_priced_grid(rng)
        results = replay_many_lengths(
            [columns(lane) for lane in grid],
            model,
            policies,
            window_tails=window_tails,
            keep_intervals=keep,
        )
        assert len(results) == len(grid)
        for i, lane in enumerate(grid):
            ref_report = simulate(
                lane, model, policies[i], window_tails=window_tails[i]
            )
            ref_on = lane_radio_on(
                columns(lane), model, policies[i], window_tails=window_tails[i]
            )
            report, length, on = results[i]
            assert report == ref_report
            assert length == total_length(ref_on)
            assert on == (ref_on if keep[i] else None)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("model", MODELS, ids=["wcdma", "lte"])
def test_simulate_equals_the_column_call(seed, model):
    """``simulate`` takes ``(start, end)`` windows and hands the engine
    their columns: on every lane of the property above it equals the
    one-lane column call."""
    rng = np.random.default_rng(6000 + seed)
    for _ in range(12):
        grid, policies, window_tails, _ = _random_priced_grid(rng)
        for lane, policy, tails in zip(grid, policies, window_tails):
            [(report, _, _)] = replay_many_lengths(
                [columns(lane)], model, [policy], window_tails=[tails], keep_intervals=[False]
            )
            assert simulate(lane, model, policy, window_tails=tails) == report


def test_pack_lanes_equals_the_tuple_packer():
    """Packing columns gives the same arrays, bit for bit, as packing the
    same windows as ``(start, end)`` tuples did."""
    rng = np.random.default_rng(56)
    for _ in range(100):
        grid = _random_grid(rng)
        packed = pack_lanes([columns(lane) for lane in grid])
        starts, ends, offsets = tuple_pack_lanes(grid)
        assert packed.starts.tobytes() == starts.tobytes()
        assert packed.ends.tobytes() == ends.tobytes()
        assert packed.starts.dtype == packed.ends.dtype == np.float64
        assert packed.offsets.tolist() == offsets.tolist()


def test_telemetry_counters_match_per_lane_totals():
    rng = np.random.default_rng(55)
    grid = _random_grid(rng)
    while not grid or all(not lane for lane in grid):
        grid = _random_grid(rng)
    model = MODELS[0]
    with isolated(with_tracing=False) as (reg, _):
        for lane in grid:
            simulate(lane, model)
        per_lane = reg.snapshot()["counters"]
    with isolated(with_tracing=False) as (reg, _):
        replay_many_lengths(
            [columns(lane) for lane in grid], model, keep_intervals=[False] * len(grid)
        )
        columnar = reg.snapshot()["counters"]
    assert columnar == per_lane


class TestEdges:
    def test_no_lanes(self):
        assert replay_many_lengths([], MODELS[0], keep_intervals=[]) == []

    def test_all_lanes_empty(self):
        results = replay_many_lengths(
            [([], [])] * 3, MODELS[0], keep_intervals=[True] * 3
        )
        for report, length, on in results:
            assert report == simulate([], MODELS[0])
            assert (length, on) == (0.0, [])

    def test_single_window_lanes(self):
        grid = [[(5.0, 9.0)], [], [(4.0, 4.0)]]
        results = replay_many_lengths(
            [columns(lane) for lane in grid], MODELS[0], keep_intervals=[True] * 3
        )
        for (report, _, on), lane in zip(results, grid):
            assert report == simulate(lane, MODELS[0])
            assert on == lane_radio_on(columns(lane), MODELS[0])

    def test_promo_bridging_gaps(self):
        # Gaps straddling the DCH and total tail timers on either model:
        # stay-DCH, FACH re-promotion, and IDLE re-promotion in one lane.
        for model in MODELS:
            lane = [
                (0.0, 1.0),
                (1.0 + model.dch_tail_s / 2, 2.0 + model.dch_tail_s / 2),
                (10.0 + model.tail_s / 2, 11.0 + model.tail_s / 2),
                (100.0 + 3 * model.tail_s, 101.0 + 3 * model.tail_s),
            ]
            grid = [lane, lane[:2], lane[2:]]
            results = replay_many_lengths(
                [columns(windows) for windows in grid], model, keep_intervals=[True] * 3
            )
            for (report, _, on), windows in zip(results, grid):
                assert report == simulate(windows, model)
                assert on == lane_radio_on(columns(windows), model)

    def test_bad_window_raises_like_per_lane(self):
        grid = [[(0.0, 1.0)], [(5.0, 2.0)]]
        with pytest.raises(ValueError) as batch_err:
            replay_many_lengths(
                [columns(lane) for lane in grid], MODELS[0], keep_intervals=[False] * 2
            )
        with pytest.raises(ValueError) as lane_err:
            simulate(grid[1], MODELS[0])
        assert str(batch_err.value) == str(lane_err.value)

    def test_negative_allowance_raises_like_per_lane(self):
        grid = [[(0.0, 1.0)]]
        tails = [[-1.0]]
        with pytest.raises(ValueError) as batch_err:
            replay_many_lengths(
                [columns(grid[0])], MODELS[0], window_tails=tails, keep_intervals=[False]
            )
        with pytest.raises(ValueError) as lane_err:
            simulate(grid[0], MODELS[0], window_tails=tails[0])
        assert str(batch_err.value) == str(lane_err.value)

    def test_tails_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="window_tails must match windows"):
            replay_many_lengths(
                [([0.0], [1.0])], MODELS[0], window_tails=[[0.0, 1.0]], keep_intervals=[False]
            )

    def test_tails_with_custom_policy_raises(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            replay_many_lengths(
                [([0.0], [1.0])],
                MODELS[0],
                [TruncatedTail(1.0)],
                window_tails=[[0.0]],
                keep_intervals=[False],
            )

    def test_lane_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError, match="differ in length: 2 vs 1"):
            pack_lanes([([0.0], [1.0]), ([0.0, 2.0], [1.0])])
        with pytest.raises(ValueError, match="starts and ends differ in length"):
            replay_many_lengths(
                [([0.0, 2.0], [1.0])], MODELS[0], keep_intervals=[False]
            )

    def test_parallel_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="must parallel"):
            replay_many_lengths(
                [([0.0], [1.0])], MODELS[0], [None, None], keep_intervals=[False]
            )
