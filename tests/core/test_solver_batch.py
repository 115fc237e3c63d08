"""Algorithm 1's solve accounting and SolutionMemo hygiene."""

from __future__ import annotations

import numpy as np

from repro.core import knapsack
from repro.core.knapsack import SolutionMemo
from repro.core.overlapped import MKPItem, MKPSlot, solve_overlapped
from repro.telemetry import isolated


def _random_instance(seed: int) -> tuple[list[MKPSlot], list[MKPItem]]:
    rng = np.random.default_rng(seed)
    n_slots = int(rng.integers(1, 5))
    slots = [MKPSlot(i, float(rng.uniform(2.0, 25.0))) for i in range(n_slots)]
    items = []
    for j in range(int(rng.integers(0, 10))):
        k = int(rng.integers(1, min(3, n_slots + 1)))
        cands = sorted(rng.choice(n_slots, size=k, replace=False).tolist())
        items.append(
            MKPItem(
                j,
                float(rng.uniform(0.5, 10.0)),
                {s: float(rng.uniform(0.1, 6.0)) for s in cands},
            )
        )
    return slots, items


class TestSolveOverlapped:
    def test_trivial_instances_skip_fptas(self, monkeypatch):
        # All-fit slots and empty itemsets never reach the DP.
        def no_fptas(*args, **kwargs):
            raise AssertionError("trivial slots reached the FPTAS")

        monkeypatch.setattr(knapsack, "_profit_dp", no_fptas)
        slots = [MKPSlot(0, 100.0)]
        solution = solve_overlapped(slots, [MKPItem(0, 1.0, {0: 2.0})])
        assert solution.assignment == {0: 0}
        assert solve_overlapped(slots, []).assignment == {}

    def test_counts_solves_per_instance(self):
        instances = [_random_instance(s) for s in range(3)]
        with isolated(with_tracing=False) as (reg, _):
            for slots, items in instances:
                solve_overlapped(slots, items)
            counters = reg.snapshot()["counters"]
        assert counters["core.overlapped.solves"] == 3


class TestSolutionMemoKnob:
    def test_default_maxsize(self):
        assert SolutionMemo().maxsize == SolutionMemo.DEFAULT_MAXSIZE

    def test_evictions_counted(self):
        memo = SolutionMemo(maxsize=2)
        with isolated(with_tracing=False) as (reg, _):
            for i in range(5):
                key = SolutionMemo.key(
                    np.array([float(i)]), np.array([1.0]), 1.0, 0.1
                )
                memo.put(key, object())
            counters = reg.snapshot()["counters"]
        assert memo.evictions == 3
        assert len(memo) == 2
        assert counters["solver.memo_evictions"] == 3

    def test_no_evictions_below_cap(self):
        memo = SolutionMemo(maxsize=10)
        key = SolutionMemo.key(np.array([1.0]), np.array([1.0]), 1.0, 0.1)
        memo.put(key, object())
        assert memo.evictions == 0
