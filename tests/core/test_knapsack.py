"""Knapsack solver tests, including Hypothesis guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knapsack_fptas
from tests.core.knapsack_oracle import (
    knapsack_bruteforce,
    knapsack_exact,
    knapsack_greedy,
)


class TestBasics:
    def test_empty_instance(self):
        for solver in (knapsack_exact, knapsack_greedy):
            sol = solver([], [], 10.0)
            assert sol.indices == () and sol.profit == 0.0
        sol = knapsack_fptas([], [], 10.0)
        assert sol.indices == ()

    def test_single_item_fits(self):
        sol = knapsack_exact([5.0], [3.0], 10.0)
        assert sol.indices == (0,)
        assert sol.profit == 5.0

    def test_single_item_too_heavy(self):
        for solver in (knapsack_exact, knapsack_greedy):
            assert solver([5.0], [30.0], 10.0).indices == ()
        assert knapsack_fptas([5.0], [30.0], 10.0).indices == ()

    def test_classic_instance(self):
        # Items: (profit, weight); optimum is {1, 2} with profit 11.
        profits = [6.0, 5.0, 6.0]
        weights = [5.0, 3.0, 3.0]
        sol = knapsack_exact(profits, weights, 6.0)
        assert set(sol.indices) == {1, 2}
        assert sol.profit == 11.0

    def test_zero_capacity(self):
        sol = knapsack_exact([1.0, 2.0], [1.0, 1.0], 0.0)
        assert sol.indices == ()

    def test_zero_weight_items_always_taken(self):
        sol = knapsack_exact([3.0, 4.0], [0.0, 0.0], 0.0)
        assert set(sol.indices) == {0, 1}


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            knapsack_fptas([1.0], [1.0, 2.0], 5.0)

    def test_negative_profit(self):
        with pytest.raises(ValueError, match="non-negative"):
            knapsack_fptas([-1.0], [1.0], 5.0)

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            knapsack_fptas([1.0], [-1.0], 5.0)

    def test_exact_requires_integer_profits(self):
        with pytest.raises(ValueError, match="integer"):
            knapsack_exact([1.5], [1.0], 5.0)

    def test_fptas_rejects_zero_eps(self):
        with pytest.raises(ValueError, match="eps"):
            knapsack_fptas([1.0], [1.0], 5.0, eps=0.0)

    def test_bruteforce_size_limit(self):
        with pytest.raises(ValueError, match="22"):
            knapsack_bruteforce(np.ones(25), np.ones(25), 5.0)

    def test_duplicate_indices_rejected_in_solution(self):
        from repro.core import KnapsackSolution

        with pytest.raises(ValueError, match="duplicate"):
            KnapsackSolution(indices=(1, 1), profit=2.0, weight=2.0)


small_instances = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n),
        st.floats(min_value=0.0, max_value=30.0),
    )
)


class TestGuarantees:
    @given(instance=small_instances)
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_bruteforce(self, instance):
        profits, weights, capacity = instance
        exact = knapsack_exact([float(p) for p in profits], weights, capacity)
        brute = knapsack_bruteforce([float(p) for p in profits], weights, capacity)
        assert exact.profit == pytest.approx(brute.profit)
        assert exact.weight <= capacity + 1e-9

    @given(instance=small_instances, eps=st.sampled_from([0.1, 0.3, 0.5]))
    @settings(max_examples=80, deadline=None)
    def test_fptas_bound(self, instance, eps):
        profits, weights, capacity = instance
        profits = [float(p) for p in profits]
        approx = knapsack_fptas(profits, weights, capacity, eps=eps)
        brute = knapsack_bruteforce(profits, weights, capacity)
        assert approx.profit >= (1.0 - eps) * brute.profit - 1e-9
        assert approx.weight <= capacity + 1e-9

    @given(instance=small_instances)
    @settings(max_examples=80, deadline=None)
    def test_greedy_half_bound(self, instance):
        profits, weights, capacity = instance
        profits = [float(p) for p in profits]
        greedy = knapsack_greedy(profits, weights, capacity)
        brute = knapsack_bruteforce(profits, weights, capacity)
        assert greedy.profit >= 0.5 * brute.profit - 1e-9
        assert greedy.weight <= capacity + 1e-9

    @given(instance=small_instances)
    @settings(max_examples=50, deadline=None)
    def test_solution_totals_consistent(self, instance):
        profits, weights, capacity = instance
        profits = [float(p) for p in profits]
        sol = knapsack_fptas(profits, weights, capacity, eps=0.2)
        assert sol.profit == pytest.approx(sum(profits[i] for i in sol.indices))
        assert sol.weight == pytest.approx(sum(weights[i] for i in sol.indices))


class TestDPInternals:
    """Regressions for the min-weight DP hot path (packed take table)."""

    def test_all_zero_profits_return_empty(self):
        # total == 0 short-circuits the DP entirely.
        sol = knapsack_exact([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 10.0)
        assert sol.indices == () and sol.profit == 0.0
        sol = knapsack_fptas([0.0, 0.0], [1.0, 1.0], 10.0)
        assert sol.indices == () and sol.profit == 0.0
        # Greedy may still pack worthless items that fit, but earns 0.
        assert knapsack_greedy([0.0, 0.0], [1.0, 1.0], 10.0).profit == 0.0

    def test_zero_profit_items_never_chosen(self):
        # Mixed instance: zero-profit items are skipped by the DP but
        # must not perturb reconstruction of the profitable ones.
        sol = knapsack_exact([0.0, 7.0, 0.0, 3.0], [1.0, 2.0, 1.0, 2.0], 4.0)
        assert set(sol.indices) == {1, 3}
        assert sol.profit == 10.0

    def test_dp_guard_single_huge_item(self):
        # The guard must fire before allocating the table, even at n=1.
        with pytest.raises(ValueError, match="cells"):
            knapsack_exact([300_000_000.0], [1.0], 10.0)

    def test_dp_guard_suggests_remedy(self):
        with pytest.raises(ValueError, match="increase eps"):
            knapsack_exact(np.full(2000, 1e6), np.ones(2000), 10.0)

    def test_packed_take_table_matches_bruteforce(self):
        # Bit-packed reconstruction against exhaustive ground truth on
        # instances large enough to span several packed bytes per row.
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 18
            profits = rng.integers(0, 60, n).astype(float)
            weights = rng.uniform(0.5, 8.0, n)
            capacity = float(weights.sum() * rng.uniform(0.2, 0.8))
            exact = knapsack_exact(profits, weights, capacity)
            brute = knapsack_bruteforce(profits, weights, capacity)
            assert exact.profit == pytest.approx(brute.profit)
            assert exact.weight <= capacity + 1e-9
            assert exact.profit == pytest.approx(
                sum(profits[i] for i in exact.indices)
            )

    def test_uniform_instance_reconstruction(self):
        # 50 equal items, ~1000 DP cells: reconstruction must walk the
        # packed rows to exactly the capacity-limited item count.
        from repro.core.knapsack import _profit_dp

        int_profits = np.full(50, 20, dtype=np.int64)
        weights = np.ones(50)
        chosen = _profit_dp(int_profits, weights, 10.0)
        assert len(chosen) == 10  # capacity admits exactly 10 unit weights


class TestScaling:
    def test_fptas_handles_large_profits(self):
        rng = np.random.default_rng(0)
        profits = rng.uniform(1e5, 1e7, 50)
        weights = rng.uniform(1.0, 10.0, 50)
        sol = knapsack_fptas(profits, weights, 25.0, eps=0.1)
        assert sol.weight <= 25.0
        greedy = knapsack_greedy(profits, weights, 25.0)
        assert sol.profit >= 0.9 * greedy.profit

    def test_dp_table_guard(self):
        # Profits scaled such that the DP table would explode.
        n = 2000
        profits = np.full(n, 1e6)
        weights = np.ones(n)
        with pytest.raises(ValueError, match="cells"):
            knapsack_exact(profits, weights, 10.0)
