"""Reference knapsack solvers: the oracles the FPTAS is tested against.

* :func:`knapsack_exact` — the FPTAS's min-weight DP without profit
  scaling, for integer profits (exact);
* :func:`knapsack_bruteforce` — exhaustive search for tiny instances;
* :func:`knapsack_greedy` — density-ordered greedy with the classic
  best-single-item fix-up (``1/2`` guarantee).

They share the shipped module's validation and DP helpers, so an
exact-vs-FPTAS comparison isolates the profit scaling.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.knapsack import KnapsackSolution, _profit_dp, _solution, _validate


def knapsack_exact(
    profits: np.ndarray | list[float],
    weights: np.ndarray | list[float],
    capacity: float,
) -> KnapsackSolution:
    """Exact 0/1 knapsack for integer-valued profits.

    Raises :class:`ValueError` when profits are not (near-)integers —
    :func:`repro.core.knapsack.knapsack_fptas` takes general floats.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _validate(profits, weights, capacity)
    rounded = np.rint(profits)
    if not np.allclose(profits, rounded, atol=1e-9):
        raise ValueError("knapsack_exact requires integer profits")
    usable = weights <= capacity
    sub_idx = np.nonzero(usable)[0]
    chosen_sub = _profit_dp(rounded[usable].astype(np.int64), weights[usable], capacity)
    return _solution([int(sub_idx[i]) for i in chosen_sub], profits, weights)


def knapsack_greedy(
    profits: np.ndarray | list[float],
    weights: np.ndarray | list[float],
    capacity: float,
) -> KnapsackSolution:
    """Density-greedy packing with the best-single-item fix-up.

    Sorting by profit/weight and taking the better of (greedy prefix,
    best single item) guarantees half the optimum.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _validate(profits, weights, capacity)

    usable = np.nonzero(weights <= capacity)[0]
    if usable.size == 0:
        return _solution([], profits, weights)

    with np.errstate(divide="ignore"):
        density = np.where(weights[usable] > 0, profits[usable] / weights[usable], np.inf)
    order = usable[np.argsort(-density, kind="stable")]

    chosen: list[int] = []
    remaining = capacity
    for i in order:
        if weights[i] <= remaining:
            chosen.append(int(i))
            remaining -= weights[i]
    greedy_sol = _solution(chosen, profits, weights)

    best_single = int(usable[np.argmax(profits[usable])])
    single_sol = _solution([best_single], profits, weights)
    return greedy_sol if greedy_sol.profit >= single_sol.profit else single_sol


def knapsack_bruteforce(
    profits: np.ndarray | list[float],
    weights: np.ndarray | list[float],
    capacity: float,
) -> KnapsackSolution:
    """Exhaustive optimum for tiny instances (n ≤ 22); test ground truth."""
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _validate(profits, weights, capacity)
    n = profits.size
    if n > 22:
        raise ValueError(f"bruteforce limited to n <= 22 items, got {n}")
    best: KnapsackSolution = _solution([], profits, weights)
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            w = float(weights[list(combo)].sum())
            if w > capacity:
                continue
            p = float(profits[list(combo)].sum())
            if p > best.profit:
                best = _solution(list(combo), profits, weights)
    return best
