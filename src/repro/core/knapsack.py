"""Single-knapsack solver: the Ibarra–Kim FPTAS.

The paper's Algorithm 1 rests on ``SinKnap`` — the fully-polynomial
approximation scheme of Ibarra & Kim (JACM 1975) — applied per user-active
slot.  :func:`knapsack_fptas` is profit-scaled dynamic programming with a
``(1-ε)`` guarantee in ``O(n²/ε)`` time (vectorized DP rows);
:func:`knapsack_fptas_batch` solves many slots through one
:class:`SolutionMemo`.  The exact, exhaustive and greedy references the
tests compare it with live in the test suite.

Algorithm 1's ``GreedyAdd`` step is a loop of its own in
:func:`repro.core.overlapped.solve_overlapped`, which solves its slots
with :func:`knapsack_fptas_batch`.

Profits and weights are non-negative floats; capacities are floats.
The solvers return a :class:`KnapsackSolution`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._util import check_fraction, check_positive
from repro.telemetry import metrics


@dataclass(frozen=True, slots=True)
class KnapsackSolution:
    """A feasible knapsack packing: chosen indices plus totals."""

    indices: tuple[int, ...]
    profit: float
    weight: float

    def __post_init__(self) -> None:
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("solution contains duplicate indices")


def _validate(profits: np.ndarray, weights: np.ndarray, capacity: float) -> None:
    if profits.ndim != 1 or weights.ndim != 1:
        raise ValueError("profits and weights must be 1-D")
    if profits.shape != weights.shape:
        raise ValueError(
            f"profits and weights must have equal length, got {profits.size} vs {weights.size}"
        )
    if (profits < 0).any():
        raise ValueError("profits must be non-negative")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    check_positive("capacity", capacity, strict=False)


def _solution(indices: list[int], profits: np.ndarray, weights: np.ndarray) -> KnapsackSolution:
    idx = tuple(sorted(indices))
    return KnapsackSolution(
        indices=idx,
        profit=float(profits[list(idx)].sum()) if idx else 0.0,
        weight=float(weights[list(idx)].sum()) if idx else 0.0,
    )


def _fractional_bound(int_profits: np.ndarray, weights: np.ndarray, capacity: float) -> int:
    """Upper bound on the best *feasible* integer total profit.

    The fractional (density-greedy) relaxation bounds every packing of
    weight ≤ ``capacity``, so the DP profit axis never needs cells above
    it — cells beyond the bound are reachable only by infeasible
    packings, which the reconstruction walk can never visit.  ``+1``
    absorbs float rounding in the accumulation.
    """
    if capacity >= float(weights.sum()):
        return int(int_profits.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(weights > 0, int_profits / weights, np.inf)
    order = np.argsort(-density, kind="stable")
    bound = 0.0
    remaining = float(capacity)
    for i in order:
        w = float(weights[i])
        p = float(int_profits[i])
        if w <= remaining:
            bound += p
            remaining -= w
        else:
            if w > 0 and remaining > 0:
                bound += p * (remaining / w)
            break
    return min(int(int_profits.sum()), int(math.floor(bound)) + 1)


def _profit_dp(
    int_profits: np.ndarray, weights: np.ndarray, capacity: float
) -> list[int]:
    """Min-weight-per-profit DP; returns chosen item indices.

    ``int_profits`` must be non-negative integers.  A rolling 1-D
    ``np.minimum``-style update sweeps the profit axis once per item;
    two structural prunes keep every sweep short without changing the
    chosen set:

    * the axis is truncated at the fractional-relaxation bound (cells
      above it belong only to over-capacity packings, which the
      reconstruction walk never visits);
    * each item touches only cells up to the running reachable-profit
      frontier — everything beyond it is still ``inf`` and can never
      win a comparison.

    The take table needed for reconstruction stores, per item, the
    packed improvement bits of exactly the touched slice
    (:func:`numpy.packbits`), so its footprint follows the pruned work,
    not the full ``n × Σprofit`` rectangle.
    """
    n = int_profits.size
    total = int(int_profits.sum())
    if total == 0:
        return []
    width = _fractional_bound(int_profits, weights, capacity) + 1
    if n * width > 200_000_000:
        raise ValueError(
            f"DP table would need {n * width} cells; "
            "increase eps or split the instance"
        )
    # dp[q] = minimal weight achieving scaled profit exactly q
    dp = np.full(width, np.inf)
    dp[0] = 0.0
    # Scratch buffers reused across items: candidate weights and the
    # improvement mask.  Reusing them keeps each sweep's working set to
    # three warm arrays instead of re-faulting fresh pages per item.
    cand_buf = np.empty(width)
    mask_buf = np.empty(width, dtype=bool)
    # take[i] = (q_i, hi_i, packed bits of the improved cells in
    # [q_i, hi_i]); bit (q - q_i) set iff item i improved cell q.
    take: list[tuple[int, int, np.ndarray] | None] = [None] * n
    reach = 0  # highest profit cell reachable from the items seen so far
    cells = 0
    for i in range(n):
        q = int(int_profits[i])
        w = float(weights[i])
        if q == 0:
            # Zero-profit items never improve the objective; skip.
            continue
        hi = min(reach + q, width - 1)
        reach = hi
        if hi < q:
            continue
        span = hi - q + 1
        cells += span
        cand = cand_buf[:span]
        better = mask_buf[:span]
        tail = dp[q : hi + 1]
        # Three straight-line passes: candidate weights, improvement
        # mask, then an in-place minimum.  ``minimum`` replaces the
        # masked scatter of the old kernel (``dp[q:][better] = ...``),
        # which was the dominant cost — the elementwise min writes the
        # same bits (all values are >= 0, so no -0.0 tie-break drift)
        # at a fraction of the price.  ``cand`` is materialized first
        # because source and destination ranges overlap when q < span.
        np.add(dp[:span], w, out=cand)
        np.less(cand, tail, out=better)
        np.minimum(tail, cand, out=tail)
        take[i] = (q, hi, np.packbits(better))
    reg = metrics()
    if reg.enabled and cells:
        reg.inc("solver.dp_cells", cells)
    best_q = int(np.nonzero(dp <= capacity)[0].max())
    # Reconstruct by walking items backwards (bit q - q_i of row i).
    chosen: list[int] = []
    q = best_q
    for i in range(n - 1, -1, -1):
        if q <= 0:
            break
        row = take[i]
        if row is None:
            continue
        qi, hi, packed = row
        if qi <= q <= hi:
            off = q - qi
            if packed[off >> 3] & (0x80 >> (off & 7)):
                chosen.append(i)
                q -= qi
    if q != 0:
        raise AssertionError("DP reconstruction failed to reach profit 0")
    return chosen


def knapsack_fptas(
    profits: np.ndarray | list[float],
    weights: np.ndarray | list[float],
    capacity: float,
    eps: float = 0.1,
) -> KnapsackSolution:
    """Ibarra–Kim ``(1-ε)``-approximate knapsack (the paper's ``SinKnap``).

    Profits are scaled by ``K = ε · P_max / n`` and floored to integers;
    the min-weight DP then runs over at most ``n²/ε`` scaled-profit cells.
    The returned packing is feasible and its profit is at least
    ``(1-ε) · OPT``.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _validate(profits, weights, capacity)
    check_fraction("eps", eps)
    if eps == 0.0:
        raise ValueError("eps must be > 0 for the FPTAS")
    reg = metrics()
    if reg.enabled:
        reg.inc("core.knapsack.fptas_solves")
        reg.observe("core.knapsack.fptas_items", float(profits.size))

    usable = weights <= capacity
    sub_idx = np.nonzero(usable)[0]
    sub_profits = profits[usable]
    sub_weights = weights[usable]
    if sub_profits.size == 0 or sub_profits.max() == 0.0:
        return _solution([], profits, weights)

    scale = eps * float(sub_profits.max()) / sub_profits.size
    scaled = np.floor(sub_profits / scale).astype(np.int64)
    chosen_sub = _profit_dp(scaled, sub_weights, capacity)
    return _solution([int(sub_idx[i]) for i in chosen_sub], profits, weights)


class SolutionMemo:
    """Bounded LRU of knapsack solutions keyed by exact instance content.

    Keys are ``(profits bytes, weights bytes, capacity, eps)`` — byte-
    level, so two instances collide only when they are identical and a
    hit is guaranteed to reproduce the miss bit-for-bit.  Used by
    :func:`knapsack_fptas_batch` within a batch and by
    :func:`repro.core.overlapped.solve_overlapped` across solves (the
    per-slot sub-problems of an evaluation sweep repeat heavily).

    ``maxsize`` (default :attr:`DEFAULT_MAXSIZE`) caps the entries, so
    a long-lived fleet process cannot grow the module-global slot memo
    without bound.  Evictions are counted on the instance
    (``evictions``) and on the ``solver.memo_evictions`` telemetry
    counter.
    """

    DEFAULT_MAXSIZE = 512

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[tuple, KnapsackSolution] = OrderedDict()

    @staticmethod
    def key(
        profits: np.ndarray, weights: np.ndarray, capacity: float, eps: float
    ) -> tuple:
        """Exact content key for one instance."""
        return (
            np.ascontiguousarray(profits, dtype=np.float64).tobytes(),
            np.ascontiguousarray(weights, dtype=np.float64).tobytes(),
            float(capacity),
            float(eps),
        )

    def get(self, key: tuple) -> KnapsackSolution | None:
        sol = self._data.get(key)
        if sol is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        reg = metrics()
        if reg.enabled:
            reg.inc("solver.memo_hits")
        return sol

    def put(self, key: tuple, solution: KnapsackSolution) -> None:
        self._data[key] = solution
        self._data.move_to_end(key)
        evicted = 0
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            evicted += 1
        if evicted:
            self.evictions += evicted
            reg = metrics()
            if reg.enabled:
                reg.inc("solver.memo_evictions", evicted)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


def knapsack_fptas_batch(
    problems: Iterable[Sequence],
    *,
    eps: float = 0.1,
    memo: SolutionMemo | None = None,
) -> list[KnapsackSolution]:
    """Solve a batch of ``(profits, weights, capacity)`` FPTAS instances.

    The batched entry point for per-slot ``SinKnap`` sweeps: identical
    instances inside the batch (and, when a shared ``memo`` is passed,
    across batches) are solved once and served from the memo — exact-
    content keys make a hit bit-identical to a fresh solve.  Results
    come back in input order, one solution per problem.
    """
    if memo is None:
        memo = SolutionMemo()
    reg = metrics()
    out: list[KnapsackSolution] = []
    n_problems = 0
    for problem in problems:
        profits, weights, capacity = problem
        profits = np.ascontiguousarray(profits, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        n_problems += 1
        key = SolutionMemo.key(profits, weights, capacity, eps)
        solution = memo.get(key)
        if solution is None:
            solution = knapsack_fptas(profits, weights, capacity, eps=eps)
            memo.put(key, solution)
        out.append(solution)
    if reg.enabled and n_problems:
        reg.inc("core.knapsack.fptas_batch_calls")
        reg.inc("core.knapsack.fptas_batch_solves", n_problems)
    return out
