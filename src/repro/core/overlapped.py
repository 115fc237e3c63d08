"""Algorithm 1: multiple knapsack with overlapped itemsets.

The scheduling problem of Eq. (6): each user-active slot is a knapsack of
capacity ``C(t_i)``; each screen-off network activity is an item whose
profit ``ΔE_j − ΔP_j`` depends on *which* adjacent slot it lands in and
whose weight is its payload ``V(n_j)``.  Because an activity between two
adjacent slots may go to either, the slots' itemsets overlap — which is
what breaks the standard MKP reduction and motivates the paper's
four-step algorithm:

1. **Duplication** — materialize the item in both candidate slots;
2. **Sorting** — order each slot's items by profit/weight density;
3. **Dynamic programming** — run ``SinKnap`` (the Ibarra–Kim FPTAS)
   per slot;
4. **Filtering** — an item chosen twice keeps the placement with the
   smaller ``C(t_i) − V(n_j)`` (the tighter slot), then ``GreedyAdd``
   tops up residual capacity with leftover items.

Lemma IV.1: the result is a ``(1-ε)/2`` approximation of the optimum.
:func:`solve_exact_bruteforce` provides ground truth for verifying that
bound empirically on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro._util import check_fraction, check_positive
from repro.core.knapsack import SolutionMemo, knapsack_fptas_batch
from repro.telemetry import metrics

#: Maximum candidate slots per item (an activity sits between two
#: adjacent user-active slots).
MAX_CANDIDATES = 2

#: Shared per-slot solution memo: sweeps re-solve the same slot knapsack
#: across policies/days (identical itemset, capacity and ε), so the memo
#: is process-global rather than per ``solve_overlapped`` call.  Clear it
#: with :func:`clear_slot_memo` when instances should not be reused
#: (e.g. in per-test isolation).
_SLOT_MEMO = SolutionMemo()


def clear_slot_memo() -> None:
    """Drop all memoized slot solutions (testing/benchmark isolation)."""
    _SLOT_MEMO.clear()


@dataclass(frozen=True, slots=True)
class MKPSlot:
    """One user-active slot acting as a knapsack."""

    slot_id: int
    capacity: float

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity, strict=False)


@dataclass(frozen=True, slots=True)
class MKPItem:
    """One schedulable network activity.

    ``profits`` maps each candidate slot id to the net profit
    ``ΔE_j − ΔP_j`` of placing the item there (placements with
    non-positive profit should simply be omitted by the caller).
    """

    item_id: int
    weight: float
    profits: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("weight", self.weight, strict=False)
        if not self.profits:
            raise ValueError(f"item {self.item_id} has no candidate slots")
        if len(self.profits) > MAX_CANDIDATES:
            raise ValueError(
                f"item {self.item_id} has {len(self.profits)} candidate slots; "
                f"at most {MAX_CANDIDATES} (the adjacent pair) are allowed"
            )
        for slot_id, profit in self.profits.items():
            if profit < 0:
                raise ValueError(
                    f"item {self.item_id} has negative profit {profit} in slot {slot_id}; "
                    "drop unprofitable placements before solving"
                )

    @property
    def candidate_slots(self) -> tuple[int, ...]:
        """The slots this item may be scheduled into."""
        return tuple(self.profits)


@dataclass
class MKPSolution:
    """An assignment of items to slots with bookkeeping totals."""

    assignment: dict[int, int]
    total_profit: float
    slot_loads: dict[int, float]

    def validate(self, slots: list[MKPSlot], items: list[MKPItem]) -> None:
        """Assert feasibility: capacities respected, candidates honoured."""
        by_slot = {s.slot_id: s for s in slots}
        by_item = {i.item_id: i for i in items}
        loads: dict[int, float] = {s.slot_id: 0.0 for s in slots}
        for item_id, slot_id in self.assignment.items():
            item = by_item[item_id]
            if slot_id not in item.profits:
                raise ValueError(f"item {item_id} assigned to non-candidate slot {slot_id}")
            loads[slot_id] += item.weight
        for slot_id, load in loads.items():
            if load > by_slot[slot_id].capacity + 1e-9:
                raise ValueError(
                    f"slot {slot_id} overloaded: {load} > {by_slot[slot_id].capacity}"
                )


#: Filtering rules for step 4 (duplicated-item resolution):
#: ``"best"`` keeps the higher-profit copy (tie-break by the paper's
#: smaller-residual rule) — the variant that preserves Lemma IV.1 under
#: slot-dependent ΔP; ``"residual"`` is the paper's literal rule (smaller
#: ``C(t_i) − V(n_j)`` wins); ``"first"`` naively keeps the earlier slot.
FILTER_RULES = ("best", "residual", "first")


def solve_overlapped(
    slots: list[MKPSlot],
    items: list[MKPItem],
    *,
    eps: float = 0.1,
    filter_rule: str = "best",
) -> MKPSolution:
    """Run Algorithm 1 and return a validated ``(1-ε)/2`` solution."""
    check_fraction("eps", eps)
    if filter_rule not in FILTER_RULES:
        raise ValueError(f"filter_rule must be one of {FILTER_RULES}, got {filter_rule!r}")
    if len({s.slot_id for s in slots}) != len(slots):
        raise ValueError("duplicate slot ids")
    if len({i.item_id for i in items}) != len(items):
        raise ValueError("duplicate item ids")
    slot_by_id = {s.slot_id: s for s in slots}
    for item in items:
        unknown = set(item.profits) - set(slot_by_id)
        if unknown:
            raise ValueError(f"item {item.item_id} references unknown slots {unknown}")
    reg = metrics()
    if reg.enabled:
        reg.inc("core.overlapped.solves")
        reg.inc("core.overlapped.slots", len(slots))
        reg.inc("core.overlapped.items", len(items))

    # Step 1 — Duplication: per-slot item lists (an item between two
    # adjacent slots appears in both).
    per_slot_items: dict[int, list[MKPItem]] = {s.slot_id: [] for s in slots}
    for item in items:
        for slot_id in item.candidate_slots:
            per_slot_items[slot_id].append(item)

    # Step 2 — Sorting, collecting every non-trivial slot's sub-instance
    # for one batched SinKnap call.
    chosen_in: dict[int, set[int]] = {}
    batch_slots: list[tuple[int, list[MKPItem]]] = []
    batch_problems: list[tuple[np.ndarray, np.ndarray, float]] = []
    for slot in slots:
        candidates = per_slot_items[slot.slot_id]
        if not candidates:
            chosen_in[slot.slot_id] = set()
            continue
        if sum(it.weight for it in candidates) <= slot.capacity:
            # Every candidate fits together: taking all of them is the
            # slot optimum (profits are non-negative), so skip the FPTAS.
            chosen_in[slot.slot_id] = {it.item_id for it in candidates}
            continue
        # Sort by profit density, non-increasing (paper step 2); the sort
        # also makes the FPTAS output deterministic across runs.
        candidates = sorted(
            candidates,
            key=lambda it: (
                -(it.profits[slot.slot_id] / it.weight if it.weight > 0 else np.inf),
                it.item_id,
            ),
        )
        profits = np.array([it.profits[slot.slot_id] for it in candidates])
        weights = np.array([it.weight for it in candidates])
        batch_slots.append((slot.slot_id, candidates))
        batch_problems.append((profits, weights, slot.capacity))

    # Step 3 — one batched SinKnap call over every non-trivial slot.  The
    # batch shares the process-global slot memo, so identical (itemset,
    # capacity, ε) sub-instances — common when a sweep replays the same
    # day under many policies — are solved once.
    if batch_problems:
        solutions = knapsack_fptas_batch(batch_problems, eps=eps, memo=_SLOT_MEMO)
        for (slot_id, candidates), solution in zip(batch_slots, solutions):
            chosen_in[slot_id] = {candidates[i].item_id for i in solution.indices}

    # Step 4a — Filtering: items chosen in both candidate slots keep the
    # tighter placement (smaller C(t_i) − V(n_j)).
    assignment: dict[int, int] = {}
    for item in items:
        hits = [s for s in item.candidate_slots if item.item_id in chosen_in[s]]
        if not hits:
            continue
        if len(hits) == 1:
            assignment[item.item_id] = hits[0]
            continue
        # Default rule: keep the more profitable placement; the paper's
        # rule (smaller residual C(t_i) − V(n_j)) breaks ties.  With
        # distance-dependent ΔP the two copies' profits differ, and
        # keeping the max-profit copy is what preserves the Lemma IV.1
        # factor: the kept profit is at least half the two copies' sum.
        # When profits are equal (the lemma's ΔE-only setting) "best"
        # reduces exactly to the paper's residual-capacity rule.
        residuals = {s: slot_by_id[s].capacity - item.weight for s in hits}
        if filter_rule == "best":
            keep = min(hits, key=lambda s: (-item.profits[s], residuals[s], s))
        elif filter_rule == "residual":
            keep = min(hits, key=lambda s: (residuals[s], s))
        else:  # "first"
            keep = min(hits)
        assignment[item.item_id] = keep

    loads: dict[int, float] = {s.slot_id: 0.0 for s in slots}
    for item in items:
        if item.item_id in assignment:
            loads[assignment[item.item_id]] += item.weight

    # Step 4b — GreedyAdd: top up residual capacity with leftover items,
    # best available placement first.
    leftovers = [it for it in items if it.item_id not in assignment]
    leftovers.sort(
        key=lambda it: (
            -(max(it.profits.values()) / it.weight if it.weight > 0 else np.inf),
            it.item_id,
        )
    )
    for item in leftovers:
        options = sorted(
            item.candidate_slots, key=lambda s: (-item.profits[s], s)
        )
        for slot_id in options:
            if loads[slot_id] + item.weight <= slot_by_id[slot_id].capacity:
                assignment[item.item_id] = slot_id
                loads[slot_id] += item.weight
                break

    total = sum(
        next(i for i in items if i.item_id == item_id).profits[slot_id]
        for item_id, slot_id in assignment.items()
    )
    solution = MKPSolution(assignment=assignment, total_profit=total, slot_loads=loads)
    solution.validate(slots, items)
    return solution


def solve_exact_bruteforce(slots: list[MKPSlot], items: list[MKPItem]) -> MKPSolution:
    """Exhaustive optimum over all (slot ∪ {unassigned}) item placements.

    Exponential (``3^n`` for two-candidate items); restricted to
    ``n ≤ 14`` items.  Used as the ground truth when verifying the
    Lemma IV.1 approximation bound.
    """
    if len(items) > 14:
        raise ValueError(f"bruteforce limited to 14 items, got {len(items)}")
    slot_by_id = {s.slot_id: s for s in slots}
    choices = [(None, *item.candidate_slots) for item in items]
    best_profit = -1.0
    best_assignment: dict[int, int] = {}
    for combo in product(*choices):
        loads: dict[int, float] = {}
        profit = 0.0
        feasible = True
        for item, slot_id in zip(items, combo):
            if slot_id is None:
                continue
            loads[slot_id] = loads.get(slot_id, 0.0) + item.weight
            if loads[slot_id] > slot_by_id[slot_id].capacity + 1e-12:
                feasible = False
                break
            profit += item.profits[slot_id]
        if feasible and profit > best_profit:
            best_profit = profit
            best_assignment = {
                item.item_id: slot_id
                for item, slot_id in zip(items, combo)
                if slot_id is not None
            }
    final_loads: dict[int, float] = {s.slot_id: 0.0 for s in slots}
    by_item = {i.item_id: i for i in items}
    for item_id, slot_id in best_assignment.items():
        final_loads[slot_id] += by_item[item_id].weight
    solution = MKPSolution(
        assignment=best_assignment,
        total_profit=max(best_profit, 0.0),
        slot_loads=final_loads,
    )
    solution.validate(slots, items)
    return solution
