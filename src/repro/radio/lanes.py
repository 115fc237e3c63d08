"""The RRC replay engine: many replay problems per numpy pass.

Every energy number in the reproduction comes from one accounting
(Section V): a promotion before each transfer burst, DCH while bytes
move, then a DCH and a FACH inactivity tail that the next transfer, a
software cutoff or the carrier timers end.  This module is the only
implementation of that walk.  It packs independent replay problems —
"lanes" — into one structure-of-arrays representation (concatenated
window ``starts``/``ends`` plus per-lane ``offsets``) and runs the whole
pipeline (merge, allowance merge, decomposition, tail extension, energy
reduction) across all lanes in a handful of array passes;
:func:`repro.radio.rrc.simulate` is a one-lane call into it.  A lane
comes in as two float columns, ``(starts, ends)``, window ``j`` being
``[starts[j], ends[j]]``: a pricer builds them straight from its
records, with no ``(start, end)`` object per window.

* lane-major sorting via ``np.lexsort`` with the lane id as the primary
  key reproduces each lane's private sort;
* the running-maximum merge becomes a *segmented* cumulative maximum
  (Hillis–Steele doubling scan) that resets at lane boundaries, or the
  plain ``np.maximum.accumulate`` when the input holds one segment;
* per-lane left-to-right energy sums use a padded-row cumulative sum
  (one zero-padded row per lane, seeded with the lane's initial term)
  instead of ``np.add.reduceat``, whose pairwise accumulation would
  change low bits.

**Bit-identity contract.**  Every lane's result is bit-for-bit equal to
the scalar walk over that lane alone — windows merged in sorted order,
then one left-to-right ``+=`` per accumulator (the reference port lives
in ``tests/radio/rrc_oracle.py``).  Elementwise arithmetic is exact
under batching; sorts stay per-lane-stable because ``np.lexsort`` is
stable and the lane id dominates; the segmented scan only ever
*selects* one of its float inputs (max is associative); and the padded
cumulative sums append only trailing ``+0.0`` terms, which cannot change
an accumulator that is never ``-0.0`` (all summed series here start
from a ``>= +0.0`` initial and add ``>= +0.0`` terms).  A lane's result
therefore never depends on the other lanes in its batch.

Memory note: the padded sum materializes ``n_lanes × (max_lane_len + 1)``
rows, so one pathologically long lane among many short ones inflates the
pad.  Grid cells (one day of one user) are naturally same-order-of-
magnitude, which keeps the pad dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Protocol, Sequence

import numpy as np

from repro._util import check_interval, check_positive
from repro.radio.power import RadioPowerModel
from repro.telemetry import metrics, tracer

__all__ = [
    "EnergyReport",
    "FullTail",
    "LaneDecomposition",
    "LaneWindows",
    "TailPolicy",
    "TruncatedTail",
    "decompose_lanes",
    "extend_lanes_by_tails",
    "lane_ids",
    "lane_radio_on_lengths",
    "lane_serial_sums",
    "merge_lanes",
    "merge_lanes_with_allowances",
    "pack_lanes",
    "replay_many_lengths",
    "segmented_cummax",
]

_EMPTY_F = np.empty(0)
_EMPTY_B = np.empty(0, dtype=bool)

#: One lane's windows as columns: ``(starts, ends)``, equal in length.
Lane = tuple[Sequence[float], Sequence[float]]


class TailPolicy(Protocol):
    """Decides how much inactivity tail the radio keeps after a transfer."""

    def max_tail_s(self) -> float:
        """Upper bound on post-transfer tail time before a forced IDLE."""
        ...


@dataclass(frozen=True, slots=True)
class FullTail:
    """Stock behaviour: carrier inactivity timers run to completion."""

    def max_tail_s(self) -> float:
        """No software cutoff — tails are bounded only by the timers."""
        return math.inf


@dataclass(frozen=True, slots=True)
class TruncatedTail:
    """Force the radio to IDLE ``guard_s`` seconds after the last byte.

    ``guard_s = 0`` is the aggressive ideal; a small positive guard models
    the detection delay of polling ``TELEPHONY_SERVICE`` for ongoing
    transfers before dropping the connection.
    """

    guard_s: float = 1.0

    def __post_init__(self) -> None:
        check_positive("guard_s", self.guard_s, strict=False)

    def max_tail_s(self) -> float:
        """Tail time is capped at the guard interval."""
        return self.guard_s


@dataclass(frozen=True, slots=True)
class EnergyReport:
    """Outcome of one RRC replay.

    ``energy_j`` excludes IDLE baseline; ``radio_on_s`` counts every
    non-IDLE second (transfers, promotions, tails).
    """

    energy_j: float
    radio_on_s: float
    transfer_s: float
    tail_s: float
    promo_idle_count: int
    promo_fach_count: int
    window_count: int
    state_energy_j: dict[str, float] = field(default_factory=dict)

    @property
    def tail_energy_j(self) -> float:
        """Energy spent in inactivity tails."""
        return self.state_energy_j.get("tail", 0.0)

    @property
    def promo_energy_j(self) -> float:
        """Energy spent in promotions."""
        return self.state_energy_j.get("promo", 0.0)

    @property
    def transfer_energy_j(self) -> float:
        """Energy spent actually moving bytes (DCH)."""
        return self.state_energy_j.get("transfer", 0.0)


@dataclass(frozen=True, slots=True)
class LaneWindows:
    """Ragged windows of many lanes in structure-of-arrays form.

    ``starts``/``ends`` concatenate every lane's windows lane-major;
    ``offsets`` has ``n_lanes + 1`` entries with lane ``i`` occupying
    ``starts[offsets[i]:offsets[i + 1]]``.
    """

    starts: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of lanes (including empty ones)."""
        return int(self.offsets.size - 1)

    @property
    def n_windows(self) -> int:
        """Total windows across all lanes."""
        return int(self.starts.size)

    def counts(self) -> np.ndarray:
        """Per-lane window counts."""
        return np.diff(self.offsets)

    def lane(self, i: int) -> list[tuple[float, float]]:
        """Lane ``i``'s windows as the per-lane list-of-tuples form."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return list(zip(self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist()))


def pack_lanes(lanes: Sequence[Lane]) -> LaneWindows:
    """Pack per-lane ``(starts, ends)`` columns into one :class:`LaneWindows`.

    A lane whose ``starts`` and ``ends`` differ in length raises
    :class:`ValueError`.
    """
    n_lanes = len(lanes)
    offsets = np.zeros(n_lanes + 1, dtype=np.intp)
    total = 0
    for i, (starts, ends) in enumerate(lanes):
        if len(starts) != len(ends):
            raise ValueError(
                f"lane {i}: starts and ends differ in length: "
                f"{len(starts)} vs {len(ends)}"
            )
        total += len(starts)
        offsets[i + 1] = total
    if total == 0:
        return LaneWindows(starts=_EMPTY_F, ends=_EMPTY_F, offsets=offsets)
    # One flat conversion per column with a preallocated target: cheaper
    # than a per-lane asarray/concatenate when the grid has hundreds of
    # small lanes.
    return LaneWindows(
        starts=np.fromiter(
            chain.from_iterable(starts for starts, _ in lanes),
            dtype=np.float64,
            count=total,
        ),
        ends=np.fromiter(
            chain.from_iterable(ends for _, ends in lanes),
            dtype=np.float64,
            count=total,
        ),
        offsets=offsets,
    )


def lane_ids(offsets: np.ndarray) -> np.ndarray:
    """Member → lane map: ``lane_ids(offsets)[j]`` is window ``j``'s lane."""
    return np.repeat(np.arange(offsets.size - 1, dtype=np.intp), np.diff(offsets))


def segmented_cummax(values: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Per-segment running maximum, resetting where ``head`` is True.

    Hillis–Steele doubling scan: at stride ``d`` each position takes the
    max of itself and the value ``d`` back, unless a segment head lies in
    between (tracked by OR-ing the head flags along).  Exact by
    construction — max only ever returns one of its float inputs.

    With a single segment (no head past position 0) the scan is the
    plain running maximum, which ``np.maximum.accumulate`` computes in
    one pass.
    """
    if not head[1:].any():
        return np.maximum.accumulate(values, dtype=np.float64)
    out = values.astype(np.float64, copy=True)
    blocked = np.array(head, dtype=bool, copy=True)
    n = out.size
    d = 1
    while d < n:
        # np.where materializes a fresh array, so the in-place maximum
        # never aliases its shifted input.
        np.maximum(
            out[d:],
            np.where(blocked[d:], -np.inf, out[:-d]),
            out=out[d:],
        )
        blocked[d:] |= blocked[:-d].copy()
        d <<= 1
    return out


def _lane_heads(offsets: np.ndarray, n: int) -> np.ndarray:
    """Boolean head mask: True at the first window of each non-empty lane."""
    head = np.zeros(n, dtype=bool)
    head[offsets[:-1][np.diff(offsets) > 0]] = True
    return head


def _group_lanes(
    starts: np.ndarray,
    run_end: np.ndarray,
    head: np.ndarray,
    lids: np.ndarray,
    n_lanes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused-group bounds across all lanes at once.

    ``run_end`` is the running maximum of (possibly extended) end times:
    a new group opens where a start clears everything before it, and a
    lane head always opens one (the running maximum never carries
    across lanes).  Returns ``(first, last, group_ids, merged_offsets)``.
    """
    n = starts.size
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.greater(starts[1:], run_end[:-1], out=new_group[1:])
    new_group |= head
    first = np.flatnonzero(new_group)
    group_ids = np.cumsum(new_group) - 1
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1] = n - 1
    merged_offsets = np.searchsorted(
        lids[first], np.arange(n_lanes + 1), side="left"
    ).astype(np.intp)
    return first, last, group_ids, merged_offsets


def merge_lanes(lanes: LaneWindows) -> LaneWindows:
    """Fuse overlapping windows within every lane, in one pass.

    Per lane this is :func:`repro._util.merge_intervals`: sort by
    ``(start, end)`` and fuse wherever a start does not exceed the
    running maximum end.  The lane-major ``lexsort`` reproduces
    every lane's private sort, and the segmented running maximum its
    private ``np.maximum.accumulate``.
    """
    n = lanes.n_windows
    if n == 0:
        return LaneWindows(
            starts=_EMPTY_F, ends=_EMPTY_F, offsets=lanes.offsets.copy()
        )
    # Validate in concatenated input order — the first bad window of the
    # first lane holding one raises, exactly as lane-by-lane merging would.
    bad = np.flatnonzero(lanes.starts > lanes.ends)
    if bad.size:
        i = int(bad[0])
        check_interval(float(lanes.starts[i]), float(lanes.ends[i]))
    lids = lane_ids(lanes.offsets)
    order = np.lexsort((lanes.ends, lanes.starts, lids))
    starts = lanes.starts[order]
    ends = lanes.ends[order]
    lids = lids[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lids[1:], lids[:-1], out=head[1:])
    run_end = segmented_cummax(ends, head)
    first, last, _, merged_offsets = _group_lanes(
        starts, run_end, head, lids, lanes.n_lanes
    )
    return LaneWindows(
        starts=starts[first], ends=run_end[last], offsets=merged_offsets
    )


def merge_lanes_with_allowances(
    lanes: LaneWindows, window_tails: np.ndarray
) -> tuple[LaneWindows, np.ndarray]:
    """All-lane fast-dormancy merge, carrying per-window tail allowances.

    Per lane: sort by start (stable), fuse on the running maximum end,
    and give each fused window the largest allowance among members
    achieving its final end (the tail follows the final transfer; ties
    take the most permissive holder, which keeps the radio up).
    """
    n = lanes.n_windows
    if n == 0:
        return (
            LaneWindows(
                starts=_EMPTY_F, ends=_EMPTY_F, offsets=lanes.offsets.copy()
            ),
            _EMPTY_F,
        )
    tails = np.asarray(window_tails, dtype=np.float64)
    lids = lane_ids(lanes.offsets)
    order = np.lexsort((lanes.starts, lids))
    starts = lanes.starts[order]
    ends = lanes.ends[order]
    tails = tails[order]
    lids = lids[order]
    # Validate in lane-major sorted order — the per-lane iteration order.
    bad = np.flatnonzero((starts > ends) | (tails < 0))
    if bad.size:
        i = int(bad[0])
        check_interval(float(starts[i]), float(ends[i]))
        raise ValueError(
            f"window tail allowance must be >= 0, got {float(tails[i])}"
        )
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lids[1:], lids[:-1], out=head[1:])
    run_end = segmented_cummax(ends, head)
    first, last, group_ids, merged_offsets = _group_lanes(
        starts, run_end, head, lids, lanes.n_lanes
    )
    merged_end = run_end[last]
    eligible = ends == merged_end[group_ids]
    masked = np.where(eligible, tails, -np.inf)
    # first is strictly increasing (every group is non-empty), so the
    # reduceat segments are exactly the groups; max never rounds.
    allowances = np.maximum.reduceat(masked, first)
    return (
        LaneWindows(starts=starts[first], ends=merged_end, offsets=merged_offsets),
        allowances,
    )


@dataclass(frozen=True, slots=True)
class LaneDecomposition:
    """Per-window replay arrays of many lanes, plus lane ``offsets``.

    All arrays are parallel to the merged windows.  ``gaps[j]`` is the
    idle time before the lane's next window (``inf`` after its last);
    ``budgets`` is the granted tail per window, split into ``dch_parts``
    and ``fach_parts``; ``promo_fach``/``promo_idle`` flag the windows
    followed by a FACH→DCH or IDLE→DCH re-promotion (never a lane's
    last).  This is where a replay's energy splits into transfer, tail
    and promotion components.
    """

    offsets: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    durations: np.ndarray
    gaps: np.ndarray
    budgets: np.ndarray
    dch_parts: np.ndarray
    fach_parts: np.ndarray
    promo_fach: np.ndarray
    promo_idle: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of lanes (including empty ones)."""
        return int(self.offsets.size - 1)

    def lane(self, i: int) -> "LaneDecomposition":
        """Lane ``i`` alone, as a one-lane decomposition (views)."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return LaneDecomposition(
            offsets=np.array([0, hi - lo], dtype=np.intp),
            starts=self.starts[lo:hi],
            ends=self.ends[lo:hi],
            durations=self.durations[lo:hi],
            gaps=self.gaps[lo:hi],
            budgets=self.budgets[lo:hi],
            dch_parts=self.dch_parts[lo:hi],
            fach_parts=self.fach_parts[lo:hi],
            promo_fach=self.promo_fach[lo:hi],
            promo_idle=self.promo_idle[lo:hi],
        )


def decompose_lanes(
    merged: LaneWindows,
    allowances: np.ndarray,
    *,
    tail_s: float,
    dch_tail_s: float,
) -> LaneDecomposition:
    """The RRC walk over every lane's disjoint, sorted windows.

    Per window ``j`` (elementwise, so exact)::

        gap      = start[j+1] - end[j]          (inf for a lane's last)
        budget   = min(gap, allowance[j], tail_s)
        dch_part = min(budget, dch_tail_s)
        fach     = gap past the DCH timer but inside the (possibly
                   truncated) tail: a FACH→DCH re-promotion
        idle     = gap past the tail entirely: an IDLE→DCH re-promotion

    Gaps are computed globally (``starts[1:] - ends[:-1]``) and the last
    window of every non-empty lane is then reset to ``inf`` — which also
    erases the meaningless cross-lane differences at lane boundaries.
    """
    starts, ends, offsets = merged.starts, merged.ends, merged.offsets
    n = starts.size
    if n == 0:
        return LaneDecomposition(
            offsets=offsets.copy(),
            starts=_EMPTY_F,
            ends=_EMPTY_F,
            durations=_EMPTY_F,
            gaps=_EMPTY_F,
            budgets=_EMPTY_F,
            dch_parts=_EMPTY_F,
            fach_parts=_EMPTY_F,
            promo_fach=_EMPTY_B,
            promo_idle=_EMPTY_B,
        )
    allow = np.asarray(allowances, dtype=np.float64)
    lane_last = offsets[1:][np.diff(offsets) > 0] - 1
    gaps = np.empty(n)
    np.subtract(starts[1:], ends[:-1], out=gaps[:-1])
    gaps[n - 1] = math.inf
    gaps[lane_last] = math.inf
    budgets = np.minimum(np.minimum(gaps, allow), tail_s)
    dch_parts = np.minimum(budgets, dch_tail_s)
    fach_parts = budgets - dch_parts
    has_next = np.ones(n, dtype=bool)
    has_next[lane_last] = False
    stay_dch = gaps <= np.minimum(allow, dch_tail_s)
    within_tail = gaps <= np.minimum(allow, tail_s)
    promo_fach = has_next & ~stay_dch & within_tail
    promo_idle = has_next & ~within_tail
    return LaneDecomposition(
        offsets=offsets,
        starts=starts,
        ends=ends,
        durations=ends - starts,
        gaps=gaps,
        budgets=budgets,
        dch_parts=dch_parts,
        fach_parts=fach_parts,
        promo_fach=promo_fach,
        promo_idle=promo_idle,
    )


def extend_lanes_by_tails(decomp: LaneDecomposition) -> LaneWindows:
    """Radio-on intervals: windows extended by their tail budgets, fused.

    Each window is extended to ``end + budget`` and the lane re-fused
    with the segmented running maximum, so windows whose gaps stay
    within the tail budget become one radio-on interval (budgets never
    bridge lanes — the last window of a lane has an ``inf`` gap but its
    budget is still finite).
    """
    n = decomp.starts.size
    offsets = decomp.offsets
    if n == 0:
        return LaneWindows(
            starts=_EMPTY_F, ends=_EMPTY_F, offsets=offsets.copy()
        )
    extended = decomp.ends + decomp.budgets
    head = _lane_heads(offsets, n)
    run_end = segmented_cummax(extended, head)
    lids = lane_ids(offsets)
    first, last, _, merged_offsets = _group_lanes(
        decomp.starts, run_end, head, lids, decomp.n_lanes
    )
    return LaneWindows(
        starts=decomp.starts[first], ends=run_end[last], offsets=merged_offsets
    )


def lane_radio_on_lengths(extended: LaneWindows) -> np.ndarray:
    """Per-lane merged ``total_length`` of extended radio-on windows.

    :func:`extend_lanes_by_tails` already returns each lane fused,
    sorted, and with strictly positive gaps, so ``merge_intervals`` over
    such a lane is the identity and its total length is the
    left-to-right float sum of window lengths.  ``result[i]`` is
    bit-equal to ``total_length(merge_intervals(extended.lane(i)))``.
    """
    lengths = extended.ends - extended.starts
    return lane_serial_sums(lengths[None, :], extended.offsets, (0.0,))[0]


def lane_serial_sums(
    rows: np.ndarray, offsets: np.ndarray, initials: Sequence[float]
) -> np.ndarray:
    """Per-lane left-to-right float sums for ``k`` value rows at once.

    ``rows`` is ``(k, n_windows)`` lane-major values; ``initials`` seeds
    row ``j``'s accumulator in every lane.  Returns ``(k, n_lanes)``
    totals, each bit-equal to the serial loop ``total = initials[j]``
    then ``total += v`` for every ``v`` of the lane's slice of row ``j``.

    The trick: scatter each lane's values into a zero-padded row whose
    column 0 holds the initial, cumulative-sum along the rows, and read
    the last column.  ``np.cumsum`` along the last axis accumulates
    strictly left-to-right (unlike ``np.sum``/``np.add.reduceat``), and
    the trailing ``+0.0`` padding is exact for the ``>= +0.0`` series
    summed here (a ``-0.0`` accumulator can never arise).
    """
    init = np.asarray(initials, dtype=np.float64)
    counts = np.diff(offsets)
    n_lanes = counts.size
    k, n = rows.shape
    if n == 0 or n_lanes == 0:
        return np.broadcast_to(init[:, None], (k, n_lanes)).copy()
    width = int(counts.max()) + 1
    padded = np.zeros((k, n_lanes, width))
    padded[:, :, 0] = init[:, None]
    lids = lane_ids(offsets)
    cols = np.arange(n, dtype=np.intp) - offsets[:-1][lids] + 1
    padded[:, lids, cols] = rows
    flat = padded.reshape(k * n_lanes, width)
    np.cumsum(flat, axis=-1, out=flat)
    return flat[:, -1].reshape(k, n_lanes)


def _machine_reports(
    decomp: LaneDecomposition, model: RadioPowerModel
) -> list[EnergyReport]:
    """Every lane's :class:`EnergyReport`, reduced in one pass.

    Telemetry counters equal the sum over lanes of one-lane replays: an
    empty lane counts a simulation but no promotion.
    """
    offsets = decomp.offsets
    n_lanes = decomp.n_lanes
    counts = np.diff(offsets)
    rows = np.stack(
        (
            decomp.durations,
            decomp.durations * model.p_dch_w,
            decomp.budgets,
            decomp.dch_parts * model.p_dch_w
            + decomp.fach_parts * model.p_fach_w,
            np.where(
                decomp.promo_fach,
                model.promo_fach_energy_j,
                np.where(decomp.promo_idle, model.promo_idle_energy_j, 0.0),
            ),
            np.where(
                decomp.promo_fach,
                model.promo_fach_dch_s,
                np.where(decomp.promo_idle, model.promo_idle_dch_s, 0.0),
            ),
        )
    )
    # The first window of a lane always promotes from IDLE: that term
    # seeds the promotion accumulators.
    totals = lane_serial_sums(
        rows,
        offsets,
        (0.0, 0.0, 0.0, 0.0, model.promo_idle_energy_j, model.promo_idle_dch_s),
    )
    transfer_s, transfer_e, tail_s, tail_e, promo_e, promo_s = (
        t.tolist() for t in totals
    )
    lids = lane_ids(offsets)
    idle_counts = np.bincount(lids[decomp.promo_idle], minlength=n_lanes)
    fach_counts = np.bincount(lids[decomp.promo_fach], minlength=n_lanes)
    reports: list[EnergyReport] = []
    total_idle = 0
    total_fach = 0
    for i in range(n_lanes):
        count = int(counts[i])
        if count == 0:
            reports.append(
                EnergyReport(
                    energy_j=0.0,
                    radio_on_s=0.0,
                    transfer_s=0.0,
                    tail_s=0.0,
                    promo_idle_count=0,
                    promo_fach_count=0,
                    window_count=0,
                    state_energy_j={"transfer": 0.0, "tail": 0.0, "promo": 0.0},
                )
            )
            continue
        promo_idle = 1 + int(idle_counts[i])
        promo_fach = int(fach_counts[i])
        total_idle += promo_idle
        total_fach += promo_fach
        reports.append(
            EnergyReport(
                energy_j=transfer_e[i] + tail_e[i] + promo_e[i],
                radio_on_s=transfer_s[i] + tail_s[i] + promo_s[i],
                transfer_s=transfer_s[i],
                tail_s=tail_s[i],
                promo_idle_count=promo_idle,
                promo_fach_count=promo_fach,
                window_count=count,
                state_energy_j={
                    "transfer": transfer_e[i],
                    "tail": tail_e[i],
                    "promo": promo_e[i],
                },
            )
        )
    reg = metrics()
    if reg.enabled:
        reg.inc("radio.rrc.simulations", n_lanes)
        reg.inc("radio.rrc.windows", int(offsets[-1]))
        if total_idle:
            reg.inc("radio.rrc.promotions_idle", total_idle)
            reg.inc("radio.rrc.promotions_fach", total_fach)
    return reports


def _record_rrc_spans(trc, decomp: LaneDecomposition) -> None:
    """One span per DCH residency plus its (possibly truncated) tail,
    on the simulated-seconds timeline."""
    rows = zip(
        decomp.starts.tolist(),
        decomp.ends.tolist(),
        decomp.budgets.tolist(),
        decomp.dch_parts.tolist(),
    )
    for start, end, budget, dch_part in rows:
        trc.record_span("dch", "rrc", start, end)
        if dch_part > 0:
            trc.record_span("tail-dch", "rrc", end, end + dch_part)
        if budget > dch_part:
            trc.record_span("tail-fach", "rrc", end + dch_part, end + budget)


def _replay_lanes(
    lanes: Sequence[Lane],
    model: RadioPowerModel,
    tail_policies: Sequence[TailPolicy | None] | None,
    window_tails: Sequence[Sequence[float] | None] | None,
    *,
    keep_intervals: Sequence[bool] | None = None,
    sim_contexts: Sequence[str] | None = None,
) -> tuple[
    list[EnergyReport],
    list[list[tuple[float, float]] | None],
    list[float | None],
]:
    """Validate, merge, decompose and price every lane.

    Lanes with per-window tails and lanes without are batched as two
    groups (their merges have different tie rules).  Returns
    ``(reports, radio_on, lengths)``: with ``keep_intervals`` set,
    merged radio-on lengths for every lane and intervals only where the
    flag is True; without it, only the reports.
    Lanes record their RRC spans in lane order, under ``sim_contexts[i]``
    when given.
    """
    n = len(lanes)
    if tail_policies is None:
        tail_policies = [None] * n
    if window_tails is None:
        window_tails = [None] * n
    if len(tail_policies) != n or len(window_tails) != n:
        raise ValueError("tail_policies and window_tails must parallel lanes")
    plain_idx: list[int] = []
    plain_lanes: list[Lane] = []
    plain_allow: list[float] = []
    tailed_idx: list[int] = []
    tailed_lanes: list[Lane] = []
    tailed_tails: list[float] = []
    # Per-lane argument validation in input order — the errors (and their
    # ordering across lanes) match replaying the lanes one by one.
    for i, lane in enumerate(lanes):
        tails = window_tails[i]
        policy = tail_policies[i]
        if policy is None:
            policy = FullTail()
        if tails is not None:
            if len(tails) != len(lane[0]):
                raise ValueError(
                    f"window_tails must match windows: {len(tails)} vs {len(lane[0])}"
                )
            if not isinstance(policy, FullTail):
                raise ValueError(
                    "window_tails cannot be combined with a custom tail_policy"
                )
            tailed_idx.append(i)
            tailed_lanes.append(lane)
            tailed_tails.extend(tails)
        else:
            plain_idx.append(i)
            plain_lanes.append(lane)
            plain_allow.append(policy.max_tail_s())
    reports: list[EnergyReport | None] = [None] * n
    radio_on: list[list[tuple[float, float]] | None] = [None] * n
    lengths: list[float | None] = [None] * n
    trc = tracer()
    traced: list[tuple[LaneDecomposition, int] | None] = [None] * n
    for idx, group, flat_tails, lane_allow in (
        (
            tailed_idx,
            tailed_lanes,
            np.asarray(tailed_tails, dtype=np.float64),
            None,
        ),
        (plain_idx, plain_lanes, None, plain_allow),
    ):
        if not idx:
            continue
        packed = pack_lanes(group)
        if flat_tails is not None:
            merged, allowances = merge_lanes_with_allowances(packed, flat_tails)
        else:
            merged = merge_lanes(packed)
            allowances = np.repeat(
                np.asarray(lane_allow, dtype=np.float64), merged.counts()
            )
        decomp = decompose_lanes(
            merged, allowances, tail_s=model.tail_s, dch_tail_s=model.dch_tail_s
        )
        for j, (i, report) in enumerate(zip(idx, _machine_reports(decomp, model))):
            reports[i] = report
            traced[i] = (decomp, j)
        if keep_intervals is None:
            continue
        extended = extend_lanes_by_tails(decomp)
        for i, length in zip(idx, lane_radio_on_lengths(extended).tolist()):
            lengths[i] = length
        for j, i in enumerate(idx):
            if keep_intervals[i]:
                radio_on[i] = extended.lane(j)
    if trc.enabled:
        for i, (decomp, j) in enumerate(traced):
            if sim_contexts is None:
                _record_rrc_spans(trc, decomp.lane(j))
            else:
                with trc.sim_context(sim_contexts[i]):
                    _record_rrc_spans(trc, decomp.lane(j))
    return reports, radio_on, lengths


def replay_many_lengths(
    lanes: Sequence[Lane],
    model: RadioPowerModel,
    tail_policies: Sequence[TailPolicy | None] | None = None,
    *,
    window_tails: Sequence[Sequence[float] | None] | None = None,
    keep_intervals: Sequence[bool],
    sim_contexts: Sequence[str] | None = None,
) -> list[tuple[EnergyReport, float, list[tuple[float, float]] | None]]:
    """Batched energy and radio-on pricing sharing one decomposition.

    ``lanes[i]`` is lane ``i``'s ``(starts, ends)`` columns.
    ``results[i]`` is ``(report, radio_on_length, intervals)``: the
    report is bit-equal to ``simulate(list(zip(*lanes[i])), model,
    tail_policies[i], window_tails=window_tails[i])`` and
    ``radio_on_length`` to the total length of lane ``i``'s merged
    radio-on intervals (each merged transfer window extended by its
    tail) — the scalar most consumers actually need — computed inside
    the lane batch without materializing Python interval lists.  The
    merge and decomposition run once per lane, on top of the cross-lane
    batching, and telemetry counter totals equal the lane-by-lane sums.  The
    ``intervals`` element is only built (and only for lanes whose
    ``keep_intervals`` flag is True) for callers that must re-merge with
    extra windows; it is ``None`` elsewhere.

    ``sim_contexts`` names each lane's trace track prefix (the tracer's
    ``sim_context``) for its RRC spans; results never depend on it.
    """
    n = len(lanes)
    for name, values in (
        ("keep_intervals", keep_intervals),
        ("sim_contexts", sim_contexts),
    ):
        if values is not None and len(values) != n:
            raise ValueError(f"{name} must parallel lanes: {len(values)} vs {n}")
    reports, radio_on, lengths = _replay_lanes(
        lanes,
        model,
        tail_policies,
        window_tails,
        keep_intervals=keep_intervals,
        sim_contexts=sim_contexts,
    )
    return list(zip(reports, lengths, radio_on))
