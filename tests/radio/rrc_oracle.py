"""Scalar reference walk of the RRC accounting — the tests' oracle.

A plain-Python port of the accounting every energy number rests on
(Section V): merge the transfer windows, then walk them left to right
charging DCH transfer time, a DCH-then-FACH inactivity tail per window,
and an IDLE→DCH or FACH→DCH promotion before every burst.  The shipped
engine (:mod:`repro.radio.lanes`) computes the same walk as array
passes over many lanes at once; its contract is bit-identity with these
loops, so every comparison against them is exact equality.
"""

from __future__ import annotations

import math


def reference_merge(windows):
    """Sort by ``(start, end)`` and fuse windows that touch or overlap."""
    merged = []
    for start, end in sorted((float(s), float(e)) for s, e in windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def reference_merge_with_allowances(windows, window_tails):
    """Fast-dormancy merge: a fused window keeps the allowance of the
    member that ends last (ties keep the larger allowance)."""
    order = sorted(range(len(windows)), key=lambda i: windows[i][0])
    merged, allowances = [], []
    for i in order:
        start, end = float(windows[i][0]), float(windows[i][1])
        tail = float(window_tails[i])
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            if end > last_end:
                merged[-1] = (last_start, end)
                allowances[-1] = tail
            elif end == last_end:
                allowances[-1] = max(allowances[-1], tail)
        else:
            merged.append((start, end))
            allowances.append(tail)
    return merged, allowances


def reference_decomposition(merged, model, allowances):
    """Per-window walk over disjoint sorted windows, as plain lists.

    Returns a dict of lists parallel to ``merged``: ``durations``,
    ``gaps`` (``inf`` after the last window), tail ``budgets`` and their
    ``dch_parts``/``fach_parts``, and the ``promo_fach``/``promo_idle``
    flags of the re-promotion that follows each window (never the last).
    """
    out = {
        name: []
        for name in (
            "durations",
            "gaps",
            "budgets",
            "dch_parts",
            "fach_parts",
            "promo_fach",
            "promo_idle",
        )
    }
    for i, (start, end) in enumerate(merged):
        allowance = allowances[i]
        has_next = i + 1 < len(merged)
        gap = merged[i + 1][0] - end if has_next else math.inf
        budget = min(gap, allowance, model.tail_s)
        dch_part = min(budget, model.dch_tail_s)
        out["durations"].append(end - start)
        out["gaps"].append(gap)
        out["budgets"].append(budget)
        out["dch_parts"].append(dch_part)
        out["fach_parts"].append(budget - dch_part)
        stay_dch = gap <= min(allowance, model.dch_tail_s)
        within_tail = gap <= min(allowance, model.tail_s)
        out["promo_fach"].append(has_next and not stay_dch and within_tail)
        out["promo_idle"].append(has_next and not within_tail)
    return out


def reference_machine(merged, model, allowances):
    """Energy accounting over disjoint sorted windows, one ``+=`` at a time."""
    if not merged:
        return {
            "energy_j": 0.0,
            "radio_on_s": 0.0,
            "transfer_s": 0.0,
            "tail_s": 0.0,
            "promo_idle_count": 0,
            "promo_fach_count": 0,
            "window_count": 0,
            "state_energy_j": {"transfer": 0.0, "tail": 0.0, "promo": 0.0},
        }
    transfer_e = tail_e = promo_e = 0.0
    transfer_s = tail_s = 0.0
    promo_idle = promo_fach = 0
    promo_idle += 1
    promo_e += model.promo_idle_energy_j
    promo_s_total = model.promo_idle_dch_s
    for i, (start, end) in enumerate(merged):
        allowance = allowances[i]
        transfer_s += end - start
        transfer_e += (end - start) * model.p_dch_w
        gap = merged[i + 1][0] - end if i + 1 < len(merged) else math.inf
        budget = min(gap, allowance, model.tail_s)
        dch_part = min(budget, model.dch_tail_s)
        fach_part = budget - dch_part
        tail_s += budget
        tail_e += dch_part * model.p_dch_w + fach_part * model.p_fach_w
        if i + 1 < len(merged):
            if gap <= min(allowance, model.dch_tail_s):
                pass
            elif gap <= min(allowance, model.tail_s):
                promo_fach += 1
                promo_e += model.promo_fach_energy_j
                promo_s_total += model.promo_fach_dch_s
            else:
                promo_idle += 1
                promo_e += model.promo_idle_energy_j
                promo_s_total += model.promo_idle_dch_s
    return {
        "energy_j": transfer_e + tail_e + promo_e,
        "radio_on_s": transfer_s + tail_s + promo_s_total,
        "transfer_s": transfer_s,
        "tail_s": tail_s,
        "promo_idle_count": promo_idle,
        "promo_fach_count": promo_fach,
        "window_count": len(merged),
        "state_energy_j": {"transfer": transfer_e, "tail": tail_e, "promo": promo_e},
    }


def reference_radio_on(merged, model, allowances):
    """Windows extended by their tail budgets, re-merged."""
    extended = []
    for i, (start, end) in enumerate(merged):
        gap = merged[i + 1][0] - end if i + 1 < len(merged) else math.inf
        budget = min(gap, allowances[i], model.tail_s)
        extended.append((start, end + budget))
    return reference_merge(extended)


def trace_energy(trace, model):
    """The stock phone's accounting of a whole trace executed as recorded:
    every activity at its recorded time, every window with the full
    carrier tails."""
    merged = reference_merge(a.interval for a in trace.activities)
    return reference_machine(merged, model, [math.inf] * len(merged))


def reference_sequential_sum(values, initial=0.0):
    """Left-to-right float accumulation, the order every total uses."""
    total = float(initial)
    for v in values:
        total += float(v)
    return total


def assert_report_matches(report, expected):
    """Exact equality on every :class:`EnergyReport` field."""
    assert report.energy_j == expected["energy_j"]
    assert report.radio_on_s == expected["radio_on_s"]
    assert report.transfer_s == expected["transfer_s"]
    assert report.tail_s == expected["tail_s"]
    assert report.promo_idle_count == expected["promo_idle_count"]
    assert report.promo_fach_count == expected["promo_fach_count"]
    assert report.window_count == expected["window_count"]
    assert report.state_energy_j == expected["state_energy_j"]
