"""Batch pricing: many (outcome, day) cells per lane-engine pass.

Every priced day in the repo — a figure grid, a fleet drain, one gateway
day close — goes through :func:`measure_outcomes_columnar`.  It routes
the cells through :func:`repro.radio.lanes.replay_many_lengths`: one
merge + one decomposition per cell, batched across all cells, with the
scalar per-cell adjustments (wake-up/fault surcharges, payload checks,
utilization) applied afterwards.  A single day is the one-cell call
(:func:`repro.evaluation.metrics.measure_outcome`).

Bit-identity contract: a cell's :class:`PolicyDayMetrics` never depends
on the other cells in its batch — the lane engine is per-lane exact and
the assembly is per-cell scalar code (``finalize_energy``,
``merge_radio_on``, ``assemble_day_metrics``).

Imports of :mod:`repro.evaluation` / :mod:`repro.runtime` stay
function-level: those packages import :mod:`repro.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro._util import total_length
from repro.baselines.policy import PolicyOutcome
from repro.radio.bandwidth import activity_digest
from repro.radio.lanes import replay_many_lengths
from repro.radio.power import RadioPowerModel
from repro.traces.events import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.metrics import PolicyDayMetrics

__all__ = ["measure_outcomes_columnar"]


def measure_outcomes_columnar(
    cells: Sequence[tuple[PolicyOutcome, Trace]],
    model: RadioPowerModel,
    *,
    sim_contexts: Sequence[str] | None = None,
) -> list["PolicyDayMetrics"]:
    """Price every ``(outcome, day)`` cell under ``model`` in one batch.

    ``results[i]`` equals pricing ``cells[i]`` alone; the RRC merge,
    decomposition and energy reduction run once per cell (serving both
    energy and radio-on) inside one cross-cell lane batch.  A cell whose
    outcome lost or gained payload raises ``ValueError``.
    ``sim_contexts`` names each cell's trace track prefix for its RRC
    spans (default: the tracer's current context); results never depend
    on it.
    """
    from repro.evaluation.metrics import assemble_day_metrics

    # One cached pass per distinct activity list serves both the payload
    # check and the utilization stats (grids also reuse the same day
    # across policies).  Each digest component is bit-equal to its
    # standalone reduction; list identity is a safe cache key because
    # the cells hold their references for the duration of this call.
    digests: dict[int, tuple[float, float, float, float, float]] = {}

    def digest(activities) -> tuple[float, float, float, float, float]:
        d = digests.get(id(activities))
        if d is None:
            d = activity_digest(activities)
            digests[id(activities)] = d
        return d

    for outcome, day in cells:
        outcome.validate_payload(
            day,
            src_bytes=digest(day.activities)[4],
            out_bytes=digest(outcome.activities)[4],
        )
    lanes = [outcome.priced_lane() for outcome, _ in cells]
    policies = [outcome.priced_tail_policy() for outcome, _ in cells]
    tails = [outcome.priced_window_tails() for outcome, _ in cells]
    # Interval lists are only materialized for lanes that must re-merge
    # with extra wake windows; every other lane needs just the merged
    # radio-on length, which the kernel totals in-array.
    keep = [bool(outcome.extra_windows) for outcome, _ in cells]
    priced = replay_many_lengths(
        lanes,
        model,
        policies,
        window_tails=tails,
        keep_intervals=keep,
        sim_contexts=sim_contexts,
    )
    out: list["PolicyDayMetrics"] = []
    for (outcome, _), (base, on_s, intervals) in zip(cells, priced):
        if intervals is not None:
            on_s = total_length(outcome.merge_radio_on(intervals))
        out.append(
            assemble_day_metrics(
                outcome,
                outcome.finalize_energy(base, model),
                on_s,
                digest(outcome.activities),
            )
        )
    return out


def __getattr__(name: str):
    # The grid runner's former name, kept for existing importers: it is
    # the one runner, repro.runtime.parallel.run_policy_tasks.
    if name == "run_policy_tasks_columnar":
        from repro.runtime.parallel import run_policy_tasks

        return run_policy_tasks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
