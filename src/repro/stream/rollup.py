"""Streaming fleet rollup: O(1)-memory aggregates over user summaries.

At million-user scale the fleet cannot keep one
:class:`~repro.stream.fleet.UserStreamSummary` per user in memory — that
tuple is exactly the linear-RSS term the scale work removes.
:class:`FleetRollup` is its replacement: every summary is folded into
running aggregates the moment the user's last day closes, then dropped.
What survives per fleet (not per user!) is a fixed set of scalars:

* **counters** — users, events, user-days, executed days, checkpoints,
  drift alerts, degraded days, interrupts, interactions, deferrals,
  spilled summaries;
* **energy totals** — summed ``energy_j`` / ``radio_on_s`` (the inputs
  to every savings comparison: ``saving = 1 - energy/naive_energy``);
* **savings moments** — min / max / sum / sum-of-squares of each user's
  energy per executed day, plus a fixed-bucket histogram of the same
  quantity, so the per-user energy-footprint distribution survives
  eviction at resolution enough for fleet dashboards.

Folding happens in admission order, which both the list- and the
iterator-sourced admission loops share, so rollups are byte-identical
across spec sources, batch sizes and ``jobs=N``.
:meth:`FleetRollup.state_dict` dumps those aggregates as JSON-safe
values for reports.

:class:`SummarySpill` is the optional escape hatch for consumers that
do need the full per-user documents: an append-only JSONL sink
(``summaries.jsonl``) written next to the run and published atomically
on close (:class:`repro._util.AtomicJsonLines`), which
:class:`~repro.stream.fleet.FleetResult` re-reads lazily.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro._util import AtomicJsonLines
from repro.telemetry import metrics

if TYPE_CHECKING:  # import cycle: fleet.py imports this module
    from repro.stream.fleet import UserStreamSummary

#: Schema version of the rollup state document.
_ROLLUP_FORMAT = 1

#: Upper bucket edges (joules per executed day) of the savings
#: histogram; one implicit overflow bucket catches everything above.
SAVINGS_BUCKETS_J: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


@dataclass
class FleetRollup:
    """Running aggregates of a fleet run; O(1) memory, fold-in-order."""

    users: int = 0
    events: int = 0
    user_days: int = 0
    days_executed: int = 0
    checkpoints: int = 0
    drift_alerts: int = 0
    degraded_days: int = 0
    interrupts: int = 0
    user_interactions: int = 0
    deferred: int = 0
    spilled: int = 0
    energy_j: float = 0.0
    radio_on_s: float = 0.0
    #: Moments of per-user energy per executed day (J/day).
    energy_day_min: float | None = None
    energy_day_max: float | None = None
    energy_day_sum: float = 0.0
    energy_day_sumsq: float = 0.0
    #: Fixed-bucket histogram of the same quantity (last bucket = overflow).
    savings_hist: list[int] = field(
        default_factory=lambda: [0] * (len(SAVINGS_BUCKETS_J) + 1)
    )

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self, summary: "UserStreamSummary") -> None:
        """Fold one fully streamed user in; the summary is then garbage.

        The per-day energy is computed first, so a summary that cannot
        form it (an executed-day count no float holds) raises before any
        total changes.
        """
        per_day = summary.energy_j / max(1, summary.days_executed)
        self.users += 1
        self.events += summary.events
        self.user_days += summary.n_days
        self.days_executed += summary.days_executed
        self.checkpoints += summary.checkpoints
        self.drift_alerts += summary.drift_alerts
        self.degraded_days += summary.degraded_days
        self.interrupts += summary.interrupts
        self.user_interactions += summary.user_interactions
        self.deferred += summary.deferred
        self.energy_j += summary.energy_j
        self.radio_on_s += summary.radio_on_s
        if self.energy_day_min is None or per_day < self.energy_day_min:
            self.energy_day_min = per_day
        if self.energy_day_max is None or per_day > self.energy_day_max:
            self.energy_day_max = per_day
        self.energy_day_sum += per_day
        self.energy_day_sumsq += per_day * per_day
        self.savings_hist[bisect_left(SAVINGS_BUCKETS_J, per_day)] += 1

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe state; floats survive serialization bit-exactly."""
        return {
            "format": _ROLLUP_FORMAT,
            "users": self.users,
            "events": self.events,
            "user_days": self.user_days,
            "days_executed": self.days_executed,
            "checkpoints": self.checkpoints,
            "drift_alerts": self.drift_alerts,
            "degraded_days": self.degraded_days,
            "interrupts": self.interrupts,
            "user_interactions": self.user_interactions,
            "deferred": self.deferred,
            "spilled": self.spilled,
            "energy_j": self.energy_j,
            "radio_on_s": self.radio_on_s,
            "energy_day_min": self.energy_day_min,
            "energy_day_max": self.energy_day_max,
            "energy_day_sum": self.energy_day_sum,
            "energy_day_sumsq": self.energy_day_sumsq,
            "savings_buckets_j": list(SAVINGS_BUCKETS_J),
            "savings_hist": list(self.savings_hist),
        }


class SummarySpill(AtomicJsonLines):
    """Append-only JSONL sink for full per-user summary documents.

    Readers only ever observe a complete spill file (see
    :class:`repro._util.AtomicJsonLines`).  Each appended summary bumps
    the ``fleet.summaries_spilled`` counter.
    """

    def append(self, summary: "UserStreamSummary") -> None:
        """Spill one summary document as a JSON line."""
        self.write(summary.as_dict())
        metrics().inc("fleet.summaries_spilled")


def iter_spilled(path: str | Path) -> Iterator["UserStreamSummary"]:
    """Stream the summaries back out of a published spill file."""
    from repro.stream.fleet import UserStreamSummary

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield UserStreamSummary.from_dict(json.loads(line))


def read_spilled(path: str | Path) -> tuple["UserStreamSummary", ...]:
    """The whole spill file as a tuple (small cohorts / tests only)."""
    return tuple(iter_spilled(path))
