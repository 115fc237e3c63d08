"""Trace profiling analyses behind the paper's motivation figures.

Each function here reproduces one measurement from Section III:

* :func:`traffic_split` / :func:`cohort_traffic_split` — Fig. 1(a), the
  screen-on vs screen-off split of network activities (paper: 40.98%
  screen-off on average);
* :func:`rate_values` / :func:`rate_cdf` — Fig. 1(b), the transfer-rate
  CDFs (paper: 90% of screen-off transfers below 1 kBps, 90% of screen-on
  below 5 kBps);
* :func:`screen_utilization` — Fig. 2, average vs utilized screen-on time
  (paper: 45.14% radio utilization ratio);
* :func:`app_intensity` / :func:`active_app_share` — Fig. 5, per-app
  hourly usage and the dominance of a few "Special Apps".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import HOURS_PER_DAY, hour_of, intersect_length
from repro.traces.events import Trace


@dataclass(frozen=True, slots=True)
class TrafficSplit:
    """Screen-on / screen-off decomposition of one user's traffic."""

    user_id: str
    on_count: int
    off_count: int
    on_bytes: float
    off_bytes: float

    @property
    def total_count(self) -> int:
        """Total number of network activities."""
        return self.on_count + self.off_count

    @property
    def off_fraction(self) -> float:
        """Fraction of network activities occurring with the screen off."""
        return self.off_count / self.total_count if self.total_count else 0.0


def traffic_split(trace: Trace) -> TrafficSplit:
    """Fig. 1(a) decomposition for a single user."""
    flags = trace.activity_screen_flags()
    totals = trace.activity_bytes().sum(axis=1) if trace.activities else np.zeros(0)
    on = flags.sum() if flags.size else 0
    return TrafficSplit(
        user_id=trace.user_id,
        on_count=int(on),
        off_count=int(flags.size - on),
        on_bytes=float(totals[flags].sum()) if flags.size else 0.0,
        off_bytes=float(totals[~flags].sum()) if flags.size else 0.0,
    )


def cohort_traffic_split(traces: list[Trace]) -> tuple[list[TrafficSplit], float]:
    """Per-user splits plus the cohort-average screen-off fraction."""
    splits = [traffic_split(t) for t in traces]
    if not splits:
        return [], 0.0
    avg = float(np.mean([s.off_fraction for s in splits]))
    return splits, avg


def rate_values(traces: list[Trace], *, screen_on: bool) -> np.ndarray:
    """All transfer rates (bytes/second) for one screen state, sorted."""
    rates: list[float] = []
    for trace in traces:
        flags = trace.activity_screen_flags()
        values = trace.activity_rates()
        rates.extend(values[flags == screen_on].tolist())
    return np.sort(np.asarray(rates, dtype=np.float64))


def rate_cdf(
    traces: list[Trace], *, screen_on: bool, grid_kbps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of transfer rates, evaluated on a kBps grid.

    Returns ``(grid_kbps, cdf)`` matching the axes of Fig. 1(b).
    """
    if grid_kbps is None:
        grid_kbps = np.linspace(0.0, 5.0, 51)
    rates = rate_values(traces, screen_on=screen_on)
    if rates.size == 0:
        return grid_kbps, np.zeros_like(grid_kbps)
    cdf = np.searchsorted(rates, grid_kbps * 1000.0, side="right") / rates.size
    return grid_kbps, cdf


def rate_percentile(traces: list[Trace], q: float, *, screen_on: bool) -> float:
    """The ``q``-quantile (0..1) of transfer rates, in kBps."""
    rates = rate_values(traces, screen_on=screen_on)
    if rates.size == 0:
        return 0.0
    return float(np.quantile(rates, q) / 1000.0)


@dataclass(frozen=True, slots=True)
class ScreenUtilization:
    """Fig. 2 statistics for one user."""

    user_id: str
    avg_session_s: float
    avg_utilized_s: float

    @property
    def utilization_ratio(self) -> float:
        """Fraction of screen-on time with active network communication."""
        return self.avg_utilized_s / self.avg_session_s if self.avg_session_s else 0.0


def screen_utilization(trace: Trace) -> ScreenUtilization:
    """Average screen-on interval vs its network-utilized portion.

    Utilized time is the overlap between screen sessions and transfer
    windows, exactly the paper's "percentage of screen-on time with active
    network communication".
    """
    sessions = [(s.start, s.end) for s in trace.screen_sessions]
    transfers = sorted(a.interval for a in trace.activities)
    # Transfer windows can overlap each other; merge before intersecting so
    # covered time is not double counted.
    merged: list[tuple[float, float]] = []
    for start, end in transfers:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    utilized = intersect_length(sessions, merged)
    n = len(sessions)
    total = sum(end - start for start, end in sessions)
    return ScreenUtilization(
        user_id=trace.user_id,
        avg_session_s=total / n if n else 0.0,
        avg_utilized_s=utilized / n if n else 0.0,
    )


def cohort_utilization(traces: list[Trace]) -> tuple[list[ScreenUtilization], float]:
    """Per-user Fig. 2 stats plus the cohort-average utilization ratio."""
    stats = [screen_utilization(t) for t in traces]
    if not stats:
        return [], 0.0
    avg = float(np.mean([s.utilization_ratio for s in stats]))
    return stats, avg


def app_intensity(trace: Trace) -> dict[str, np.ndarray]:
    """Per-app average hourly usage intensity (Fig. 5).

    Returns a mapping from app name to a length-24 vector of usage counts
    summed over the trace, for apps that were used at least once.
    """
    out: dict[str, np.ndarray] = {}
    for usage in trace.usages:
        vec = out.setdefault(usage.app, np.zeros(HOURS_PER_DAY))
        vec[hour_of(usage.time)] += 1.0
    return out


def active_app_share(trace: Trace) -> dict[str, float]:
    """Usage share per app among apps with both usage and network traffic.

    In the paper's Fig. 5 only 8 of 23 installed apps qualify, and
    ``com.tencent.mm`` alone accounts for 59% of all usage.
    """
    net_apps = {a.app for a in trace.activities}
    counts: dict[str, int] = {}
    for usage in trace.usages:
        if usage.app in net_apps:
            counts[usage.app] = counts.get(usage.app, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {app: count / total for app, count in counts.items()}
