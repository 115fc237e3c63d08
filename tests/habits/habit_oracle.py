"""Per-day matrix walk of the habit statistics — the tests' oracle.

A plain port of the hour binning behind the habit model (Section IV,
Eqs. (2)-(3)): each statistic is built as a ``(n_days, 24)`` matrix over
the whole trace, the rows are split by day type, and each day type's
rows are averaged.  The shipped fitter
(:class:`repro.stream.online_habits.OnlineHabitModel`, which
:meth:`repro.habits.HabitModel.fit` folds a history through) keeps the
same rows one record at a time; its contract is bit-identity with
:func:`oracle_fit`, so every comparison against it is exact equality
(:func:`habit_models_equal`).
"""

from __future__ import annotations

import numpy as np

from repro._util import DAY, HOUR, HOURS_PER_DAY, day_of, hour_of
from repro.habits import HabitModel, SpecialAppRegistry
from repro.traces import Trace


def screen_use_matrix(trace: Trace) -> np.ndarray:
    """``(n_days, 24)`` binary phone-used-in-hour indicators ``u(t_i)_j``.

    A slot counts as used when any screen session overlaps it, including
    sessions that span hour or midnight boundaries.
    """
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    for session in trace.screen_sessions:
        t = session.start
        last = max(session.start, session.end - 1e-9)
        while True:
            day, hour = day_of(t), hour_of(t)
            if day < trace.n_days:
                matrix[day, hour] = 1.0
            # Advance to the start of the next hour bin.
            next_bin = (np.floor(t / 3600.0) + 1.0) * 3600.0
            if next_bin > last:
                break
            t = next_bin
    return matrix


def network_intensity_matrix(trace: Trace, *, screen_off_only: bool = True) -> np.ndarray:
    """``(n_days, 24)`` network-activity counts per day-hour.

    With ``screen_off_only`` (the default) this is the per-hour evidence
    behind screen-off network slot prediction, i.e. ``Σ_m n(p_m, t_i)_j``.
    """
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    for activity in trace.activities:
        if screen_off_only and activity.screen_on:
            continue
        day = day_of(activity.time)
        if day < trace.n_days:
            matrix[day, hour_of(activity.time)] += 1.0
    return matrix


def network_bytes_matrix(trace: Trace, *, screen_off_only: bool = True) -> np.ndarray:
    """``(n_days, 24)`` transferred bytes per day-hour (V(n) evidence)."""
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    for activity in trace.activities:
        if screen_off_only and activity.screen_on:
            continue
        day = day_of(activity.time)
        if day < trace.n_days:
            matrix[day, hour_of(activity.time)] += activity.total_bytes
    return matrix


def net_seconds_matrix(trace: Trace) -> np.ndarray:
    """``(n_days, 24)`` screen-off transfer seconds per day-hour cell,
    binned at each activity's start hour."""
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    for activity in trace.activities:
        if activity.screen_on:
            continue
        day = int(activity.time // DAY)
        if day < trace.n_days:
            matrix[day, int((activity.time % DAY) // HOUR)] += activity.duration
    return matrix


def screen_seconds_matrix(trace: Trace) -> np.ndarray:
    """``(n_days, 24)`` screen-on seconds per day-hour cell."""
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    for session in trace.screen_sessions:
        t = session.start
        while t < session.end:
            day = int(t // DAY)
            hour = int((t % DAY) // HOUR)
            bin_end = (np.floor(t / HOUR) + 1.0) * HOUR
            seg_end = min(session.end, bin_end)
            if day < trace.n_days:
                matrix[day, hour] += seg_end - t
            t = seg_end
    return matrix


def split_by_daytype(matrix: np.ndarray, trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``(n_days, 24)`` matrix into (weekday rows, weekend rows)."""
    if matrix.shape[0] != trace.n_days:
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows but the trace spans {trace.n_days} days"
        )
    weekend_mask = np.array(
        [trace.is_weekend_day(d) for d in range(trace.n_days)], dtype=bool
    )
    return matrix[~weekend_mask], matrix[weekend_mask]


def oracle_registry(trace: Trace) -> SpecialAppRegistry:
    """Special apps of a whole trace: used and networked, anywhere in it."""
    used = {u.app for u in trace.usages}
    networked = {a.app for a in trace.activities}
    counts: dict[str, int] = {}
    for usage in trace.usages:
        counts[usage.app] = counts.get(usage.app, 0) + 1
    return SpecialAppRegistry(
        special=used & networked, seen=used | networked, usage_counts=counts
    )


def oracle_fit(trace: Trace) -> HabitModel:
    """The habit model of ``trace``, from whole-trace matrices."""
    use = screen_use_matrix(trace)
    net = network_intensity_matrix(trace, screen_off_only=True)
    net_bytes = network_bytes_matrix(trace, screen_off_only=True)
    net_secs = net_seconds_matrix(trace)
    screen_secs = screen_seconds_matrix(trace)

    use_wd, use_we = split_by_daytype(use, trace)
    net_wd, net_we = split_by_daytype(net, trace)
    bytes_wd, bytes_we = split_by_daytype(net_bytes, trace)
    nsecs_wd, nsecs_we = split_by_daytype(net_secs, trace)
    secs_wd, secs_we = split_by_daytype(screen_secs, trace)

    def mean(rows: np.ndarray) -> np.ndarray:
        return rows.mean(axis=0) if rows.shape[0] else np.zeros(HOURS_PER_DAY)

    return HabitModel(
        user_id=trace.user_id,
        n_weekdays=use_wd.shape[0],
        n_weekends=use_we.shape[0],
        weekday_user_probs=mean(use_wd),
        weekend_user_probs=mean(use_we),
        weekday_net_counts=mean(net_wd),
        weekend_net_counts=mean(net_we),
        weekday_net_bytes=mean(bytes_wd),
        weekend_net_bytes=mean(bytes_we),
        weekday_net_seconds=mean(nsecs_wd),
        weekend_net_seconds=mean(nsecs_we),
        weekday_screen_seconds=mean(secs_wd),
        weekend_screen_seconds=mean(secs_we),
        special_apps=oracle_registry(trace),
    )


#: The ten hour-level statistic vectors a HabitModel carries.
_ARRAY_FIELDS = (
    "weekday_user_probs",
    "weekend_user_probs",
    "weekday_net_counts",
    "weekend_net_counts",
    "weekday_net_bytes",
    "weekend_net_bytes",
    "weekday_net_seconds",
    "weekend_net_seconds",
    "weekday_screen_seconds",
    "weekend_screen_seconds",
)


def habit_models_equal(a: HabitModel, b: HabitModel) -> bool:
    """Bit-exact equality of two habit models.

    Arrays compare by their raw float64 bytes (so ``-0.0 != 0.0`` and
    NaN patterns are honoured — stricter than ``np.array_equal``), the
    Special-App registry by set/dict equality.  This is the contract the
    online/offline parity tests assert.
    """
    if (a.user_id, a.n_weekdays, a.n_weekends) != (b.user_id, b.n_weekdays, b.n_weekends):
        return False
    for name in _ARRAY_FIELDS:
        left = np.ascontiguousarray(getattr(a, name), dtype=np.float64)
        right = np.ascontiguousarray(getattr(b, name), dtype=np.float64)
        if left.shape != right.shape or left.tobytes() != right.tobytes():
            return False
    return a.special_apps == b.special_apps
