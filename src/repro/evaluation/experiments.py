"""Experiment drivers: one function per table/figure of the paper.

Each ``fig*`` function is deterministic given its ``seed`` and returns a
small result dataclass carrying exactly the series the corresponding
figure plots, plus the headline statistic quoted in the text.  The
benchmark suite calls these functions and prints the series; the tests
assert the qualitative shape (who wins, roughly by how much, where the
crossovers sit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import DAY
from repro.baselines import (
    BatchPolicy,
    DelayBatchPolicy,
    DelayPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
    SchedulingPolicy,
)
from repro.core.duty_cycle import (
    ExponentialSleep,
    FixedSleep,
    RandomSleep,
    radio_on_fraction_after,
    wakeup_times,
)
from repro.core.netmaster import NetMasterConfig
from repro.core.overlapped import MKPItem, MKPSlot, solve_exact_bruteforce, solve_overlapped
from repro.evaluation.metrics import (
    PolicyDayMetrics,
    aggregate_energy_saving,
    run_policy_over_days,
)
from repro.runtime.parallel import PolicyTask, run_policy_tasks
from repro.habits.pearson import cross_user_matrix, day_matrix, mean_offdiagonal
from repro.habits.prediction import HabitModel, prediction_accuracy
from repro.habits.threshold import FixedDelta
from repro.radio.power import RadioPowerModel, wcdma_model
from repro.traces.analysis import (
    active_app_share,
    app_intensity,
    cohort_traffic_split,
    cohort_utilization,
    rate_cdf,
    rate_percentile,
)
from repro.telemetry import tracer
from repro.traces.events import ScreenSession, Trace
from repro.traces.generator import generate_cohort, generate_volunteers

#: History/test split used for the Section VI experiments: train on the
#: first days of each volunteer trace, evaluate on the rest.
DEFAULT_HISTORY_DAYS = 10


def split_history(trace: Trace, n_history_days: int) -> tuple[Trace, list[Trace]]:
    """Split a trace into a training prefix and held-out single days.

    A screen session crossing the cut is clipped there, as
    :meth:`Trace.day_view` clips one crossing midnight: the history
    keeps its screen time, and the screen-on activities inside it.
    """
    if not 0 < n_history_days < trace.n_days:
        raise ValueError(
            f"n_history_days must be in (0, {trace.n_days}), got {n_history_days}"
        )
    horizon = n_history_days * DAY
    history = Trace(
        user_id=trace.user_id,
        n_days=n_history_days,
        start_weekday=trace.start_weekday,
        screen_sessions=[
            ScreenSession(s.start, min(s.end, horizon))
            for s in trace.screen_sessions
            if s.start < horizon
        ],
        usages=[u for u in trace.usages if u.time < horizon],
        activities=[a for a in trace.activities if a.time < horizon],
    )
    test_days = [trace.day_view(d) for d in range(n_history_days, trace.n_days)]
    return history, test_days


# ======================================================================
# Section III — motivation figures
# ======================================================================


@dataclass
class Fig1aResult:
    """Screen-on/off traffic split per user (Fig. 1(a))."""

    user_ids: list[str]
    off_fractions: list[float]
    average_off_fraction: float  # paper: 0.4098


def fig1a(seed: int = 2014, n_days: int = 21) -> Fig1aResult:
    """Network activity distribution over the 8-user cohort."""
    traces = generate_cohort(n_days, seed=seed)
    splits, avg = cohort_traffic_split(traces)
    return Fig1aResult(
        user_ids=[t.user_id for t in traces],
        off_fractions=[s.off_fraction for s in splits],
        average_off_fraction=avg,
    )


@dataclass
class Fig1bResult:
    """Transfer-rate CDFs (Fig. 1(b))."""

    grid_kbps: np.ndarray
    cdf_screen_on: np.ndarray
    cdf_screen_off: np.ndarray
    p90_on_kbps: float  # paper: < 5 kBps
    p90_off_kbps: float  # paper: < 1 kBps


def fig1b(seed: int = 2014, n_days: int = 21) -> Fig1bResult:
    """Bandwidth utilization CDFs by screen state."""
    traces = generate_cohort(n_days, seed=seed)
    grid, cdf_on = rate_cdf(traces, screen_on=True)
    _, cdf_off = rate_cdf(traces, screen_on=False)
    return Fig1bResult(
        grid_kbps=grid,
        cdf_screen_on=cdf_on,
        cdf_screen_off=cdf_off,
        p90_on_kbps=rate_percentile(traces, 0.9, screen_on=True),
        p90_off_kbps=rate_percentile(traces, 0.9, screen_on=False),
    )


@dataclass
class Fig2Result:
    """Screen-on time utilization (Fig. 2)."""

    user_ids: list[str]
    avg_session_s: list[float]
    avg_utilized_s: list[float]
    average_utilization: float  # paper: 0.4514


def fig2(seed: int = 2014, n_days: int = 21) -> Fig2Result:
    """Average vs utilized screen-on intervals per user."""
    traces = generate_cohort(n_days, seed=seed)
    stats, avg = cohort_utilization(traces)
    return Fig2Result(
        user_ids=[s.user_id for s in stats],
        avg_session_s=[s.avg_session_s for s in stats],
        avg_utilized_s=[s.avg_utilized_s for s in stats],
        average_utilization=avg,
    )


@dataclass
class Fig3Result:
    """Cross-user Pearson matrix (Fig. 3)."""

    matrix: np.ndarray
    average: float  # paper: 0.1353


def fig3(seed: int = 2014, n_days: int = 21) -> Fig3Result:
    """Pearson parameters between all user pairs."""
    traces = generate_cohort(n_days, seed=seed)
    matrix = cross_user_matrix(traces)
    return Fig3Result(matrix=matrix, average=mean_offdiagonal(matrix))


@dataclass
class Fig4Result:
    """Day-by-day Pearson matrix for one user (Fig. 4)."""

    user_id: str
    matrix: np.ndarray
    average: float  # paper: 0.8171 for user 4


def fig4(seed: int = 2014, n_days: int = 21, user_index: int = 3, window_days: int = 8) -> Fig4Result:
    """Intra-user day-to-day correlation (paper shows user 4, 8 days)."""
    traces = generate_cohort(n_days, seed=seed)
    trace = traces[user_index]
    matrix = day_matrix(trace, n_days=window_days)
    return Fig4Result(user_id=trace.user_id, matrix=matrix, average=mean_offdiagonal(matrix))


@dataclass
class Fig5Result:
    """One-week per-app usage pattern (Fig. 5)."""

    user_id: str
    hourly_intensity: dict[str, np.ndarray]
    n_installed: int
    n_active: int  # paper: 8 of 23
    top_app: str
    top_share: float  # paper: weChat, 0.59


def fig5(seed: int = 2014, n_days: int = 7, user_index: int = 2) -> Fig5Result:
    """Per-app hourly usage for the messaging-heavy user (paper user 3)."""
    traces = generate_cohort(n_days, seed=seed)
    trace = traces[user_index]
    share = active_app_share(trace)
    intensity = {
        app: vec for app, vec in app_intensity(trace).items() if app in share
    }
    top_app = max(share, key=share.__getitem__) if share else ""
    from repro.traces.apps import default_catalog

    return Fig5Result(
        user_id=trace.user_id,
        hourly_intensity=intensity,
        n_installed=len(default_catalog()),
        n_active=len(share),
        top_app=top_app,
        top_share=share.get(top_app, 0.0),
    )


# ======================================================================
# Section VI-A — general performance (Fig. 7)
# ======================================================================


@dataclass
class VolunteerResult:
    """Per-volunteer policy comparison."""

    user_id: str
    power_on_s: float
    per_policy: dict[str, list[PolicyDayMetrics]]
    energy_saving: dict[str, float]
    radio_on_s: dict[str, float]
    bandwidth_ratio: dict[str, dict[str, float]]


@dataclass
class Fig7Result:
    """Overall performance comparison (Figs. 7(a)-(c))."""

    volunteers: list[VolunteerResult]
    netmaster_mean_saving: float  # paper: 0.778
    delay_batch_mean_saving: float  # paper: 0.2254
    oracle_mean_saving: float
    within_5pct_of_oracle: float  # paper: 0.816
    worst_oracle_gap: float  # paper: 0.112
    mean_radio_time_saving: float  # paper: 0.7539
    mean_down_ratio: float  # paper: 3.84
    mean_up_ratio: float  # paper: 2.63
    mean_peak_down_ratio: float  # paper: ~1
    mean_peak_up_ratio: float  # paper: ~1


def fig7(
    seed: int = 43,
    n_days: int = 14,
    n_history_days: int = DEFAULT_HISTORY_DAYS,
    model: RadioPowerModel | None = None,
    config: NetMasterConfig | None = None,
    jobs: int = 1,
) -> Fig7Result:
    """The three-volunteer evaluation of Section VI-A.

    ``jobs>1`` fans the (volunteer × policy) grid over a process pool;
    results are reassembled in submission order, so the figure output is
    bit-identical to the serial run.
    """
    model = model or wcdma_model()
    volunteers = generate_volunteers(n_days, seed=seed)
    results: list[VolunteerResult] = []
    nm_savings: list[float] = []
    db_savings: list[float] = []
    oracle_savings: list[float] = []
    gaps: list[float] = []
    radio_savings: list[float] = []
    down_ratios: list[float] = []
    up_ratios: list[float] = []
    peak_down_ratios: list[float] = []
    peak_up_ratios: list[float] = []

    prepared = []
    with tracer().span("fig7-train", "experiment", volunteers=len(volunteers)):
        for trace in volunteers:
            history, test_days = split_history(trace, n_history_days)
            policies = {
                "baseline": NaivePolicy(),
                "oracle": OraclePolicy(),
                "netmaster": NetMasterPolicy(history, config or NetMasterConfig()),
                "delay-batch-10s": DelayBatchPolicy(10.0),
                "delay-batch-20s": DelayBatchPolicy(20.0),
                "delay-batch-60s": DelayBatchPolicy(60.0),
            }
            prepared.append((trace, test_days, policies))

    tasks = [
        PolicyTask(name=f"{trace.user_id}/{name}", policy=policy, days=tuple(test_days), model=model)
        for trace, test_days, policies in prepared
        for name, policy in policies.items()
    ]
    with tracer().span("fig7-grid", "experiment", tasks=len(tasks), jobs=jobs):
        grid = iter(run_policy_tasks(tasks, jobs=jobs))

    for trace, test_days, policies in prepared:
        per_policy = {name: next(grid) for name in policies}
        base = per_policy["baseline"]
        saving = {
            name: aggregate_energy_saving(metrics, base)
            for name, metrics in per_policy.items()
        }
        radio = {
            name: sum(m.radio_on_s for m in metrics)
            for name, metrics in per_policy.items()
        }
        # Bandwidth-utilization improvement: aggregate rates over the
        # test window, NetMaster vs baseline.
        def window_rates(metrics: list[PolicyDayMetrics]) -> dict[str, float]:
            on_time = sum(m.radio_on_s for m in metrics)
            down = sum(m.bandwidth.avg_down_bps * m.radio_on_s for m in metrics)
            up = sum(m.bandwidth.avg_up_bps * m.radio_on_s for m in metrics)
            return {
                "down_avg": down / on_time if on_time else 0.0,
                "up_avg": up / on_time if on_time else 0.0,
                "down_peak": max((m.bandwidth.peak_down_bps for m in metrics), default=0.0),
                "up_peak": max((m.bandwidth.peak_up_bps for m in metrics), default=0.0),
            }

        nm_rates = window_rates(per_policy["netmaster"])
        base_rates = window_rates(base)
        ratio = {
            key: (nm_rates[key] / base_rates[key]) if base_rates[key] else 0.0
            for key in nm_rates
        }

        # Per-day oracle gap (Fig. 7(a) text: within 5% in 81.6% of
        # tests; worst case 11.2%).  The gap is the fraction of the
        # oracle's saving that NetMaster failed to realize.
        for nm_day, or_day, base_day in zip(
            per_policy["netmaster"], per_policy["oracle"], base
        ):
            if base_day.energy_j > 0:
                nm_s = 1.0 - nm_day.energy_j / base_day.energy_j
                or_s = 1.0 - or_day.energy_j / base_day.energy_j
                if or_s > 0:
                    gaps.append(1.0 - nm_s / or_s)

        nm_savings.append(saving["netmaster"])
        oracle_savings.append(saving["oracle"])
        db_savings.extend(
            saving[k] for k in ("delay-batch-10s", "delay-batch-20s", "delay-batch-60s")
        )
        radio_savings.append(1.0 - radio["netmaster"] / radio["baseline"])
        down_ratios.append(ratio["down_avg"])
        up_ratios.append(ratio["up_avg"])
        peak_down_ratios.append(ratio["down_peak"])
        peak_up_ratios.append(ratio["up_peak"])

        results.append(
            VolunteerResult(
                user_id=trace.user_id,
                power_on_s=sum(d.total_screen_on_time() for d in test_days),
                per_policy=per_policy,
                energy_saving=saving,
                radio_on_s=radio,
                bandwidth_ratio={"netmaster_vs_baseline": ratio},
            )
        )

    gaps_arr = np.asarray(gaps)
    return Fig7Result(
        volunteers=results,
        netmaster_mean_saving=float(np.mean(nm_savings)),
        delay_batch_mean_saving=float(np.mean(db_savings)),
        oracle_mean_saving=float(np.mean(oracle_savings)),
        within_5pct_of_oracle=float(np.mean(gaps_arr <= 0.05)) if gaps_arr.size else 0.0,
        worst_oracle_gap=float(gaps_arr.max()) if gaps_arr.size else 0.0,
        mean_radio_time_saving=float(np.mean(radio_savings)),
        mean_down_ratio=float(np.mean(down_ratios)),
        mean_up_ratio=float(np.mean(up_ratios)),
        mean_peak_down_ratio=float(np.mean(peak_down_ratios)),
        mean_peak_up_ratio=float(np.mean(peak_up_ratios)),
    )


# ======================================================================
# Section VI-C — delay and batch sweeps (Figs. 8-9)
# ======================================================================

#: The paper's Fig. 8 x-axis.
DELAY_SWEEP_S = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0)


def _sweep_vs_naive(
    fig: str,
    days: list[Trace],
    points: Sequence[tuple[str, SchedulingPolicy]],
    model: RadioPowerModel,
    jobs: int,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """One sweep curve set: each named policy over every held-out day.

    Returns, per point, the energy saving, radio-time saving, downlink
    bandwidth increase and affected-interaction ratio against the naive
    baseline over the same days.  The baseline runs under the
    ``<fig>-baseline`` span, the sweep under ``<fig>-sweep``.
    """
    with tracer().span(f"{fig}-baseline", "experiment", days=len(days)):
        base_metrics = run_policy_over_days(NaivePolicy(), days, model)
    base_energy = sum(m.energy_j for m in base_metrics)
    base_radio = sum(m.radio_on_s for m in base_metrics)
    base_rate = (
        sum(m.bandwidth.avg_down_bps * m.radio_on_s for m in base_metrics) / base_radio
    )

    held_out = tuple(days)
    tasks = [
        PolicyTask(name=name, policy=policy, days=held_out, model=model)
        for name, policy in points
    ]
    with tracer().span(f"{fig}-sweep", "experiment", tasks=len(tasks), jobs=jobs):
        sweep = run_policy_tasks(tasks, jobs=jobs)

    energy_saving, radio_saving, bw_increase, affected = [], [], [], []
    for metrics in sweep:
        total_e = sum(m.energy_j for m in metrics)
        total_r = sum(m.radio_on_s for m in metrics)
        rate = sum(m.bandwidth.avg_down_bps * m.radio_on_s for m in metrics) / total_r
        energy_saving.append(1.0 - total_e / base_energy)
        radio_saving.append(1.0 - total_r / base_radio)
        bw_increase.append(rate / base_rate - 1.0)
        total_aff = sum(m.affected_user_activities for m in metrics)
        total_int = sum(m.user_interactions for m in metrics)
        affected.append(total_aff / total_int if total_int else 0.0)
    return energy_saving, radio_saving, bw_increase, affected


@dataclass
class Fig8Result:
    """Delay-method sweep (Figs. 8(a)-(c))."""

    delays_s: list[float]
    energy_saving: list[float]  # paper @600s: 0.092
    radio_time_saving: list[float]  # paper @600s: 0.367
    bandwidth_increase: list[float]  # paper @600s: 0.3305
    affected_ratio: list[float]  # paper @600s: > 0.40
    interactions_within_100s_gaps: float  # paper: 0.17


def fig8(
    seed: int = 43,
    n_days: int = 14,
    n_history_days: int = DEFAULT_HISTORY_DAYS,
    delays_s: tuple[float, ...] = DELAY_SWEEP_S,
    model: RadioPowerModel | None = None,
    jobs: int = 1,
) -> Fig8Result:
    """Off-line analysis of the pure delay method."""
    model = model or wcdma_model()
    volunteers = generate_volunteers(n_days, seed=seed)
    split = [split_history(t, n_history_days) for t in volunteers]
    all_days = [day for _, days in split for day in days]

    energy_saving, radio_saving, bw_increase, affected = _sweep_vs_naive(
        "fig8",
        all_days,
        [(f"delay-{d:g}", DelayPolicy(d)) for d in delays_s],
        model,
        jobs,
    )
    return Fig8Result(
        delays_s=list(delays_s),
        energy_saving=energy_saving,
        radio_time_saving=radio_saving,
        bandwidth_increase=bw_increase,
        affected_ratio=affected,
        interactions_within_100s_gaps=interactions_in_short_gaps(all_days, 100.0),
    )


def interactions_in_short_gaps(days: list[Trace], gap_s: float) -> float:
    """Fraction of interactions starting within ``gap_s`` of the previous
    session's end — the paper's "17% of user interactions fall just
    between two adjacent screen-off slots with intervals below 100 s"."""
    total = 0
    hits = 0
    for day in days:
        sessions = day.screen_sessions
        for prev, cur in zip(sessions, sessions[1:]):
            total += 1
            if cur.start - prev.end < gap_s:
                hits += 1
    return hits / total if total else 0.0


@dataclass
class Fig9Result:
    """Batch-method sweep (Figs. 9(a)-(b))."""

    batch_sizes: list[int]
    energy_saving: list[float]
    radio_time_saving: list[float]  # paper: up to 0.177
    bandwidth_increase: list[float]  # paper: up to 0.176
    affected_ratio: list[float]  # paper: <= 0.01 target


def fig9(
    seed: int = 43,
    n_days: int = 14,
    n_history_days: int = DEFAULT_HISTORY_DAYS,
    batch_sizes: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 8, 10),
    model: RadioPowerModel | None = None,
    jobs: int = 1,
) -> Fig9Result:
    """Off-line analysis of the pure batch method."""
    model = model or wcdma_model()
    volunteers = generate_volunteers(n_days, seed=seed)
    split = [split_history(t, n_history_days) for t in volunteers]
    all_days = [day for _, days in split for day in days]

    energy_saving, radio_saving, bw_increase, affected = _sweep_vs_naive(
        "fig9",
        all_days,
        [(f"batch-{s}", BatchPolicy(s)) for s in batch_sizes],
        model,
        jobs,
    )
    return Fig9Result(
        batch_sizes=list(batch_sizes),
        energy_saving=energy_saving,
        radio_time_saving=radio_saving,
        bandwidth_increase=bw_increase,
        affected_ratio=affected,
    )


# ======================================================================
# Section VI-D — parameter analysis (Fig. 10)
# ======================================================================


@dataclass
class Fig10aResult:
    """Radio-on time vs wake-up count per sleep interval (Fig. 10(a))."""

    sleep_intervals_s: list[float]
    wakeup_counts: list[int]
    fractions: dict[float, list[float]]


def fig10a(
    sleep_intervals_s: tuple[float, ...] = (5.0, 10.0, 20.0, 30.0, 120.0, 360.0),
    max_wakeups: int = 20,
    wake_window_s: float = 1.0,
) -> Fig10aResult:
    """Exponential duty cycle: radio-on fraction after k wake-ups."""
    counts = list(range(2, max_wakeups + 1, 2))
    fractions = {}
    for interval in sleep_intervals_s:
        scheme = ExponentialSleep(initial_s=interval)
        fractions[interval] = [
            radio_on_fraction_after(scheme, k, wake_window_s=wake_window_s)
            for k in counts
        ]
    return Fig10aResult(
        sleep_intervals_s=list(sleep_intervals_s),
        wakeup_counts=counts,
        fractions=fractions,
    )


@dataclass
class Fig10bResult:
    """Cumulative wake-ups over 30 minutes per scheme (Fig. 10(b))."""

    minutes: list[float]
    exponential: list[int]
    fixed: list[int]
    random: list[int]


def fig10b(
    horizon_min: float = 30.0,
    initial_s: float = 5.0,
    seed: int = 7,
) -> Fig10bResult:
    """Wake-up counts of exponential vs fixed vs random sleeping."""
    horizon = horizon_min * 60.0
    minutes = [float(m) for m in range(0, int(horizon_min) + 1, 5)]
    series = {}
    for name, scheme in (
        ("exponential", ExponentialSleep(initial_s=initial_s)),
        ("fixed", FixedSleep(interval_s=initial_s)),
        ("random", RandomSleep(lo_s=1.0, hi_s=2.0 * initial_s, seed=seed)),
    ):
        times = wakeup_times(scheme, horizon)
        series[name] = [int(np.searchsorted(times, m * 60.0)) for m in minutes]
    return Fig10bResult(
        minutes=minutes,
        exponential=series["exponential"],
        fixed=series["fixed"],
        random=series["random"],
    )


@dataclass
class Fig10cResult:
    """Prediction accuracy vs energy saving over δ (Fig. 10(c))."""

    thresholds: list[float]
    accuracy: list[float]
    energy_saving: list[float]  # normalized to the oracle saving
    crossover: float  # paper: 0.37


def fig10c(
    seed: int = 43,
    n_days: int = 14,
    n_history_days: int = DEFAULT_HISTORY_DAYS,
    thresholds: tuple[float, ...] = (
        0.0,
        0.05,
        0.1,
        0.15,
        0.2,
        0.25,
        0.3,
        0.35,
        0.4,
        0.45,
        0.5,
    ),
    model: RadioPowerModel | None = None,
    jobs: int = 1,
) -> Fig10cResult:
    """Sweep the prediction threshold δ on the volunteer cohort.

    Accuracy is the fraction of user interactions inside the predicted
    slots; energy saving is NetMaster's saving at that δ divided by the
    oracle saving (both against the stock baseline).  ``jobs>1`` fans
    the (δ × volunteer) NetMaster grid over a process pool.
    """
    model = model or wcdma_model()
    volunteers = generate_volunteers(n_days, seed=seed)
    split = [split_history(t, n_history_days) for t in volunteers]

    # Oracle reference saving.
    oracle_e = base_e = 0.0
    with tracer().span("fig10c-oracle", "experiment", volunteers=len(split)):
        for _, days in split:
            base = run_policy_over_days(NaivePolicy(), days, model)
            oracle = run_policy_over_days(OraclePolicy(), days, model)
            base_e += sum(m.energy_j for m in base)
            oracle_e += sum(m.energy_j for m in oracle)
    oracle_saving = 1.0 - oracle_e / base_e

    # Habit models depend only on the history, not on δ: fit once.
    habits = [HabitModel.fit(history) for history, _ in split]
    tasks = [
        PolicyTask(
            name=f"delta-{delta:g}",
            policy=NetMasterPolicy(
                history,
                NetMasterConfig(
                    delta=FixedDelta(delta),
                    # The paper's offline sweep optimizes only T_n (the
                    # slots outside U); see NetMasterConfig docs.
                    optimize_in_slot_traffic=False,
                ),
            ),
            days=tuple(days),
            model=model,
        )
        for delta in thresholds
        for history, days in split
    ]
    with tracer().span("fig10c-grid", "experiment", tasks=len(tasks), jobs=jobs):
        grid = iter(run_policy_tasks(tasks, jobs=jobs))

    accuracy, saving = [], []
    for delta in thresholds:
        acc_num = acc_den = 0
        nm_e = 0.0
        for habit, (history, days) in zip(habits, split):
            metrics = next(grid)
            nm_e += sum(m.energy_j for m in metrics)
            for day in days:
                pred = habit.user_slots(
                    weekend=day.is_weekend_day(0), strategy=FixedDelta(delta)
                )
                acc_num += prediction_accuracy(pred, day) * len(day.usages)
                acc_den += len(day.usages)
        accuracy.append(acc_num / acc_den if acc_den else 1.0)
        nm_saving = 1.0 - nm_e / base_e
        saving.append(nm_saving / oracle_saving if oracle_saving > 0 else 0.0)

    crossover = _crossover(list(thresholds), accuracy, saving)
    return Fig10cResult(
        thresholds=list(thresholds),
        accuracy=accuracy,
        energy_saving=saving,
        crossover=crossover,
    )


def _crossover(x: list[float], a: list[float], b: list[float]) -> float:
    """Interpolated x where series ``a`` and ``b`` cross (or the argmin gap)."""
    diffs = np.asarray(a) - np.asarray(b)
    for i in range(len(x) - 1):
        if diffs[i] == 0.0 or diffs[i] * diffs[i + 1] < 0:
            t = abs(diffs[i]) / (abs(diffs[i]) + abs(diffs[i + 1]) + 1e-12)
            return float(x[i] + t * (x[i + 1] - x[i]))
    return float(x[int(np.argmin(np.abs(diffs)))])


# ======================================================================
# Section VI-B — user experience
# ======================================================================


@dataclass
class UserExperienceResult:
    """Wrong-decision accounting (Section VI-B)."""

    interrupts: int  # paper: 1
    user_interactions: int  # paper: 319 settings appearances
    interrupt_ratio: float  # paper: < 0.01


def user_experience(
    seed: int = 43,
    n_days: int = 14,
    n_history_days: int = DEFAULT_HISTORY_DAYS,
    config: NetMasterConfig | None = None,
) -> UserExperienceResult:
    """Count NetMaster wrong decisions over the volunteer test windows."""
    volunteers = generate_volunteers(n_days, seed=seed)
    interrupts = interactions = 0
    for trace in volunteers:
        history, days = split_history(trace, n_history_days)
        policy = NetMasterPolicy(history, config or NetMasterConfig())
        for day in days:
            outcome = policy.execute_day(day)
            interrupts += outcome.interrupts
            interactions += outcome.user_interactions
    return UserExperienceResult(
        interrupts=interrupts,
        user_interactions=interactions,
        interrupt_ratio=interrupts / interactions if interactions else 0.0,
    )


# ======================================================================
# Lemma IV.1 — approximation-ratio verification
# ======================================================================


@dataclass
class ApproximationResult:
    """Empirical approximation ratios of Algorithm 1."""

    eps: float
    trials: int
    worst_ratio: float
    mean_ratio: float
    bound: float  # (1-eps)/2


def approximation_ratio(
    seed: int = 7, trials: int = 100, eps: float = 0.1
) -> ApproximationResult:
    """Compare Algorithm 1 against the exact optimum on random instances."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        n_slots = int(rng.integers(2, 5))
        slots = [MKPSlot(i, float(rng.uniform(5, 25))) for i in range(n_slots)]
        n_items = int(rng.integers(2, 11))
        items = []
        for j in range(n_items):
            first = int(rng.integers(0, n_slots))
            if rng.random() < 0.3:
                cands = [first]
            else:
                cands = [first, (first + 1) % n_slots]
            profits = {s: float(rng.uniform(0.5, 10.0)) for s in cands}
            items.append(MKPItem(j, float(rng.uniform(0.5, 12.0)), profits))
        approx = solve_overlapped(slots, items, eps=eps)
        exact = solve_exact_bruteforce(slots, items)
        if exact.total_profit > 0:
            ratios.append(approx.total_profit / exact.total_profit)
    arr = np.asarray(ratios)
    return ApproximationResult(
        eps=eps,
        trials=len(ratios),
        worst_ratio=float(arr.min()),
        mean_ratio=float(arr.mean()),
        bound=(1.0 - eps) / 2.0,
    )
