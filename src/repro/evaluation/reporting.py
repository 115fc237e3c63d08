"""Plain-text reporting of experiment results.

Each ``print_*`` / ``format_*`` pair renders one experiment's result in
the same rows/series layout as the paper's figure, with the paper's
headline number alongside for comparison.  The benchmark suite calls
these after timing the drivers so ``pytest benchmarks/ --benchmark-only``
doubles as the full results reproduction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.evaluation import experiments as ex
from repro.evaluation import robustness as rb

PAPER = {
    "fig1a_avg_off": 0.4098,
    "fig1b_p90_off": 1.0,
    "fig1b_p90_on": 5.0,
    "fig2_util": 0.4514,
    "fig3_avg": 0.1353,
    "fig4_avg": 0.8171,
    "fig5_active": 8,
    "fig5_top_share": 0.59,
    "fig7_netmaster": 0.778,
    "fig7_delay_batch": 0.2254,
    "fig7_within5": 0.816,
    "fig7_worst_gap": 0.112,
    "fig7_radio": 0.7539,
    "fig7_down": 3.84,
    "fig7_up": 2.63,
    "fig8_energy_600": 0.092,
    "fig8_radio_600": 0.367,
    "fig8_bw_600": 0.3305,
    "fig8_affected_600": 0.40,
    "fig8_gap100": 0.17,
    "fig9_radio": 0.177,
    "fig9_bw": 0.176,
    "fig10c_crossover": 0.37,
    "ux_ratio": 0.01,
}


def _row(label: str, measured: float, paper: float | None = None, fmt: str = ".3f") -> str:
    base = f"  {label:<42s} {measured:{fmt}}"
    if paper is not None:
        base += f"   (paper: {paper:{fmt}})"
    return base


def format_fig1a(result: ex.Fig1aResult) -> str:
    """Fig. 1(a): per-user screen-off traffic fractions."""
    lines = ["Fig 1(a) — network activity distribution (screen-off fraction)"]
    for user, frac in zip(result.user_ids, result.off_fractions):
        lines.append(_row(user, frac))
    lines.append(_row("average", result.average_off_fraction, PAPER["fig1a_avg_off"]))
    return "\n".join(lines)


def format_fig1b(result: ex.Fig1bResult) -> str:
    """Fig. 1(b): transfer-rate CDF summary."""
    lines = ["Fig 1(b) — bandwidth utilization (kBps at 90th pct)"]
    lines.append(_row("p90 screen-off", result.p90_off_kbps, PAPER["fig1b_p90_off"]))
    lines.append(_row("p90 screen-on", result.p90_on_kbps, PAPER["fig1b_p90_on"]))
    return "\n".join(lines)


def format_fig2(result: ex.Fig2Result) -> str:
    """Fig. 2: screen-on time utilization."""
    lines = ["Fig 2 — screen-on time utilization (avg s / utilized s)"]
    for user, total, used in zip(
        result.user_ids, result.avg_session_s, result.avg_utilized_s
    ):
        lines.append(f"  {user:<42s} {total:6.1f} / {used:5.1f}")
    lines.append(_row("average utilization ratio", result.average_utilization, PAPER["fig2_util"]))
    return "\n".join(lines)


def format_fig3(result: ex.Fig3Result) -> str:
    """Fig. 3: cross-user Pearson parameters."""
    lines = ["Fig 3 — cross-user Pearson matrix"]
    for row in result.matrix:
        lines.append("  " + " ".join(f"{v:6.2f}" for v in row))
    lines.append(_row("average (off-diagonal)", result.average, PAPER["fig3_avg"]))
    return "\n".join(lines)


def format_fig4(result: ex.Fig4Result) -> str:
    """Fig. 4: one user's day-to-day Pearson parameters."""
    lines = [f"Fig 4 — day-by-day Pearson matrix ({result.user_id})"]
    for row in result.matrix:
        lines.append("  " + " ".join(f"{v:6.2f}" for v in row))
    lines.append(_row("average (off-diagonal)", result.average, PAPER["fig4_avg"]))
    return "\n".join(lines)


def format_fig5(result: ex.Fig5Result) -> str:
    """Fig. 5: one-week program pattern."""
    lines = [f"Fig 5 — weekly app pattern ({result.user_id})"]
    lines.append(
        _row("active apps / installed", result.n_active, float(PAPER["fig5_active"]), fmt=".0f")
    )
    lines.append(_row(f"top app share ({result.top_app})", result.top_share, PAPER["fig5_top_share"]))
    for app, vec in sorted(result.hourly_intensity.items()):
        lines.append(f"  {app:<34s} total {vec.sum():6.0f}  peak hour {int(vec.argmax()):2d}")
    return "\n".join(lines)


def format_fig7(result: ex.Fig7Result) -> str:
    """Figs. 7(a)-(c): the policy comparison."""
    lines = ["Fig 7 — overall performance (energy saving vs baseline)"]
    for vol in result.volunteers:
        parts = ", ".join(f"{k}={v:.3f}" for k, v in sorted(vol.energy_saving.items()))
        lines.append(f"  {vol.user_id}: {parts}")
    lines.append(_row("NetMaster mean saving", result.netmaster_mean_saving, PAPER["fig7_netmaster"]))
    lines.append(_row("oracle mean saving", result.oracle_mean_saving))
    lines.append(
        _row("delay&batch mean saving", result.delay_batch_mean_saving, PAPER["fig7_delay_batch"])
    )
    lines.append(_row("tests within 5% of oracle", result.within_5pct_of_oracle, PAPER["fig7_within5"]))
    lines.append(_row("worst oracle gap", result.worst_oracle_gap, PAPER["fig7_worst_gap"]))
    lines.append(_row("radio-on time saving", result.mean_radio_time_saving, PAPER["fig7_radio"]))
    lines.append(_row("download avg-rate ratio", result.mean_down_ratio, PAPER["fig7_down"], fmt=".2f"))
    lines.append(_row("upload avg-rate ratio", result.mean_up_ratio, PAPER["fig7_up"], fmt=".2f"))
    lines.append(_row("download peak-rate ratio", result.mean_peak_down_ratio, 1.0, fmt=".2f"))
    lines.append(_row("upload peak-rate ratio", result.mean_peak_up_ratio, 1.0, fmt=".2f"))
    return "\n".join(lines)


def format_fig8(result: ex.Fig8Result) -> str:
    """Figs. 8(a)-(c): the delay sweep."""
    lines = ["Fig 8 — delay-method sweep"]
    lines.append("  delay_s  energy  radio   bw+     affected")
    for d, e, r, b, a in zip(
        result.delays_s,
        result.energy_saving,
        result.radio_time_saving,
        result.bandwidth_increase,
        result.affected_ratio,
    ):
        lines.append(f"  {d:7.0f}  {e:6.3f}  {r:6.3f}  {b:6.3f}  {a:6.3f}")
    lines.append(
        _row(
            "interactions within 100s gaps",
            result.interactions_within_100s_gaps,
            PAPER["fig8_gap100"],
        )
    )
    return "\n".join(lines)


def format_fig9(result: ex.Fig9Result) -> str:
    """Figs. 9(a)-(b): the batch sweep."""
    lines = ["Fig 9 — batch-method sweep"]
    lines.append("  batch   energy  radio   bw+     affected")
    for n, e, r, b, a in zip(
        result.batch_sizes,
        result.energy_saving,
        result.radio_time_saving,
        result.bandwidth_increase,
        result.affected_ratio,
    ):
        lines.append(f"  {n:5d}   {e:6.3f}  {r:6.3f}  {b:6.3f}  {a:6.3f}")
    return "\n".join(lines)


def format_fig10a(result: ex.Fig10aResult) -> str:
    """Fig. 10(a): duty-cycle radio-on fraction curves."""
    lines = ["Fig 10(a) — radio-on fraction vs wake-up count"]
    header = "  wakeups " + " ".join(f"T={t:.0f}s".rjust(9) for t in result.sleep_intervals_s)
    lines.append(header)
    for i, k in enumerate(result.wakeup_counts):
        row = f"  {k:7d} " + " ".join(
            f"{result.fractions[t][i]:9.4f}" for t in result.sleep_intervals_s
        )
        lines.append(row)
    return "\n".join(lines)


def format_fig10b(result: ex.Fig10bResult) -> str:
    """Fig. 10(b): wake-up counts per sleep scheme."""
    lines = ["Fig 10(b) — cumulative wake-ups over 30 minutes"]
    lines.append("  minute  exponential  fixed  random")
    for i, m in enumerate(result.minutes):
        lines.append(
            f"  {m:6.0f}  {result.exponential[i]:11d}  {result.fixed[i]:5d}  {result.random[i]:6d}"
        )
    return "\n".join(lines)


def format_fig10c(result: ex.Fig10cResult) -> str:
    """Fig. 10(c): δ sweep."""
    lines = ["Fig 10(c) — prediction threshold sweep"]
    lines.append("  delta   accuracy  energy-saving(ratio-to-oracle)")
    for d, a, s in zip(result.thresholds, result.accuracy, result.energy_saving):
        lines.append(f"  {d:5.2f}   {a:8.3f}  {s:8.3f}")
    lines.append(_row("crossover delta", result.crossover, PAPER["fig10c_crossover"]))
    return "\n".join(lines)


def format_user_experience(result: ex.UserExperienceResult) -> str:
    """Section VI-B: wrong-decision rate."""
    lines = ["User experience — wrong decisions"]
    lines.append(f"  interrupts / interactions: {result.interrupts} / {result.user_interactions}")
    lines.append(_row("interrupt ratio", result.interrupt_ratio, PAPER["ux_ratio"]))
    return "\n".join(lines)


def format_stream(result) -> str:
    """Streaming fleet: causal online NetMaster vs the offline harness."""
    lines = [
        f"Streaming fleet — {result.users_streamed} users × {result.n_days} days "
        f"({result.user_days_streamed} user-days, {result.train_days} training)"
    ]
    lines.append(
        f"  events {result.events} in {result.elapsed_s:.2f}s "
        f"({result.events_per_s:,.0f} events/s), "
        f"days executed {result.days_executed}"
    )
    lines.append(
        f"  checkpoints {result.checkpoints}, drift alerts {result.drift_alerts}, "
        f"degraded days {result.degraded_days}"
    )
    lines.append(
        f"  energy (J): naive {result.naive_energy_j:.0f}, "
        f"online {result.online_energy_j:.0f}, offline {result.offline_energy_j:.0f}"
    )
    lines.append(_row("online saving vs naive", result.online_saving))
    lines.append(_row("offline saving vs naive", result.offline_saving))
    lines.append(_row("causality gap (offline-online)", result.online_offline_gap))
    lines.append(_row("online interrupt ratio", result.online_interrupt_ratio))
    lines.append(_row("offline interrupt ratio", result.offline_interrupt_ratio))
    return "\n".join(lines)


def format_shards(result) -> str:
    """Sharded durable fleet: crash, recover, equal the unbroken run."""
    lines = [
        f"Sharded durable fleet — {result.n_users} users × {result.n_days} days "
        f"over {result.n_shards} shards ({result.train_days} training)"
    ]
    lines.append(
        f"  events {result.events} in {result.elapsed_s:.2f}s "
        f"({result.events_per_s:,.0f} events/s), "
        f"users streamed {result.users_streamed}"
    )
    lines.append(
        f"  crash drill: {result.first_pass_users} users durable before the crash, "
        f"{result.replayed_records} WAL records replayed in {result.recovery_s * 1e3:.1f}ms"
    )
    lines.append(
        f"  recovery: {result.recovered_users} served from the log, "
        f"{result.resumed_users} resumed mid-stream, "
        f"{result.wal_appends} WAL appends, {result.compactions} compactions"
    )
    lines.append(
        f"  recovered run == uninterrupted run: {result.matches_baseline}"
    )
    return "\n".join(lines)


def format_monitor(result) -> str:
    """Fleet monitoring: seeded anomalies vs the detect/act loop."""
    lines = [
        f"Fleet monitoring — {result.n_users} users × {result.n_days} days "
        f"({result.anomalous_users} anomalous from day {result.onset_day}, "
        f"{result.train_days} training)"
    ]
    kinds = ", ".join(
        f"{kind} {count}" for kind, count in sorted(result.alerts_by_kind.items())
    )
    lines.append(
        f"  alerts {result.alerts_total} ({kinds or 'none'}), "
        f"sink errors {result.sink_errors}"
    )
    lines.append(
        f"  quiet-monitor contract: {result.false_alert_users} clean users "
        f"alerted, byte-equal {result.clean_byte_equal}"
    )
    lines.append(
        f"  feedback: {result.quarantine_effective_users} of "
        f"{result.anomalous_users} anomalous users quarantined "
        f"({result.degraded_days_monitored} degraded days vs "
        f"{result.degraded_days_clean} unmonitored)"
    )
    lines.append(_row("detection precision", result.precision))
    lines.append(_row("detection recall", result.recall))
    lines.append(_row("matching-detector recall", result.kind_recall))
    lines.append(
        f"  energy model MAE over {result.model_days} clean user-days (J):"
    )
    lines.append(_row("least-squares (usage features)", result.model_mae_j, fmt=".1f"))
    lines.append(_row("trailing mean", result.trailing_mae_j, fmt=".1f"))
    lines.append(_row("day-type mean", result.daytype_mae_j, fmt=".1f"))
    if result.alerts_path:
        lines.append(f"  alerts teed to {result.alerts_path}")
    return "\n".join(lines)


def format_approximation(result: ex.ApproximationResult) -> str:
    """Lemma IV.1: empirical approximation ratios."""
    lines = [f"Lemma IV.1 — approximation ratio over {result.trials} instances (eps={result.eps})"]
    lines.append(_row("worst ratio", result.worst_ratio))
    lines.append(_row("mean ratio", result.mean_ratio))
    lines.append(_row("(1-eps)/2 bound", result.bound))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# machine-readable export
# ----------------------------------------------------------------------

#: Per-experiment headline extractors: (label, extractor, PAPER key).
_HEADLINES = {
    "fig1a": (
        ("average screen-off fraction", lambda r: r.average_off_fraction, "fig1a_avg_off"),
    ),
    "fig1b": (
        ("p90 screen-off rate (kBps)", lambda r: r.p90_off_kbps, "fig1b_p90_off"),
        ("p90 screen-on rate (kBps)", lambda r: r.p90_on_kbps, "fig1b_p90_on"),
    ),
    "fig2": (
        ("average screen-on utilization", lambda r: r.average_utilization, "fig2_util"),
    ),
    "fig3": (("mean cross-user Pearson", lambda r: r.average, "fig3_avg"),),
    "fig4": (("mean day-to-day Pearson", lambda r: r.average, "fig4_avg"),),
    "fig5": (
        ("active apps", lambda r: r.n_active, "fig5_active"),
        ("top app share", lambda r: r.top_share, "fig5_top_share"),
    ),
    "fig7": (
        ("NetMaster mean saving", lambda r: r.netmaster_mean_saving, "fig7_netmaster"),
        ("delay&batch mean saving", lambda r: r.delay_batch_mean_saving, "fig7_delay_batch"),
        ("tests within 5% of oracle", lambda r: r.within_5pct_of_oracle, "fig7_within5"),
        ("worst oracle gap", lambda r: r.worst_oracle_gap, "fig7_worst_gap"),
        ("radio-on time saving", lambda r: r.mean_radio_time_saving, "fig7_radio"),
        ("download avg-rate ratio", lambda r: r.mean_down_ratio, "fig7_down"),
        ("upload avg-rate ratio", lambda r: r.mean_up_ratio, "fig7_up"),
    ),
    "fig8": (
        ("energy saving @ max delay", lambda r: r.energy_saving[-1], "fig8_energy_600"),
        ("radio saving @ max delay", lambda r: r.radio_time_saving[-1], "fig8_radio_600"),
        ("bandwidth increase @ max delay", lambda r: r.bandwidth_increase[-1], "fig8_bw_600"),
        ("affected ratio @ max delay", lambda r: r.affected_ratio[-1], "fig8_affected_600"),
        ("interactions within 100s gaps", lambda r: r.interactions_within_100s_gaps, "fig8_gap100"),
    ),
    "fig9": (
        ("max radio saving", lambda r: max(r.radio_time_saving), "fig9_radio"),
        ("max bandwidth increase", lambda r: max(r.bandwidth_increase), "fig9_bw"),
    ),
    "fig10c": (("crossover delta", lambda r: r.crossover, "fig10c_crossover"),),
    "ux": (("interrupt ratio", lambda r: r.interrupt_ratio, "ux_ratio"),),
    "approx": (
        ("worst approximation ratio", lambda r: r.worst_ratio, None),
        ("(1-eps)/2 bound", lambda r: r.bound, None),
    ),
    "stream": (
        ("online saving vs naive", lambda r: r.online_saving, None),
        ("offline saving vs naive", lambda r: r.offline_saving, None),
        ("causality gap", lambda r: r.online_offline_gap, None),
        ("stream events per second", lambda r: r.events_per_s, None),
        ("online interrupt ratio", lambda r: r.online_interrupt_ratio, None),
    ),
    "monitor": (
        ("detection recall", lambda r: r.recall, None),
        ("matching-detector recall", lambda r: r.kind_recall, None),
        ("detection precision", lambda r: r.precision, None),
        ("quarantined anomalous users", lambda r: r.quarantine_effective_users, None),
        ("energy model MAE (J)", lambda r: r.model_mae_j, None),
    ),
}


def _sanitize(value):
    """JSON-safe deep conversion (numpy → python, keys → str)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _sanitize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.integer):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # strict-JSON consumers cannot parse NaN/Infinity
    return value


def results_to_json(results: dict[str, object]) -> dict:
    """Machine-readable export of experiment results vs the paper.

    ``results`` maps experiment names (as used by the CLI registry, e.g.
    ``"fig7"``) to their result dataclasses.  Each entry carries a
    ``headlines`` list pairing the computed statistic with the paper's
    reference value (``paper`` is ``None`` where the paper quotes no
    number) and a fully sanitized ``values`` dump of the result.
    """
    experiments = {}
    for name, result in results.items():
        headlines = [
            {
                "label": label,
                "measured": _sanitize(extract(result)),
                "paper": PAPER.get(key) if key else None,
            }
            for label, extract, key in _HEADLINES.get(name, ())
        ]
        experiments[name] = {"headlines": headlines, "values": _sanitize(result)}
    return {"schema": 1, "experiments": experiments}


def format_robustness(result: rb.RobustnessResult) -> str:
    """Robustness sweep: energy saving / delay / retries vs fault rate."""
    lines = [
        "Robustness — energy saving vs fault rate "
        f"(max delay bound {result.max_delay_s:.0f}s)"
    ]
    for point in result.points:
        parts = ", ".join(
            f"{name}={point.energy_saving[name]:+.3f}" for name in result.policies
        )
        lines.append(f"  rate {point.rate:.2f}: {parts}")
    for name in result.policies:
        retries = sum(p.retries[name] for p in result.points)
        forced = sum(p.forced_deliveries[name] for p in result.points)
        delay_max = max(p.added_delay_max_s[name] for p in result.points)
        lines.append(
            f"  {name:<16s} retries={retries:d} forced={forced:d} "
            f"max added delay={delay_max:.1f}s"
        )
    violations = sum(p.delay_violations for p in result.points)
    lines.append(_row("delay-bound violations", violations, fmt=".0f"))
    return "\n".join(lines)
