"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig7                 # one experiment
    python -m repro fig1a fig3 fig10b    # several
    python -m repro all                  # everything
    python -m repro fig7 --seed 7        # alternative volunteer seed
    python -m repro fig7 --quick         # shrunk, fast variant
    python -m repro fig7 --telemetry-out out/telemetry
    python -m repro telemetry-report out/telemetry
    python -m repro serve --port 8341    # HTTP control plane (repro.service)
    python -m repro serve --load --quick # in-process load drill
    python -m repro fleet-scale --quick  # constant-RSS scale benchmark

Each experiment prints the same rows/series as the paper's figure, with
the paper's headline number alongside (see EXPERIMENTS.md).

``--telemetry-out DIR`` turns span tracing on and, after the run, writes
``metrics.json`` / ``spans.jsonl`` / ``trace.json`` / ``results.json``
under DIR (see :mod:`repro.telemetry.report`).  ``telemetry-report DIR``
reads that directory back and renders the summary tables.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import sys
from typing import Callable

from repro.evaluation import experiments as ex
from repro.evaluation import reporting as rpt
from repro.evaluation.robustness import robustness as ex_robustness
from repro.monitor.experiment import monitor_experiment as ex_monitor
from repro.stream.experiment import stream_experiment as ex_stream
from repro.stream.shards.experiment import shards_experiment as ex_shards

#: experiment name -> (driver kwargs-aware runner, formatter)
_REGISTRY: dict[str, tuple[Callable, Callable]] = {
    "fig1a": (ex.fig1a, rpt.format_fig1a),
    "fig1b": (ex.fig1b, rpt.format_fig1b),
    "fig2": (ex.fig2, rpt.format_fig2),
    "fig3": (ex.fig3, rpt.format_fig3),
    "fig4": (ex.fig4, rpt.format_fig4),
    "fig5": (ex.fig5, rpt.format_fig5),
    "fig7": (ex.fig7, rpt.format_fig7),
    "fig8": (ex.fig8, rpt.format_fig8),
    "fig9": (ex.fig9, rpt.format_fig9),
    "fig10a": (ex.fig10a, rpt.format_fig10a),
    "fig10b": (ex.fig10b, rpt.format_fig10b),
    "fig10c": (ex.fig10c, rpt.format_fig10c),
    "ux": (ex.user_experience, rpt.format_user_experience),
    "approx": (ex.approximation_ratio, rpt.format_approximation),
    "robustness": (ex_robustness, rpt.format_robustness),
    "stream": (ex_stream, rpt.format_stream),
    "shards": (ex_shards, rpt.format_shards),
    "monitor": (ex_monitor, rpt.format_monitor),
}


def _accepts(name: str, keyword: str) -> bool:
    """Whether experiment ``name``'s driver takes ``keyword``."""
    driver, _ = _REGISTRY[name]
    return keyword in inspect.signature(driver).parameters


#: ``--quick`` keyword overrides: shrunk but still-representative runs.
#: Every entry keeps the experiment's structure (same policies, same
#: pipeline) while cutting the simulated horizon and sweep density, so a
#: quick run exercises every code path the full run does.
_QUICK: dict[str, dict[str, object]] = {
    "fig1a": {"n_days": 7},
    "fig1b": {"n_days": 7},
    "fig2": {"n_days": 7},
    "fig3": {"n_days": 7},
    "fig4": {"n_days": 7, "window_days": 5},
    "fig5": {"n_days": 3},
    # NetMaster-based runs keep 7 history days: sufficiency needs both
    # weekday and weekend coverage, so anything shorter degrades every
    # day to duty-cycle-only and skips the knapsack path entirely.
    "fig7": {"n_days": 9, "n_history_days": 7},
    "fig8": {
        "n_days": 7,
        "n_history_days": 5,
        "delays_s": (0.0, 60.0, 300.0, 1200.0, 3600.0),
    },
    "fig9": {"n_days": 7, "n_history_days": 5, "batch_sizes": (0, 1, 3, 6)},
    "fig10c": {
        "n_days": 9,
        "n_history_days": 7,
        "thresholds": (0.0, 0.1, 0.2, 0.4),
    },
    "ux": {"n_days": 9, "n_history_days": 7},
    "approx": {"trials": 20},
    "robustness": {"n_days": 9, "n_history_days": 7, "rates": (0.0, 0.2)},
    # 7 training days for the same sufficiency reason; checkpoint every
    # executed day so the quick run still proves the restore path.
    "stream": {
        "n_users": 6,
        "n_days": 9,
        "train_days": 7,
        "checkpoint_every_days": 1,
    },
    # Small fleet over 2 shards with an aggressive compaction cadence,
    # so the quick run still crosses a snapshot generation.
    "shards": {
        "n_users": 4,
        "n_days": 9,
        "train_days": 7,
        "n_shards": 2,
        "compact_every_records": 4,
        "checkpoint_every_days": 1,
    },
    # 7 training days (sufficiency), onset right when the z-score
    # detectors arm — the quick run still proves every contract the
    # full run asserts (quiet no-op, matching detector, quarantine).
    "monitor": {"n_users": 8, "n_days": 14, "train_days": 7},
}

#: Valid ``--log-level`` names (stdlib logging levels).
_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the NetMaster paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(_REGISTRY))}, 'all', 'list', "
        "'telemetry-report DIR', 'serve' (see 'serve --help'), or "
        "'fleet-scale' (see 'fleet-scale --help')",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's default RNG seed",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan parallel-capable experiments over N worker processes "
        f"(applies to: {', '.join(n for n in sorted(_REGISTRY) if _accepts(n, 'jobs'))})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run a shrunk variant (shorter horizon, sparser sweeps); "
        "results are indicative, not the paper's numbers",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        default=None,
        help="enable span tracing and write metrics.json / spans.jsonl / "
        "trace.json / results.json under DIR after the run",
    )
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="warning",
        help="stdlib logging threshold (default: warning)",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the in-process trace cache (always regenerate)",
    )
    return parser


def _telemetry_report(argv: list[str], out) -> int:
    """Handle ``python -m repro telemetry-report DIR``."""
    from repro.telemetry.report import format_report

    if len(argv) != 1:
        print("usage: python -m repro telemetry-report DIR|METRICS_FILE", file=sys.stderr)
        return 2
    try:
        report = format_report(argv[0])
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report, file=out)
    return 0


def run(
    names: list[str],
    seed: int | None = None,
    *,
    out=None,
    jobs: int = 1,
    quick: bool = False,
    telemetry_out: str | None = None,
) -> int:
    """Run the named experiments; returns a process exit code."""
    if out is None:
        out = sys.stdout
    special = [n for n in ("list", "all") if n in names]
    if special and len(names) > 1:
        print(
            f"'{special[0]}' cannot be combined with other experiment names",
            file=sys.stderr,
        )
        return 2
    if "list" in names:
        print("available experiments:", file=out)
        for name in sorted(_REGISTRY):
            driver, _ = _REGISTRY[name]
            doc = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:8s} {doc}", file=out)
        return 0
    if "all" in names:
        names = sorted(_REGISTRY)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(_REGISTRY))})",
            file=sys.stderr,
        )
        return 2
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2

    from repro import telemetry

    tracing_was_on = telemetry.tracing_enabled()
    if telemetry_out is not None:
        telemetry.configure(tracing_enabled=True)
    try:
        reg = telemetry.metrics()
        per_experiment: dict[str, dict] = {}
        results: dict[str, object] = {}
        for i, name in enumerate(names):
            driver, formatter = _REGISTRY[name]
            kwargs: dict[str, object] = (
                dict(_QUICK.get(name, {})) if quick else {}
            )
            if seed is not None and _accepts(name, "seed"):
                kwargs["seed"] = seed
            if jobs > 1 and _accepts(name, "jobs"):
                kwargs["jobs"] = jobs
            before = reg.snapshot()
            result = driver(**kwargs)
            per_experiment[name] = telemetry.diff_snapshots(
                before, reg.snapshot()
            )
            results[name] = result
            if i:
                print(file=out)
            print(formatter(result), file=out)

        if telemetry_out is not None:
            from repro.evaluation.reporting import results_to_json
            from repro.telemetry.report import write_telemetry

            written = write_telemetry(
                telemetry_out,
                reg,
                telemetry.tracer(),
                per_experiment=per_experiment,
                results=results_to_json(results),
            )
            print(
                f"telemetry written: {', '.join(str(p) for p in written)}",
                file=sys.stderr,
            )
    finally:
        if telemetry_out is not None and not tracing_was_on:
            telemetry.configure(tracing_enabled=False)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    raw = sys.argv[1:] if argv is None else argv
    if raw and raw[0] == "telemetry-report":
        # The report command takes a directory, not experiment names, so
        # it bypasses the experiment parser entirely.
        return _telemetry_report(raw[1:], sys.stdout)
    if raw and raw[0] == "serve":
        # The service has its own flag set (host/port/load knobs) and an
        # asyncio main loop, so it bypasses the experiment parser too.
        from repro.service.cli import main as serve_main

        return serve_main(raw[1:])
    if raw and raw[0] == "fleet-scale":
        # The scale benchmark must own the whole process (ru_maxrss is
        # lifetime-monotonic), so it bypasses the experiment parser too.
        from repro.runtime.bench import fleet_scale_main

        return fleet_scale_main(raw[1:])
    args = build_parser().parse_args(raw)
    level = getattr(logging, args.log_level.upper())
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig is a no-op once handlers exist, so set the level directly.
    logging.getLogger().setLevel(level)
    if args.no_trace_cache:
        from repro.runtime.cache import configure_cache

        configure_cache(enabled=False)
    run_kwargs = dict(
        jobs=args.jobs,
        quick=args.quick,
        telemetry_out=args.telemetry_out,
    )
    if args.out is not None:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
        with fh:
            return run(args.experiments, args.seed, out=fh, **run_kwargs)
    return run(args.experiments, args.seed, **run_kwargs)


if __name__ == "__main__":
    raise SystemExit(main())
