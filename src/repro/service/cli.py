"""``python -m repro serve`` — run the fleet service (or load-drill it).

Two modes share one flag set:

* **serve** (default): bind the HTTP control plane and run until
  SIGTERM/SIGINT.  The ready line ``repro-service listening on
  HOST:PORT`` is printed (and flushed) once the socket is bound, so
  supervisors and tests can parse the actual port when ``--port 0``
  asked the kernel to pick one.  With ``--checkpoint PATH`` the signal
  path writes a final atomic checkpoint before the loop exits, and
  ``--restore PATH`` resumes from one byte-identically.
* **load** (``--load``): start the same server in-process on an
  ephemeral port, replay a generated cohort through
  :mod:`repro.service.loadgen`, print the sustained-throughput /
  tail-latency report, and exit non-zero if any request failed.
  ``--out`` writes the JSON report; ``--metrics-out`` snapshots
  ``GET /metrics`` to a file that ``python -m repro telemetry-report``
  can render.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys

from repro._util import write_json_atomic
from repro.core.netmaster import NetMasterConfig
from repro.service.schemas import SchemaError
from repro.stream.fleet import FleetConfig
from repro.stream.online_netmaster import CheckpointError

#: ``--quick`` load-mode overrides (mirrors the ``stream`` experiment's
#: quick shape: 7 training days keep the knapsack path exercised).
_QUICK_LOAD = {"users": 4, "days": 9, "train_days": 7}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the NetMaster fleet HTTP control plane.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8341,
        help="listen port; 0 lets the kernel pick (default: 8341)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write the final (and on-demand POST /v1/checkpoint) "
        "service checkpoint here",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="allow POST /v1/checkpoint and /v1/restore bodies to name "
        "paths inside DIR (client-supplied paths are rejected with 403 "
        "without this)",
    )
    parser.add_argument(
        "--restore", metavar="PATH", default=None,
        help="load a service checkpoint before accepting traffic",
    )
    parser.add_argument(
        "--train-days", type=int, default=7, metavar="N",
        help="per-user training horizon before causal execution "
        "(default: 7)",
    )
    parser.add_argument(
        "--retention", type=int, default=None, metavar="N",
        help="retain at most N per-day decision records per user "
        "(older days are evicted into the savings aggregate; "
        "default: retain everything)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="round-trip each engine through its checkpoint codec every "
        "N executed days (the fleet's in-line self-check)",
    )
    parser.add_argument(
        "--event-budget", type=int, default=None, metavar="N",
        help="shed ingest batches whole once N events were accepted "
        "fleet-wide (HTTP 429)",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="attach the per-user anomaly monitor (default thresholds); "
        "alerts surface on GET /v1/alerts and in /metrics counters",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=8 << 20, metavar="N",
        help="reject request bodies larger than N bytes with HTTP 413",
    )
    parser.add_argument(
        "--load", action="store_true",
        help="load-drill an in-process server instead of serving",
    )
    parser.add_argument("--users", type=int, default=8, metavar="N",
                        help="[load] cohort size (default: 8)")
    parser.add_argument("--days", type=int, default=9, metavar="N",
                        help="[load] trace horizon per user (default: 9)")
    parser.add_argument("--concurrency", type=int, default=4, metavar="N",
                        help="[load] concurrent client connections")
    parser.add_argument("--batch-events", type=int, default=256, metavar="N",
                        help="[load] records per ingest batch")
    parser.add_argument("--seed", type=int, default=2014,
                        help="[load] cohort generator seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="[load] shrunk drill (4 users, 9 days, 7 training days)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="[load] write the JSON load report to PATH",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="[load] snapshot GET /metrics to PATH "
        "(telemetry-report can read it)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default="info",
    )
    return parser


def _config(args: argparse.Namespace) -> FleetConfig:
    monitor = None
    if args.monitor:
        from repro.monitor import MonitorConfig

        monitor = MonitorConfig()
    return FleetConfig(
        train_days=args.train_days,
        retention_days=args.retention,
        checkpoint_every_days=args.checkpoint_every,
        event_budget=args.event_budget,
        monitor=monitor,
        # Served decisions come from NetMaster without the misprediction
        # circuit breaker.  The breaker is deterministic either way
        # (CircuitBreaker.record reads only a day's interrupt and
        # interaction counts, never the clock), so this is a policy
        # choice, not what keeps decisions byte-equal to the library.
        netmaster=NetMasterConfig(enable_circuit_breaker=False),
    )


async def _run_load(args: argparse.Namespace) -> int:
    from repro.service.gateway import FleetGateway
    from repro.service.http import ServiceApp
    from repro.service.loadgen import LoadOptions, run_load

    if args.quick:
        args.users = _QUICK_LOAD["users"]
        args.days = _QUICK_LOAD["days"]
        args.train_days = _QUICK_LOAD["train_days"]
    app = ServiceApp(
        FleetGateway(_config(args)),
        checkpoint_path=args.checkpoint,
        max_body_bytes=args.max_body_bytes,
    )
    host, port = await app.start(args.host, 0)
    print(f"repro-service listening on {host}:{port}", flush=True)
    report = await run_load(
        LoadOptions(
            host=host,
            port=port,
            n_users=args.users,
            n_days=args.days,
            seed=args.seed,
            concurrency=args.concurrency,
            batch_events=args.batch_events,
        )
    )
    metrics_doc = None
    if args.metrics_out is not None:
        from repro.service.loadgen import _Client

        probe = _Client(host, port)
        try:
            _, metrics_doc = await probe.request("GET", "/metrics")
        finally:
            await probe.close()
    await app.shutdown(reason="load drill complete")
    print(
        f"service_load: {report['events']} events over "
        f"{report['requests']} requests in {report['elapsed_s']:.2f}s "
        f"({report['service_events_per_s']:.0f} events/s, "
        f"{report['errors']} errors)"
    )
    print(
        f"latency: p50 {report['latency_p50_s'] * 1e3:.2f}ms  "
        f"p95 {report['latency_p95_s'] * 1e3:.2f}ms  "
        f"p99 {report['latency_p99_s'] * 1e3:.2f}ms"
    )
    if args.out is not None:
        write_json_atomic(args.out, report, indent=1)
        print(f"load report written to {args.out}")
    if metrics_doc is not None:
        write_json_atomic(args.metrics_out, metrics_doc, indent=1)
        print(f"metrics snapshot written to {args.metrics_out}")
    return 1 if report["errors"] else 0


async def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.http import ServeOptions, serve

    await serve(
        ServeOptions(
            host=args.host,
            port=args.port,
            checkpoint_path=args.checkpoint,
            checkpoint_dir=args.checkpoint_dir,
            restore_path=args.restore,
            max_body_bytes=args.max_body_bytes,
            config=_config(args),
            on_ready=lambda addr: print(
                f"repro-service listening on {addr[0]}:{addr[1]}", flush=True
            ),
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro serve ...``."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(getattr(logging, args.log_level.upper()))
    try:
        if args.load:
            return asyncio.run(_run_load(args))
        return asyncio.run(_run_serve(args))
    except KeyboardInterrupt:  # SIGINT before the handler is installed
        return 130
    # Bind failure, unreadable --restore path (surfaced as SchemaError by
    # FleetGateway.restore), corrupt checkpoint document, ...
    except (OSError, SchemaError, CheckpointError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
