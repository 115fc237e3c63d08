"""A real kill-mid-run crash drill for the sharded fleet.

``python -m repro.stream.crash_demo`` spawns a child interpreter that
streams a small fleet durably and SIGKILLs *itself* right after its
N-th WAL append (``--kill-after N``) — no cooperation, no atexit
handlers, no flushes beyond what every append already did.
The parent then recovers the shards in-process, finishes the fleet, and
asserts the summaries equal an uninterrupted run.

This is the script behind the CI ``recovery-smoke`` job and the
EXPERIMENTS.md crash-recovery recipe; the same machinery is unit-tested
in ``tests/stream/test_restart.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.stream.experiment import fleet_specs
from repro.stream.fleet import FleetConfig, FleetService
from repro.stream.shards import ShardConfig, ShardedFleetService, wal

DEFAULT_SEED = 617
DEFAULT_USERS = 6
DEFAULT_DAYS = 9
DEFAULT_TRAIN_DAYS = 7
DEFAULT_SHARDS = 2
DEFAULT_KILL_AT_APPEND = 5


@dataclass(frozen=True)
class CrashDrillReport:
    """What one parent-side crash drill observed."""

    child_exit: int
    killed_by_sigkill: bool
    recovered_shards: int
    replayed_records: int
    damaged_wals: int
    resumed_users: int
    recovered_users: int
    matches_baseline: bool

    @property
    def ok(self) -> bool:
        """The drill's pass condition: a real SIGKILL, then equality."""
        return self.killed_by_sigkill and self.matches_baseline


def _config(train_days: int) -> FleetConfig:
    return FleetConfig(train_days=train_days, checkpoint_every_days=2, batch_size=4)


def _shards(root: Path, n_shards: int) -> ShardConfig:
    return ShardConfig(root=root, n_shards=n_shards, compact_every_records=16)


def _sigkill_after_appends(n: int) -> None:
    """Make this process SIGKILL itself right after its ``n``-th WAL append.

    ``ShardStore`` appends through the ``wal`` module attribute, so
    wrapping ``wal.append_record`` sees every append.
    """
    append = wal.append_record
    appends = 0

    def append_then_count(*args, **kwargs) -> None:
        nonlocal appends
        append(*args, **kwargs)
        appends += 1
        if appends >= n:
            os.kill(os.getpid(), signal.SIGKILL)

    wal.append_record = append_then_count


def run_child(
    root: Path,
    *,
    seed: int,
    n_users: int,
    n_days: int,
    train_days: int,
    n_shards: int,
    kill_after: int,
) -> None:
    """The victim: stream the fleet durably until its ``kill_after``-th
    WAL append kills it."""
    _sigkill_after_appends(kill_after)
    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    service = ShardedFleetService(_config(train_days), shards=_shards(root, n_shards))
    service.recover()
    service.run(specs)


def run_crash_drill(
    root: str | Path,
    *,
    seed: int = DEFAULT_SEED,
    n_users: int = DEFAULT_USERS,
    n_days: int = DEFAULT_DAYS,
    train_days: int = DEFAULT_TRAIN_DAYS,
    n_shards: int = DEFAULT_SHARDS,
    kill_after: int = DEFAULT_KILL_AT_APPEND,
) -> CrashDrillReport:
    """Kill a child fleet mid-run, recover its shards, prove equality."""
    root = Path(root)
    child_args = [
        sys.executable,
        "-m",
        "repro.stream.crash_demo",
        "--child",
        "--root",
        str(root),
        "--seed",
        str(seed),
        "--users",
        str(n_users),
        "--days",
        str(n_days),
        "--train-days",
        str(train_days),
        "--shards",
        str(n_shards),
        "--kill-after",
        str(kill_after),
    ]
    proc = subprocess.run(child_args, capture_output=True, text=True)
    killed = proc.returncode == -signal.SIGKILL

    service = ShardedFleetService(
        _config(train_days), shards=_shards(root, n_shards)
    )
    reports = service.recover()
    specs = fleet_specs(seed=seed, n_users=n_users, n_days=n_days)
    result = service.run(specs)
    baseline = FleetService(_config(train_days)).run(specs)
    return CrashDrillReport(
        child_exit=proc.returncode,
        killed_by_sigkill=killed,
        recovered_shards=sum(1 for r in reports if r.existed),
        replayed_records=sum(r.replayed_records for r in reports),
        damaged_wals=sum(1 for r in reports if r.wal_damaged),
        resumed_users=result.resumed_users,
        recovered_users=result.recovered_users,
        matches_baseline=result.summaries == baseline.summaries,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream.crash_demo",
        description="SIGKILL a durable fleet mid-run, recover, verify.",
    )
    parser.add_argument("--root", required=True, help="shard store directory")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--users", type=int, default=DEFAULT_USERS)
    parser.add_argument("--days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--train-days", type=int, default=DEFAULT_TRAIN_DAYS)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument(
        "--kill-after",
        type=int,
        default=DEFAULT_KILL_AT_APPEND,
        metavar="N",
        help="child SIGKILLs itself after its N-th WAL append",
    )
    parser.add_argument(
        "--child", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.child:
        run_child(
            Path(args.root),
            seed=args.seed,
            n_users=args.users,
            n_days=args.days,
            train_days=args.train_days,
            n_shards=args.shards,
            kill_after=args.kill_after,
        )
        # Reaching here means the kill threshold was never hit.
        print("child finished without being killed", file=sys.stderr)
        return 0

    report = run_crash_drill(
        args.root,
        seed=args.seed,
        n_users=args.users,
        n_days=args.days,
        train_days=args.train_days,
        n_shards=args.shards,
        kill_after=args.kill_after,
    )
    print(f"child exit code     : {report.child_exit} (SIGKILL={report.killed_by_sigkill})")
    print(f"recovered shards    : {report.recovered_shards}")
    print(f"replayed records    : {report.replayed_records}")
    print(f"damaged WALs        : {report.damaged_wals}")
    print(f"resumed users       : {report.resumed_users}")
    print(f"recovered users     : {report.recovered_users}")
    print(f"matches baseline    : {report.matches_baseline}")
    if not report.ok:
        print("CRASH DRILL FAILED", file=sys.stderr)
        return 1
    print("crash drill passed: kill + recovery == uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
