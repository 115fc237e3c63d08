"""Durable bytes pinned across commits: WAL, snapshots, manifests, checkpoints.

The WAL byte-equality tests elsewhere compare two runs of the same code,
so a change that alters the bytes on both sides passes them.  This test
pins the sha256 of

* every file a small fixed durable run leaves in its shard root (two
  shards, a monitor hub, a checkpoint cadence, and a compaction
  threshold low enough that snapshots and manifest switches happen);
* every engine checkpoint payload (``OnlineNetMaster.to_json``) that
  run produces;
* one ``FleetGateway.checkpoint`` document

to the digests in ``tests/golden/durable_bytes.json``.  Regenerate that
file only for an intentional format change::

    PYTHONPATH=src python -m tests.stream.test_durable_bytes --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.monitor import MonitorConfig, MonitorHub, RingAlertSink
from repro.service.gateway import FleetGateway
from repro.stream import (
    FleetConfig,
    FleetUserSpec,
    OnlineNetMaster,
    ShardConfig,
    ShardedFleetService,
)
from repro.stream.ingest import stream_trace
from repro.traces import generate_cohort

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "durable_bytes.json"

N_DAYS = 10
#: Three executed days per user (two weekends of history), one round trip.
CONFIG = FleetConfig(train_days=7, checkpoint_every_days=2)
#: About four users a shard, three records each: two or three
#: compactions per shard, and a non-empty WAL tail after the last one.
COMPACT_EVERY = 4
N_SHARDS = 2
#: sha256 of an empty file.
EMPTY = hashlib.sha256(b"").hexdigest()


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _specs() -> list[FleetUserSpec]:
    return [
        FleetUserSpec(
            user_id=t.user_id,
            n_days=t.n_days,
            start_weekday=t.start_weekday,
            trace=t,
        )
        for t in generate_cohort(N_DAYS, seed=2014)
    ]


def durable_run(root: Path, *, jobs: int = 1) -> dict:
    """Run the fixed durable fleet under ``root``; returns its digests.

    ``payloads`` lists the run's engine checkpoints in the order they
    were taken (empty when ``jobs > 1``: the workers take them).
    """
    payloads: list[str] = []
    to_json = OnlineNetMaster.to_json

    def recording(engine: OnlineNetMaster) -> str:
        payload = to_json(engine)
        payloads.append(payload)
        return payload

    service = ShardedFleetService(
        CONFIG,
        shards=ShardConfig(
            root=root, n_shards=N_SHARDS, compact_every_records=COMPACT_EVERY
        ),
    )
    OnlineNetMaster.to_json = recording
    try:
        service.run(
            _specs(), jobs=jobs, monitor=MonitorHub([RingAlertSink(capacity=256)])
        )
    finally:
        OnlineNetMaster.to_json = to_json
    files = {
        path.relative_to(root).as_posix(): _sha(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    return {"files": files, "payloads": [_sha(p) for p in payloads]}


def gateway_checkpoint(path: Path) -> str:
    """sha256 of a monitored gateway's checkpoint, taken mid-stream.

    Three users: one finished, two stopped nine tenths into their
    records (open-day buffers and pending habit rows in the document).
    """
    config = FleetConfig(
        train_days=7,
        checkpoint_every_days=2,
        retention_days=3,
        monitor=MonitorConfig(),
    )
    gateway = FleetGateway(config)
    traces = generate_cohort(N_DAYS, seed=2014)[:3]
    for trace in traces:
        records = list(stream_trace(trace))
        gateway.ingest(
            trace.user_id,
            records[: 9 * len(records) // 10],
            start_weekday=trace.start_weekday,
        )
    gateway.finish(traces[0].user_id, N_DAYS)
    return _sha(gateway.checkpoint(path).read_bytes())


def golden_digests(scratch: Path) -> dict:
    return {
        "durable": durable_run(scratch / "shards"),
        "gateway_checkpoint": gateway_checkpoint(scratch / "gateway.json"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestDurableBytes:
    def test_shard_files_and_checkpoints_match_golden(self, golden, tmp_path):
        got = durable_run(tmp_path / "shards")
        assert got["files"] == golden["durable"]["files"]
        assert got["payloads"] == golden["durable"]["payloads"]

    def test_run_compacts_and_leaves_a_wal_tail(self, golden):
        names = set(golden["durable"]["files"])
        for shard in range(N_SHARDS):
            prefix = f"shard-{shard:03d}/"
            shard_files = {n[len(prefix):] for n in names if n.startswith(prefix)}
            assert "MANIFEST.json" in shard_files
            assert any(n.startswith("snapshot-") for n in shard_files)
            assert any(n.startswith("wal-") for n in shard_files)
        assert EMPTY not in golden["durable"]["files"].values()
        assert len(golden["durable"]["payloads"]) > 0

    def test_parallel_run_writes_the_golden_files(self, golden, tmp_path):
        got = durable_run(tmp_path / "shards", jobs=2)
        assert got["files"] == golden["durable"]["files"]

    def test_gateway_checkpoint_matches_golden(self, golden, tmp_path):
        got = gateway_checkpoint(tmp_path / "gateway.json")
        assert got == golden["gateway_checkpoint"]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.stream.test_durable_bytes --write")
    with tempfile.TemporaryDirectory() as scratch:
        doc = golden_digests(Path(scratch))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
