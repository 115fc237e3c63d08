"""Mid-stream restart determinism: both services, including a real SIGKILL."""

from __future__ import annotations

import pytest

from repro.core.netmaster import NetMasterConfig
from repro.stream import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    ShardConfig,
    ShardedFleetService,
)
from repro.stream.crash_demo import run_crash_drill
from repro.stream.shards import append_record, read_wal

CONFIG = FleetConfig(
    train_days=10, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)


def _specs(volunteers):
    return [
        FleetUserSpec(user_id=t.user_id, n_days=t.n_days, trace=t) for t in volunteers
    ]


class TestShardedRestart:
    def test_restart_from_any_wal_prefix_matches_unbroken_run(
        self, volunteers, tmp_path
    ):
        """Cut the fleet's WALs after every prefix length; each restart
        must finish byte-identical to the run that never stopped."""
        base = FleetService(CONFIG).run(_specs(volunteers))
        full = ShardedFleetService(
            CONFIG, shards=ShardConfig(root=tmp_path / "full", n_shards=1)
        )
        full.run(_specs(volunteers))
        records = read_wal(full.stores[0].wal_path).records
        assert len(records) >= len(volunteers)

        for cut in range(len(records)):
            root = tmp_path / f"cut-{cut}"
            shards = ShardConfig(root=root, n_shards=1)
            wal = shards.shard_path(0) / "wal-00000000.jsonl"
            for record in records[:cut]:
                append_record(wal, record)
            resumed = ShardedFleetService(CONFIG, shards=shards)
            resumed.recover()
            result = resumed.run(_specs(volunteers))
            assert result.summaries == base.summaries, f"prefix of {cut} records"

    def test_restart_counts_resumed_and_recovered_users(self, volunteers, tmp_path):
        full = ShardedFleetService(
            CONFIG, shards=ShardConfig(root=tmp_path / "full", n_shards=1)
        )
        full.run(_specs(volunteers))
        records = read_wal(full.stores[0].wal_path).records
        # Cut right after the first user's done record plus one day of
        # the second user: one recovered, one resumed.
        done_idx = next(i for i, r in enumerate(records) if r["type"] == "done")
        cut = done_idx + 2
        assert records[cut - 1]["type"] == "day"
        shards = ShardConfig(root=tmp_path / "cut", n_shards=1)
        wal = shards.shard_path(0) / "wal-00000000.jsonl"
        for record in records[:cut]:
            append_record(wal, record)
        resumed = ShardedFleetService(CONFIG, shards=shards)
        resumed.recover()
        result = resumed.run(_specs(volunteers))
        assert result.recovered_users == 1
        assert result.resumed_users == 1


class TestFleetRestart:
    def test_half_fleet_plus_rest_matches_full_run(self, volunteers):
        """Users are independent: a fleet split across two runs yields
        the full run's summaries, in order."""
        specs = _specs(volunteers)
        full = FleetService(CONFIG).run(specs)
        first = FleetService(CONFIG).run(specs[:1])
        rest = FleetService(CONFIG).run(specs[1:])
        assert first.summaries + rest.summaries == full.summaries


class TestSigkillDrill:
    @pytest.mark.slow
    def test_kill_mid_run_recover_equal(self, tmp_path):
        report = run_crash_drill(
            tmp_path / "drill",
            seed=617,
            n_users=4,
            n_days=9,
            train_days=7,
            n_shards=2,
            kill_after=3,
        )
        assert report.killed_by_sigkill, report
        assert report.matches_baseline, report
        assert report.replayed_records == 3
