"""ShardedFleetService: byte-equality with the fleet, durability."""

from __future__ import annotations

import os
import stat

import pytest

from repro.core.netmaster import NetMasterConfig
from repro.stream import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    ShardConfig,
    ShardedFleetService,
    shard_of,
)

CONFIG = FleetConfig(
    train_days=10, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)


def _specs(volunteers):
    return [
        FleetUserSpec(user_id=t.user_id, n_days=t.n_days, trace=t) for t in volunteers
    ]


def _shards(tmp_path, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return ShardConfig(root=tmp_path / "shards", **kwargs)


class TestFleetEquality:
    """The property the whole layer is gated on: sharded == fleet."""

    def test_matches_fleet_service_byte_for_byte(self, volunteers, tmp_path):
        base = FleetService(CONFIG).run(_specs(volunteers))
        sharded = ShardedFleetService(CONFIG, shards=_shards(tmp_path)).run(
            _specs(volunteers)
        )
        assert sharded.summaries == base.summaries

    def test_matches_with_checkpoint_cadence(self, volunteers, tmp_path):
        config = FleetConfig(
            train_days=10, checkpoint_every_days=1, netmaster=CONFIG.netmaster
        )
        base = FleetService(config).run(_specs(volunteers))
        sharded = ShardedFleetService(config, shards=_shards(tmp_path)).run(
            _specs(volunteers)
        )
        assert sharded.summaries == base.summaries

    def test_parallel_matches_serial(self, volunteers, tmp_path):
        serial = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "a")).run(
            _specs(volunteers)
        )
        parallel = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "b")).run(
            _specs(volunteers), jobs=2
        )
        assert parallel.summaries == serial.summaries

    def test_parallel_writes_identical_wals(self, volunteers, tmp_path):
        a = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "a"))
        a.run(_specs(volunteers))
        b = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "b"))
        b.run(_specs(volunteers), jobs=2)
        for sa, sb in zip(a.stores, b.stores):
            assert sa.wal_path.read_bytes() == sb.wal_path.read_bytes()


class TestIteratorSource:
    """Lazy spec sources leave identical WAL bytes and results."""

    def test_iterator_equals_list_wal_for_wal(self, volunteers, tmp_path):
        a = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "a"))
        base = a.run(_specs(volunteers))
        b = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "b"))
        lazy = b.run(iter(_specs(volunteers)))
        assert lazy.summaries == base.summaries
        assert lazy.rollup == base.rollup
        for sa, sb in zip(a.stores, b.stores):
            assert sa.wal_path.read_bytes() == sb.wal_path.read_bytes()

    def test_iterator_equals_list_in_parallel(self, volunteers, tmp_path):
        a = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "a"))
        base = a.run(_specs(volunteers), jobs=2)
        b = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "b"))
        lazy = b.run(iter(_specs(volunteers)), jobs=2)
        assert lazy.summaries == base.summaries
        for sa, sb in zip(a.stores, b.stores):
            assert sa.wal_path.read_bytes() == sb.wal_path.read_bytes()

    def test_unretained_spilled_run_matches_wal_bytes(self, volunteers, tmp_path):
        config = FleetConfig(
            train_days=10,
            retain_summaries=False,
            summary_spill=tmp_path / "summaries.jsonl",
            netmaster=CONFIG.netmaster,
        )
        a = ShardedFleetService(CONFIG, shards=_shards(tmp_path / "a"))
        base = a.run(_specs(volunteers))
        b = ShardedFleetService(config, shards=_shards(tmp_path / "b"))
        lean = b.run(iter(_specs(volunteers)))
        assert lean.rollup.spilled == len(volunteers)
        assert lean.summaries == base.summaries  # re-read from the spill
        for sa, sb in zip(a.stores, b.stores):
            assert sa.wal_path.read_bytes() == sb.wal_path.read_bytes()


class TestDurability:
    def test_second_run_is_served_from_the_log(self, volunteers, tmp_path):
        shards = _shards(tmp_path)
        first = ShardedFleetService(CONFIG, shards=shards)
        a = first.run(_specs(volunteers))
        second = ShardedFleetService(CONFIG, shards=shards)
        second.recover()
        b = second.run(_specs(volunteers))
        assert b.summaries == a.summaries
        assert b.recovered_users == len(volunteers)
        # Nothing streams twice: no new WAL appends on the second pass.
        assert all(store.appends == 0 for store in second.stores)

    def test_users_route_to_their_hashed_shard(self, volunteers, tmp_path):
        shards = _shards(tmp_path)
        service = ShardedFleetService(CONFIG, shards=shards)
        service.run(_specs(volunteers))
        for trace in volunteers:
            owner = shard_of(trace.user_id, shards.n_shards)
            for i, store in enumerate(service.stores):
                assert (store.get(trace.user_id) is not None) == (i == owner)

    def test_fsync_leaves_the_same_bytes(self, volunteers, tmp_path, monkeypatch):
        """``fsync=True`` flushes each WAL append to the disk and changes
        nothing else: the shard files are byte-identical to a run without
        it, and both recover the same users."""
        synced = []
        real_fsync = os.fsync

        def fsync_file(fd):
            # File fsyncs only: TestDirectoryFsync in test_shards_store.py
            # checks the directory fsyncs.
            if not stat.S_ISDIR(os.fstat(fd).st_mode):
                synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_file)
        files, syncs, appends, recovered = [], [], [], []
        for fsync in (False, True):
            shards = _shards(tmp_path / str(fsync), fsync=fsync, compact_every_records=8)
            before = len(synced)
            service = ShardedFleetService(CONFIG, shards=shards)
            service.run(_specs(volunteers))
            syncs.append(len(synced) - before)
            appends.append(sum(store.appends for store in service.stores))
            files.append({
                path.relative_to(shards.root): path.read_bytes()
                for path in sorted(shards.root.rglob("*")) if path.is_file()
            })
            fresh = ShardedFleetService(CONFIG, shards=shards)
            fresh.recover()
            recovered.append([fresh.stores[shard_of(t.user_id, shards.n_shards)].get(t.user_id)
                              for t in volunteers])
        # One more fsync per WAL append; compactions fsync either way.
        assert syncs[1] - syncs[0] == appends[1] == appends[0] > 0
        assert files[0] == files[1]
        assert recovered[0] == recovered[1]
        assert all(state.done for state in recovered[1])

    def test_recover_on_fresh_root_is_safe(self, tmp_path):
        service = ShardedFleetService(CONFIG, shards=_shards(tmp_path))
        reports = service.recover()
        assert all(not r.existed for r in reports)


class TestShardConfig:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="n_shards"):
            ShardConfig(root=tmp_path, n_shards=0)
