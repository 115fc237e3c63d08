"""ShardStore: routing, durable appends, compaction, recovery."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.shards import ShardStore, shard_of
from repro.stream.shards.store import MANIFEST_NAME
from repro.stream.shards.wal import read_wal

from tests.retyped_fields import NO_SHRINK, retyped


def _day(user, i=0):
    return {"type": "day", "user_id": user, "engine": {"events": i}, "acc": {"i": i}}


def _done(user, events=10):
    return {
        "type": "done",
        "user_id": user,
        "engine": {"events": events},
        "acc": {},
        "summary": {"user_id": user, "events": events},
    }


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 7):
            for uid in ("a", "b", "stream-0001", "日本語"):
                s = shard_of(uid, n)
                assert s == shard_of(uid, n)
                assert 0 <= s < n

    def test_spreads_users(self):
        shards = {shard_of(f"user-{i:04d}", 8) for i in range(200)}
        assert len(shards) == 8

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_of("u", 0)


class TestAppendAndState:
    def test_day_then_done_tracks_user(self, tmp_path):
        store = ShardStore(tmp_path / "s0")
        store.append(_day("u1", 1))
        assert store.get("u1").resumable
        store.append(_done("u1"))
        state = store.get("u1")
        assert state.done and not state.resumable

    def test_unknown_payload_type_rejected_on_append(self, tmp_path):
        store = ShardStore(tmp_path / "s0")
        with pytest.raises(ValueError, match="unknown WAL payload"):
            store.append({"type": "nope", "user_id": "u"})

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_every_records"):
            ShardStore(tmp_path, compact_every_records=0)


class TestDirectoryFsync:
    """With ``fsync=True`` a new or renamed file is durable only once its
    directory is fsynced: the store fsyncs the root after creating the
    shard directory, and the shard directory after each ``os.replace``
    and each new WAL file."""

    def _calls(self, monkeypatch, tmp_path, *, fsync):
        calls = []
        names = {}
        real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

        def record_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            names[fd] = Path(path).name
            return fd

        def record_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                calls.append(("fsync-dir", names[fd]))
            else:
                calls.append(("fsync-file",))
            return real_fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", Path(dst).name))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "open", record_open)
        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        store = ShardStore(tmp_path / "root" / "s0", compact_every_records=2, fsync=fsync)
        (tmp_path / "root").mkdir()
        store.append(_day("u1", 0))
        store.append(_day("u1", 1))
        return calls

    def test_order_of_calls(self, monkeypatch, tmp_path):
        assert self._calls(monkeypatch, tmp_path, fsync=True) == [
            # First use: the new shard directory, then the manifest.
            ("fsync-dir", "root"),
            ("fsync-file",),
            ("replace", MANIFEST_NAME),
            ("fsync-dir", "s0"),
            # The first append creates the WAL file.
            ("fsync-file",),
            ("fsync-dir", "s0"),
            ("fsync-file",),
            # Compaction: snapshot and new WAL, then the manifest switch.
            ("fsync-file",),
            ("replace", "snapshot-00000001.json"),
            ("fsync-dir", "s0"),
            ("fsync-file",),
            ("replace", MANIFEST_NAME),
            ("fsync-dir", "s0"),
        ]

    def test_no_directory_fsync_without_fsync(self, monkeypatch, tmp_path):
        calls = self._calls(monkeypatch, tmp_path, fsync=False)
        assert ("fsync-dir", "s0") not in calls and ("fsync-dir", "root") not in calls
        assert calls.count(("replace", MANIFEST_NAME)) == 2


class TestCompaction:
    def test_threshold_triggers_new_generation(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=3)
        for i in range(3):
            store.append(_day("u1", i))
        assert store.wal_path.name == "wal-00000001.jsonl"
        assert store.wal_records == 0
        manifest = json.loads((tmp_path / "s0" / MANIFEST_NAME).read_text())
        assert manifest["generation"] == 1
        assert manifest["snapshot"] == "snapshot-00000001.json"
        assert manifest["snapshot_sha256"]

    def test_old_generation_files_removed(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        for i in range(4):
            store.append(_day("u1", i))
        names = sorted(p.name for p in (tmp_path / "s0").iterdir())
        assert names == [
            MANIFEST_NAME,
            "snapshot-00000002.json",
            "wal-00000002.jsonl",
        ]

    def test_state_survives_compaction(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        store.append(_day("u1", 0))
        store.append(_done("u2", events=7))
        assert store.wal_path.name == "wal-00000001.jsonl"
        fresh = ShardStore(tmp_path / "s0")
        fresh.recover()
        assert fresh.get("u1").resumable
        assert fresh.get("u2").done


class TestRecovery:
    def test_empty_directory_recovers_to_nothing(self, tmp_path):
        store = ShardStore(tmp_path / "s0")
        report = store.recover()
        assert not report.existed
        assert report.users == 0

    def test_replays_snapshot_plus_wal_tail(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        store.append(_day("u1", 0))
        store.append(_day("u1", 1))  # compaction fires here
        store.append(_day("u1", 2))  # lands in the gen-1 WAL
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert report.existed
        assert report.replayed_records == 1
        assert fresh.get("u1").engine_state == {"events": 2}
        assert fresh.wal_path.name == "wal-00000001.jsonl"

    def test_recover_repairs_torn_wal(self, tmp_path):
        store = ShardStore(tmp_path / "s0")
        store.append(_day("u1", 0))
        with open(store.wal_path, "ab") as fh:
            fh.write(b'feedface {"half')
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert report.wal_damaged
        assert report.replayed_records == 1
        assert any("torn" in issue for issue in report.issues)
        # The repaired WAL accepts appends and reads clean again.
        fresh.append(_day("u1", 1))
        again = ShardStore(tmp_path / "s0")
        assert not again.recover().wal_damaged

    def test_missing_manifest_falls_back_to_scan(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        for i in range(3):
            store.append(_day("u1", i))
        (tmp_path / "s0" / MANIFEST_NAME).unlink()
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert fresh.wal_path.name == "wal-00000001.jsonl"
        assert fresh.get("u1").engine_state == {"events": 2}
        assert any("manifest missing" in issue for issue in report.issues)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("generation", 2**1024),  # no file name holds it
            ("generation", 10**8),  # nine digits: the scan cannot parse it
            ("generation", 0),  # another generation than its snapshot's
            ("generation", 2),
            ("snapshot", "snapshot-00000002.json"),
            ("snapshot", None),
        ],
        ids=["2**1024", "10**8", "0", "2", "other-snapshot", "no-snapshot"],
    )
    def test_damaged_manifest_fields_fall_back_to_scan(self, tmp_path, field, value):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        for i in range(3):
            store.append(_day("u1", i))
        manifest_path = tmp_path / "s0" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert fresh.wal_path.name == "wal-00000001.jsonl"
        assert fresh.get("u1").engine_state == {"events": 2}
        assert any("manifest fields damaged" in issue for issue in report.issues)

    def test_corrupt_snapshot_salvages_wal_tail(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        store.append(_done("u1"))
        store.append(_day("u2", 0))  # compaction fires
        store.append(_day("u2", 1))  # gen-1 WAL
        snapshot = tmp_path / "s0" / "snapshot-00000001.json"
        snapshot.write_bytes(snapshot.read_bytes()[:-7] + b"garbage")
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert any("content hash" in issue for issue in report.issues)
        # u1 lived only in the snapshot: lost.  u2's tail survives.
        assert fresh.get("u1") is None
        assert fresh.get("u2").engine_state == {"events": 1}

    def test_missing_snapshot_salvages_wal_tail(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=2)
        store.append(_done("u1"))
        store.append(_day("u2", 0))  # compaction fires
        store.append(_day("u2", 1))  # gen-1 WAL
        manifest = json.loads((tmp_path / "s0" / MANIFEST_NAME).read_text())
        assert manifest["snapshot"] == "snapshot-00000001.json"
        (tmp_path / "s0" / manifest["snapshot"]).unlink()
        fresh = ShardStore(tmp_path / "s0")
        report = fresh.recover()
        assert any(
            "snapshot snapshot-00000001.json is missing" in issue
            for issue in report.issues
        )
        assert fresh.get("u1") is None
        assert fresh.get("u2").engine_state == {"events": 1}

    def test_recovery_is_idempotent(self, tmp_path):
        store = ShardStore(tmp_path / "s0")
        store.append(_day("u1", 0))
        store.append(_done("u2"))
        a = ShardStore(tmp_path / "s0")
        a.recover()
        b = ShardStore(tmp_path / "s0")
        b.recover()
        for user_id in ("u1", "u2"):
            assert a.get(user_id) == b.get(user_id) is not None


class TestDamageAtEveryOffset:
    """One damage at a time, at every byte of the live WAL, the manifest
    or the snapshot: recovery never raises, keeps a prefix of the
    appended records, and appends resume right after that prefix."""

    NEW = _day("u3", 9)

    @pytest.fixture()
    def shard(self, tmp_path):
        store = ShardStore(tmp_path / "s0", compact_every_records=4)
        payloads = [
            _day("u1", 1), _day("u2", 1), _done("u1", 4), _day("u2", 2),
            _day("u2", 3), _done("u2", 7),
        ]
        for payload in payloads:
            store.append(payload)
        assert store.compactions == 1
        snapshot = store.path / "snapshot-00000001.json"
        return store.path, store.wal_path, snapshot, payloads[4:]

    def _recover_and_append(self, root, wal_path, live, where):
        """Recover, check the WAL holds a prefix of ``live``, append one
        record and recover again.  Returns the first recovery's report,
        the users it recovered and the number of records it kept."""
        store = ShardStore(root)
        report = store.recover()
        users = {u for u in ("u1", "u2", "u3") if store.get(u) is not None}
        read = read_wal(wal_path)
        kept = list(read.records)
        assert not read.damaged, where
        assert kept == live[: len(kept)], where
        store.append(self.NEW)
        again = ShardStore(root)
        again.recover()
        assert list(read_wal(wal_path).records) == kept + [self.NEW], where
        return report, users, len(kept)

    def test_truncated_wal(self, shard):
        root, wal_path, _, live = shard
        original = wal_path.read_bytes()
        for offset in range(len(original)):
            wal_path.write_bytes(original[:offset])
            *_, kept = self._recover_and_append(root, wal_path, live, offset)
            assert kept == original[:offset].count(b"\n"), offset

    def test_flipped_wal_byte(self, shard):
        root, wal_path, _, live = shard
        original = wal_path.read_bytes()
        for offset in range(len(original)):
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (offset % 8)
            wal_path.write_bytes(bytes(damaged))
            self._recover_and_append(root, wal_path, live, offset)

    def test_flipped_manifest_byte(self, shard):
        """Whatever the flip, recovery replays the live WAL in full and
        appends to it."""
        root, wal_path, snapshot, live = shard
        files = {p: p.read_bytes() for p in (root / MANIFEST_NAME, wal_path, snapshot)}
        original = files[root / MANIFEST_NAME]
        for offset in range(len(original)):
            for path in set(root.iterdir()) - set(files):
                path.unlink()  # a WAL generation the last damaged manifest named
            for path, body in files.items():
                path.write_bytes(body)
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (offset % 8)
            (root / MANIFEST_NAME).write_bytes(bytes(damaged))
            *_, kept = self._recover_and_append(root, wal_path, live, offset)
            assert kept == len(live), offset

    def test_flipped_snapshot_byte(self, shard):
        root, wal_path, snapshot, live = shard
        wal_bytes = wal_path.read_bytes()
        original = snapshot.read_bytes()
        for offset in range(len(original)):
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (offset % 8)
            snapshot.write_bytes(bytes(damaged))
            wal_path.write_bytes(wal_bytes)
            report, users, kept = self._recover_and_append(root, wal_path, live, offset)
            assert kept == len(live), offset
            assert any("snapshot" in issue for issue in report.issues), offset
            assert users == {p["user_id"] for p in live}, offset


@pytest.fixture(scope="module")
def compacted(tmp_path_factory):
    """A shard after one compaction, with the bytes of each of its files."""
    store = ShardStore(tmp_path_factory.mktemp("retyped") / "s0", compact_every_records=2)
    for payload in (_done("u1"), _day("u2", 0), _day("u2", 1)):
        store.append(payload)
    return store.path, {p.name: p.read_bytes() for p in store.path.iterdir()}


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_retyped_manifest_and_snapshot_fields_never_raise(compacted, data):
    """Each field of the manifest, and of a snapshot read without one, in
    turn becomes a value of another JSON type or an out-of-range number:
    recovery salvages what it can and never raises."""
    root, files = compacted
    snapshot = "snapshot-00000001.json"
    for name in (MANIFEST_NAME, snapshot):
        for case, doc in retyped(json.loads(files[name]), data):
            with case:
                for file, body in files.items():
                    (root / file).write_bytes(body)
                if name == snapshot:
                    (root / MANIFEST_NAME).unlink()  # no digest: loaded unverified
                (root / name).write_text(json.dumps(doc))
                ShardStore(root).recover()
