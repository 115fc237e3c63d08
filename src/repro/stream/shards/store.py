"""Sharded durable state store: snapshot + WAL generations per shard.

Disk layout of one shard directory::

    shard-000/
      MANIFEST.json          <- commit point (atomic os.replace)
      snapshot-00000003.json <- compacted state, sha256 in the manifest
      wal-00000003.jsonl     <- CRC-framed day-close records since the snapshot

The manifest names the current *generation*: one snapshot (absent at
generation 0) plus the WAL of everything since it.  Recovery is
``snapshot ∘ replay(WAL tail)`` — cost proportional to the records since
the last compaction, not to the shard's lifetime.  Compaction folds the
live state into a new snapshot generation and switches the manifest
atomically, so a crash at any byte of the process leaves either the old
generation or the new one, never a hybrid.

Fault tolerance is lenient by construction: a torn or corrupt WAL tail
is truncated back to the last durable record, a missing or corrupt
snapshot salvages whatever full states the WAL still holds, and a lost
manifest falls back to scanning the directory for the newest
generation.  Every salvage path logs a warning and is counted — nothing
in recovery raises for damaged state.

Telemetry: ``shard.recoveries``, ``wal.replayed_records``,
``compaction.runs`` (plus ``wal.appends`` from the WAL layer).
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro._util import write_json_atomic, write_text_atomic
from repro.stream.shards.wal import append_record, read_wal, repair_wal
from repro.telemetry import metrics

logger = logging.getLogger(__name__)

MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_FORMAT = 1
_SNAPSHOT_FORMAT = 1

_GENERATION_RE = re.compile(r"^(?:wal|snapshot)-(\d{8})\.(?:jsonl|json)$")


def shard_of(user_id: str, n_shards: int) -> int:
    """Deterministic user→shard routing (stable across processes).

    Uses SHA-256 rather than :func:`hash` so the routing survives
    interpreter restarts and ``PYTHONHASHSEED`` — a user's shard is a
    pure function of their id, forever.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass
class UserShardState:
    """One user's durable residue inside a shard.

    ``engine_state``/``acc_state`` are the JSON documents of the last
    day-close WAL record (or the final state for a ``done`` user);
    ``summary`` is the frozen fleet summary, present only once done.
    """

    user_id: str
    engine_state: dict | None = None
    acc_state: dict | None = None
    done: bool = False
    summary: dict | None = None

    @property
    def resumable(self) -> bool:
        """Whether a mid-stream resume can start from this state."""
        return not self.done and self.engine_state is not None


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ShardStore.recover` call found and fixed."""

    existed: bool
    users: int = 0
    done_users: int = 0
    resumable_users: int = 0
    replayed_records: int = 0
    wal_damaged: bool = False
    issues: tuple[str, ...] = ()


class DayCloseLog:
    """The WAL's day-close record format, written through ``append``."""

    def append(self, payload: dict) -> None:
        raise NotImplementedError

    def log_day(self, user_id: str, state: dict) -> None:
        """Log one day close: the user's driver state after that day
        (``{"engine": ..., "acc": ...}``)."""
        self.append({"type": "day", "user_id": user_id, **state})

    def log_done(self, user_id: str, state: dict, summary: dict) -> None:
        """Log a user's completion with their frozen summary."""
        self.append(
            {"type": "done", "user_id": user_id, **state, "summary": summary}
        )


@dataclass
class ShardStore(DayCloseLog):
    """Durable state of one shard: append-only WAL + compacted snapshots."""

    path: Path
    #: Compact (snapshot + new WAL generation) once the current WAL
    #: holds this many records.
    compact_every_records: int = 64
    #: fsync every WAL append (survives power loss, not just crashes).
    fsync: bool = False

    #: Records appended by this process (not counting replayed history).
    appends: int = field(default=0, init=False)
    #: Compactions run by this process.
    compactions: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if self.compact_every_records < 1:
            raise ValueError(
                f"compact_every_records must be >= 1, got {self.compact_every_records}"
            )
        self._users: dict[str, UserShardState] = {}
        self._generation = 0
        self._wal_records = 0
        self._done_events = 0
        self._initialized = False

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _wal_path(self, generation: int) -> Path:
        return self.path / f"wal-{generation:08d}.jsonl"

    def _snapshot_path(self, generation: int) -> Path:
        return self.path / f"snapshot-{generation:08d}.json"

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        """The live WAL file of the current generation."""
        return self._wal_path(self._generation)

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def wal_records(self) -> int:
        """Records in the current WAL segment (replayed + appended)."""
        return self._wal_records

    # ------------------------------------------------------------------
    # live state
    # ------------------------------------------------------------------
    def get(self, user_id: str) -> UserShardState | None:
        """The durable state of one user (``None`` if never logged)."""
        return self._users.get(user_id)

    @property
    def users(self) -> dict[str, UserShardState]:
        """Live view of every user's durable state (do not mutate)."""
        return self._users

    @property
    def events(self) -> int:
        """Completed (done-user) events in this shard — the admission
        currency for per-shard load shedding.

        A running counter maintained as records fold in, so the
        per-batch budget read is O(1) instead of re-summing every done
        user's summary (O(users) per batch, O(users²) per run)."""
        return self._done_events

    @staticmethod
    def _summary_events(summary: dict | None) -> int:
        """Event count of a done-user summary (0 for damaged docs)."""
        if isinstance(summary, dict):
            try:
                return int(summary.get("events", 0))
            except (TypeError, ValueError):
                return 0
        return 0

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def _ensure_initialized(self) -> None:
        if self._initialized:
            return
        self.path.mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            self._write_manifest(snapshot=None, snapshot_sha256=None)
        self._initialized = True

    def append(self, payload: dict) -> None:
        """Durably log one record, fold it in, maybe compact.

        The record is on disk (written + flushed) before the in-memory
        state changes — the WAL is *ahead* of everything else.
        """
        self._ensure_initialized()
        append_record(self.wal_path, payload, fsync=self.fsync)
        self.appends += 1
        self._wal_records += 1
        self._apply(payload, during_replay=False)
        if self._wal_records >= self.compact_every_records:
            self.compact()

    def _apply(self, payload: dict, *, during_replay: bool) -> None:
        kind = payload.get("type")
        user_id = payload.get("user_id")
        if not isinstance(user_id, str):
            if during_replay:
                logger.warning(
                    "shard %s: WAL record without user_id (type=%r); skipping",
                    self.path.name,
                    kind,
                )
                return
            raise ValueError(f"WAL payload has no user_id: {payload!r}")
        if kind == "day":
            self._users[user_id] = UserShardState(
                user_id=user_id,
                engine_state=payload.get("engine"),
                acc_state=payload.get("acc"),
            )
        elif kind == "done":
            # Eviction point: once a user is done, only the done flag
            # and the frozen summary stay resident — the engine and
            # accumulator states are durable in the WAL record just
            # written (or being replayed) and are never consulted again
            # (``resumable`` requires not-done).  This is what keeps a
            # long-lived shard's memory proportional to its *summaries*,
            # not its engines.
            prev = self._users.get(user_id)
            if prev is not None and prev.done:
                self._done_events -= self._summary_events(prev.summary)
            summary = payload.get("summary")
            self._users[user_id] = UserShardState(
                user_id=user_id,
                done=True,
                summary=summary,
            )
            self._done_events += self._summary_events(summary)
        elif during_replay:
            logger.warning(
                "shard %s: unknown WAL record type %r for user %s; skipping",
                self.path.name,
                kind,
                user_id,
            )
        else:
            raise ValueError(f"unknown WAL payload type: {kind!r}")

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Fold WAL + snapshot into a new snapshot generation (atomic).

        Writes the new snapshot (content-hashed into the manifest),
        starts an empty WAL, switches the manifest with ``os.replace``
        — the commit point — and only then deletes the old generation's
        files.  Recovery after a crash anywhere in this sequence finds
        either the old complete generation or the new one.
        """
        self._ensure_initialized()
        old_generation = self._generation
        new_generation = old_generation + 1
        doc = {
            "format": _SNAPSHOT_FORMAT,
            "generation": new_generation,
            "users": {
                user_id: {
                    "engine": state.engine_state,
                    "acc": state.acc_state,
                    "done": state.done,
                    "summary": state.summary,
                }
                for user_id, state in sorted(self._users.items())
            },
        }
        body = json.dumps(doc, indent=1) + "\n"
        snapshot = self._snapshot_path(new_generation)
        write_text_atomic(snapshot, body)
        new_wal = self._wal_path(new_generation)
        new_wal.touch()
        self._write_manifest(
            snapshot=snapshot.name,
            snapshot_sha256=hashlib.sha256(body.encode("utf-8")).hexdigest(),
            generation=new_generation,
        )
        self._generation = new_generation
        self._wal_records = 0
        self.compactions += 1
        metrics().inc("compaction.runs")
        # Only now is the old generation garbage.
        self._wal_path(old_generation).unlink(missing_ok=True)
        self._snapshot_path(old_generation).unlink(missing_ok=True)

    def _write_manifest(
        self,
        *,
        snapshot: str | None,
        snapshot_sha256: str | None,
        generation: int | None = None,
    ) -> None:
        generation = self._generation if generation is None else generation
        write_json_atomic(
            self.manifest_path,
            {
                "format": _MANIFEST_FORMAT,
                "generation": generation,
                "snapshot": snapshot,
                "snapshot_sha256": snapshot_sha256,
                "wal": self._wal_path(generation).name,
            },
            indent=1,
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Rebuild the live state from disk: snapshot, then WAL tail.

        Never raises for damaged state — every salvage decision is
        logged, reported, and counted.  After recovery the WAL is
        repaired (truncated to its last durable record) so appends
        resume on a clean boundary.
        """
        issues: list[str] = []
        self._users = {}
        self._generation = 0
        self._wal_records = 0
        self._done_events = 0
        existed = self.path.is_dir() and any(self.path.iterdir())
        if not existed:
            self._initialized = False
            return RecoveryReport(existed=False)

        manifest = self._read_manifest(issues)
        if manifest is None:
            generation, snapshot_name, snapshot_sha = self._scan_fallback(issues)
        else:
            generation = int(manifest.get("generation", 0))
            snapshot_name = manifest.get("snapshot")
            snapshot_sha = manifest.get("snapshot_sha256")
        self._generation = generation

        if snapshot_name is not None:
            self._load_snapshot(snapshot_name, snapshot_sha, issues)

        result = read_wal(self.wal_path)
        if result.damaged:
            issues.append(f"WAL {self.wal_path.name}: {result.issue}")
            repair_wal(self.wal_path, result)
        for payload in result.records:
            self._apply(payload, during_replay=True)
        self._wal_records = len(result.records)
        metrics().inc("wal.replayed_records", len(result.records))
        metrics().inc("shard.recoveries")
        self._initialized = True

        report = RecoveryReport(
            existed=True,
            users=len(self._users),
            done_users=sum(1 for s in self._users.values() if s.done),
            resumable_users=sum(1 for s in self._users.values() if s.resumable),
            replayed_records=len(result.records),
            wal_damaged=result.damaged,
            issues=tuple(issues),
        )
        if issues:
            logger.warning(
                "shard %s recovered with %d issue(s): %s",
                self.path.name,
                len(issues),
                "; ".join(issues),
            )
        return report

    def _read_manifest(self, issues: list[str]) -> dict | None:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            issues.append("manifest missing; scanning for the newest generation")
            return None
        except (OSError, json.JSONDecodeError) as exc:
            issues.append(
                f"manifest unreadable ({type(exc).__name__}: {exc}); "
                "scanning for the newest generation"
            )
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _MANIFEST_FORMAT
        ):
            issues.append(
                f"manifest format {manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
                f"unsupported (expected {_MANIFEST_FORMAT}); scanning for the newest generation"
            )
            return None
        return manifest

    def _scan_fallback(
        self, issues: list[str]
    ) -> tuple[int, str | None, str | None]:
        """Without a manifest, trust the newest generation on disk."""
        generations: set[int] = set()
        for entry in self.path.iterdir():
            match = _GENERATION_RE.match(entry.name)
            if match:
                generations.add(int(match.group(1)))
        if not generations:
            return 0, None, None
        generation = max(generations)
        snapshot = self._snapshot_path(generation)
        if snapshot.exists():
            # No manifest, so no recorded digest: load unverified.
            return generation, snapshot.name, None
        return generation, None, None

    def _load_snapshot(
        self, name: str, sha256: str | None, issues: list[str]
    ) -> None:
        path = self.path / name
        try:
            body = path.read_bytes()
        except FileNotFoundError:
            issues.append(
                f"snapshot {name} is missing; salvaging from the WAL tail only"
            )
            return
        except OSError as exc:
            issues.append(
                f"snapshot {name} unreadable ({exc}); salvaging from the WAL tail only"
            )
            return
        if sha256 is not None and hashlib.sha256(body).hexdigest() != sha256:
            issues.append(
                f"snapshot {name} failed its content hash; "
                "salvaging from the WAL tail only"
            )
            return
        try:
            doc = json.loads(body.decode("utf-8"))
            if doc.get("format") != _SNAPSHOT_FORMAT:
                raise ValueError(f"unsupported snapshot format {doc.get('format')!r}")
            users = doc["users"]
            if not isinstance(users, dict):
                raise ValueError("snapshot users is not an object")
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            issues.append(
                f"snapshot {name} corrupt ({type(exc).__name__}: {exc}); "
                "salvaging from the WAL tail only"
            )
            return
        for user_id, state in users.items():
            if bool(state.get("done", False)):
                # Same eviction as the live fold: done users keep only
                # their summary in memory (and in future snapshots).
                summary = state.get("summary")
                self._users[str(user_id)] = UserShardState(
                    user_id=str(user_id), done=True, summary=summary
                )
                self._done_events += self._summary_events(summary)
            else:
                self._users[str(user_id)] = UserShardState(
                    user_id=str(user_id),
                    engine_state=state.get("engine"),
                    acc_state=state.get("acc"),
                )
