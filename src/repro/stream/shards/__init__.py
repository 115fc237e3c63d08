"""Sharded durable fleet state: per-shard WAL, snapshots, recovery.

Users hash deterministically onto N shards (:func:`shard_of`); each
shard owns an append-only CRC-framed write-ahead log of day-close
deltas, periodically compacted into content-hashed snapshots
(:class:`ShardStore`).  :class:`ShardedFleetService` runs the fleet
admission loop on top — byte-identical decisions to the plain
:class:`~repro.stream.fleet.FleetService`, plus crash recovery.  See
DESIGN.md, "Durability architecture".
"""

from repro.stream.shards.experiment import ShardsResult, shards_experiment
from repro.stream.shards.service import (
    ShardConfig,
    ShardedFleetResult,
    ShardedFleetService,
    stream_user_durable,
)
from repro.stream.shards.store import (
    RecoveryReport,
    ShardStore,
    UserShardState,
    shard_of,
)
from repro.stream.shards.wal import (
    WalReadResult,
    append_record,
    decode_record,
    encode_record,
    read_wal,
    repair_wal,
)

__all__ = [
    "RecoveryReport",
    "ShardConfig",
    "ShardStore",
    "ShardedFleetResult",
    "ShardedFleetService",
    "ShardsResult",
    "UserShardState",
    "WalReadResult",
    "append_record",
    "decode_record",
    "encode_record",
    "read_wal",
    "repair_wal",
    "shard_of",
    "shards_experiment",
    "stream_user_durable",
]
