"""Online streaming engine: causal habit mining and scheduling at scale.

The offline pipeline fits :class:`~repro.habits.prediction.HabitModel`
on a complete history and replays held-out days with the whole trace in
hand.  On a phone — and in the serving workload the ROADMAP aims at —
events arrive one at a time and every decision must be causal.  This
package is that online engine, in four layers:

* :mod:`repro.stream.ingest` — a trace's records as one lazy,
  chronological stream;
* :mod:`repro.stream.online_habits` — :class:`OnlineHabitModel`,
  incremental hour-level accumulators that reproduce the offline fit
  bit-exactly after a full pass, plus a drift signal;
* :mod:`repro.stream.online_netmaster` — :class:`OnlineNetMaster`,
  the middleware driven at stream time with JSON checkpoint/restore;
* :mod:`repro.stream.fleet` — a multi-tenant session manager driving
  thousands of streamed user-days with bounded per-user memory;
* :mod:`repro.stream.shards` — sharded durable fleet state: per-shard
  write-ahead logs, snapshot compaction and crash recovery.

``python -m repro stream`` runs the fleet experiment
(:func:`repro.stream.experiment.stream_experiment`);
``python -m repro shards`` runs the crash-recovery experiment
(:func:`repro.stream.shards.shards_experiment`).
"""

from repro.stream.experiment import StreamResult, fleet_specs, stream_experiment
from repro.stream.fleet import (
    FleetConfig,
    FleetResult,
    FleetService,
    FleetUserSpec,
    UserStreamSummary,
    stream_one_user,
)
from repro.stream.ingest import event_time, stream_trace
from repro.stream.online_habits import OnlineHabitModel
from repro.stream.online_netmaster import (
    CheckpointError,
    CompletedDay,
    OnlineNetMaster,
)
from repro.stream.rollup import FleetRollup, SummarySpill, iter_spilled, read_spilled
from repro.stream.shards import (
    ShardConfig,
    ShardedFleetResult,
    ShardedFleetService,
    ShardsResult,
    ShardStore,
    shard_of,
    shards_experiment,
)
from repro.stream.specgen import iter_fleet_specs

__all__ = [
    "CheckpointError",
    "CompletedDay",
    "FleetConfig",
    "FleetResult",
    "FleetRollup",
    "FleetService",
    "FleetUserSpec",
    "SummarySpill",
    "OnlineHabitModel",
    "OnlineNetMaster",
    "ShardConfig",
    "ShardStore",
    "ShardedFleetResult",
    "ShardedFleetService",
    "ShardsResult",
    "StreamResult",
    "UserStreamSummary",
    "event_time",
    "fleet_specs",
    "iter_fleet_specs",
    "iter_spilled",
    "read_spilled",
    "shard_of",
    "shards_experiment",
    "stream_experiment",
    "stream_one_user",
    "stream_trace",
]
