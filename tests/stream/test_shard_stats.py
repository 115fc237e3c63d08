"""ShardStats rows count each shard's own sheds, not the fleet total."""

from __future__ import annotations

import pytest

from repro.core.netmaster import NetMasterConfig
from repro.stream import (
    FleetConfig,
    FleetUserSpec,
    ShardConfig,
    ShardedFleetService,
    shard_of,
)

CONFIG = FleetConfig(
    train_days=2, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)
N_SHARDS = 3


def _fresh(prefix: str, n: int) -> list[FleetUserSpec]:
    return [
        FleetUserSpec(user_id=f"{prefix}-{i}", n_days=3, seed=200 + i)
        for i in range(n)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_row_counts_the_users_its_shard_shed(tmp_path, jobs):
    shards = ShardConfig(root=tmp_path, n_shards=N_SHARDS, shard_event_budget=1)
    service = ShardedFleetService(CONFIG, shards=shards)
    warm = _fresh("warm", 2)
    service.run(warm, jobs=jobs)
    hot = {shard_of(s.user_id, N_SHARDS) for s in warm}
    assert 0 < len(hot) < N_SHARDS  # one shard at least stays cold

    fresh = _fresh("fresh", 12)
    result = service.run(fresh, jobs=jobs)
    expected = [0] * N_SHARDS
    for spec in fresh:
        shard = shard_of(spec.user_id, N_SHARDS)
        if shard in hot:
            expected[shard] += 1
    assert [row.shed_users for row in result.shard_stats] == expected
    assert sum(row.shed_users for row in result.shard_stats) == (
        result.shard_shed_users
    )
    assert result.shard_shed_users > 0
