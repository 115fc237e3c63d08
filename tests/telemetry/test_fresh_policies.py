"""A run's registry does not depend on what ran before it.

``test_integration.py`` replays one module-scoped grid many times, so a
policy that planned lazily and kept the plan would count its plan builds
in whichever run came first.  Here every test trains its own policies:
the first run after training must already equal the second.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.baselines import NaivePolicy, NetMasterPolicy
from repro.core.netmaster import NetMasterConfig
from repro.evaluation import split_history
from repro.runtime.parallel import PolicyTask, run_policy_tasks


@pytest.fixture
def fresh_grid(volunteers, wcdma):
    tasks = []
    for trace in volunteers[:2]:
        history, days = split_history(trace, 10)
        for name, policy in (
            ("baseline", NaivePolicy()),
            ("netmaster", NetMasterPolicy(history, NetMasterConfig())),
        ):
            tasks.append(
                PolicyTask(
                    name=f"{trace.user_id}/{name}",
                    policy=policy,
                    days=tuple(days[:2]),
                    model=wcdma,
                )
            )
    return tasks


def test_serial_run_twice_is_identical_with_fresh_policies(fresh_grid):
    snaps = []
    for _ in range(2):
        with telemetry.isolated() as (reg, _):
            run_policy_tasks(fresh_grid, jobs=1)
            snaps.append(reg.snapshot())
    assert snaps[0] == snaps[1]
    assert snaps[0]["counters"]["core.netmaster.days"] == 4
    assert "core.scheduler.plans" not in snaps[0]["counters"]
