"""Batch pricing vs one cell per call.

``core.batch`` prices whole (outcome, day) grids through the lane
engine; every row must equal pricing that cell alone
(``measure_outcome``, the one-cell batch) exactly — a cell never depends
on its neighbours.  Outcomes with extra wake windows, per-activity
tails, and fault surcharges exercise the scalar adjustment path on top
of the batched RRC base.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    DelayBatchPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
)
from repro.baselines.policy import PolicyOutcome
from repro.core.batch import measure_outcomes_columnar, run_policy_tasks_columnar
from repro.core.netmaster import NetMasterConfig
from repro.evaluation import split_history
from repro.evaluation.metrics import measure_outcome
from repro.runtime.parallel import PolicyTask, run_policy_tasks
from repro.traces.events import NetworkActivity


@pytest.fixture(scope="module")
def grid(volunteers, wcdma):
    tasks = []
    for trace in volunteers:
        history, days = split_history(trace, 10)
        for name, policy in (
            ("baseline", NaivePolicy()),
            ("oracle", OraclePolicy()),
            ("netmaster", NetMasterPolicy(history, NetMasterConfig())),
            ("delay-batch", DelayBatchPolicy(60.0)),
        ):
            tasks.append(
                PolicyTask(name=name, policy=policy, days=tuple(days), model=wcdma)
            )
    return tasks


def test_measure_outcomes_columnar_matches_per_cell(grid, wcdma):
    from repro.runtime.parallel import execute_policy_tasks

    outcomes = execute_policy_tasks(grid, jobs=1)
    cells = [
        (outcome, day)
        for task, outs in zip(grid, outcomes)
        for day, outcome in zip(task.days, outs)
    ]
    columnar = measure_outcomes_columnar(cells, wcdma)
    per_cell = [measure_outcome(o, wcdma, day) for o, day in cells]
    assert columnar == per_cell


def test_former_runner_name_is_the_runner():
    assert run_policy_tasks_columnar is run_policy_tasks


def test_mixed_models_grouped(volunteers, wcdma, lte):
    _, days = split_history(volunteers[0], 10)
    tasks = [
        PolicyTask(name="w", policy=NaivePolicy(), days=tuple(days), model=wcdma),
        PolicyTask(name="l", policy=NaivePolicy(), days=tuple(days), model=lte),
    ]
    grid = run_policy_tasks(tasks)
    for task, metrics in zip(tasks, grid):
        assert metrics == [
            measure_outcome(NaivePolicy().execute_day(day), task.model, day)
            for day in task.days
        ]
    assert grid[0] != grid[1]


def test_fault_surcharges_match(test_day, wcdma):
    # Hand-built outcomes exercising finalize_energy: wake windows,
    # failed partial windows with per-activity tails, failed promotions.
    acts = list(test_day.activities)
    base = PolicyOutcome(policy="faulty", activities=acts)
    with_wakes = PolicyOutcome(
        policy="faulty",
        activities=acts,
        extra_windows=[(10.0, 12.0), (500.0, 501.0)],
        failed_promotions=2,
    )
    with_tails = PolicyOutcome(
        policy="faulty",
        activities=acts,
        activity_tails=[0.0] * len(acts),
        failed_windows=[(90.0, 95.0)],
        retries=1,
    )
    cells = [(base, test_day), (with_wakes, test_day), (with_tails, test_day)]
    columnar = measure_outcomes_columnar(cells, wcdma)
    per_cell = [measure_outcome(o, wcdma, day) for o, day in cells]
    assert columnar == per_cell


def test_payload_validation_still_raises(test_day, wcdma):
    dropped = PolicyOutcome(
        policy="lossy",
        activities=[
            NetworkActivity(3600.0, "com.android.email", 1.0, 1.0, 5.0, False)
        ],
    )
    with pytest.raises(ValueError, match="payload not conserved"):
        measure_outcomes_columnar([(dropped, test_day)], wcdma)


def test_empty_cells():
    from repro.radio import wcdma_model

    assert measure_outcomes_columnar([], wcdma_model()) == []
    assert run_policy_tasks([]) == []
