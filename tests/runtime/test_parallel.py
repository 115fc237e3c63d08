"""ParallelRunner: ordering, fallback, and serial/parallel equality."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.baselines import (
    DelayBatchPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
)
from repro.core.netmaster import NetMasterConfig
from repro.evaluation import split_history
from repro.evaluation.metrics import run_policy_over_days
from repro.runtime.parallel import (
    ParallelRunner,
    PolicyTask,
    execute_policy_tasks,
    run_policy_tasks,
    shutdown_shared_runners,
)

# Module-level so it pickles into worker processes.


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x


# ----------------------------------------------------------------------
# the runner itself
# ----------------------------------------------------------------------


@pytest.fixture
def runner2():
    """A two-worker runner whose pool is released after the test."""
    runner = ParallelRunner(2)
    yield runner
    runner.close()


def test_serial_map_preserves_order():
    assert ParallelRunner(1).map(_square, range(5)) == [0, 1, 4, 9, 16]


def test_parallel_map_preserves_order(runner2):
    assert runner2.map(_square, range(8)) == [x * x for x in range(8)]
    assert runner2.fallbacks == 0


def test_single_task_stays_serial():
    # One task never pays pool start-up cost (and lambdas stay legal).
    assert ParallelRunner(4).map(lambda x: x + 1, [41]) == [42]


def test_jobs_validated():
    with pytest.raises(ValueError, match="jobs"):
        ParallelRunner(0)


def test_task_exception_propagates_like_serial(runner2):
    with pytest.raises(ValueError, match="three"):
        ParallelRunner(1).map(_fail_on_three, range(5))
    with pytest.raises(ValueError, match="three"):
        runner2.map(_fail_on_three, range(5))


def test_unpicklable_fn_falls_back_to_serial(runner2):
    assert runner2.map(lambda x: x * 10, [1, 2, 3]) == [10, 20, 30]
    assert runner2.fallbacks == 1


def test_broken_pool_falls_back(monkeypatch, runner2):
    import repro.runtime.parallel as par

    class ExplodingPool:
        def __init__(self, *a, **kw):
            raise OSError("no processes in this sandbox")

    monkeypatch.setattr(par, "ProcessPoolExecutor", ExplodingPool)
    assert runner2.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert runner2.fallbacks == 1


# ----------------------------------------------------------------------
# policy grids
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid(volunteers, wcdma):
    """(task list, per-volunteer held-out days) over three policies."""
    tasks = []
    for trace in volunteers:
        history, days = split_history(trace, 10)
        for name, policy in (
            ("baseline", NaivePolicy()),
            ("oracle", OraclePolicy()),
            ("netmaster", NetMasterPolicy(history, NetMasterConfig())),
        ):
            tasks.append(
                PolicyTask(name=name, policy=policy, days=tuple(days), model=wcdma)
            )
    return tasks


def test_policy_grid_parallel_equals_serial(grid):
    serial = run_policy_tasks(grid, jobs=1)
    parallel = run_policy_tasks(grid, jobs=2)
    assert len(serial) == len(parallel) == len(grid)
    for s_days, p_days in zip(serial, parallel):
        assert [m.energy_j for m in s_days] == [m.energy_j for m in p_days]
        assert [m.radio_on_s for m in s_days] == [m.radio_on_s for m in p_days]
        assert [m.interrupts for m in s_days] == [m.interrupts for m in p_days]


def test_execute_grid_parallel_equals_serial(grid, wcdma):
    serial = execute_policy_tasks(grid[:3], jobs=1)
    parallel = execute_policy_tasks(grid[:3], jobs=2)
    for s_days, p_days in zip(serial, parallel):
        for s, p in zip(s_days, p_days):
            assert s.policy == p.policy
            assert s.energy(wcdma).energy_j == p.energy(wcdma).energy_j


def test_shared_pool_is_reused_then_released(grid, monkeypatch):
    """Grid runs at one worker count share one executor until
    ``shutdown_shared_runners`` releases it and its workers."""
    import repro.runtime.parallel as par

    pools = []

    class CountingPool(par.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            pools.append(self)

    monkeypatch.setattr(par, "ProcessPoolExecutor", CountingPool)
    serial = execute_policy_tasks(grid[:4], jobs=1)
    first = execute_policy_tasks(grid[:4], jobs=2)
    second = execute_policy_tasks(grid[:4], jobs=2)
    assert len(pools) == 1
    assert par.shared_runner(2).fallbacks == 0
    assert first == serial
    assert second == serial
    shutdown_shared_runners()
    assert multiprocessing.active_children() == []


def test_day_fanout_for_stateless_policy(volunteers, wcdma):
    """Day-independent policies may fan per day; results identical."""
    _, days = split_history(volunteers[0], 10)
    policy = DelayBatchPolicy(60.0)
    assert policy.day_independent is True
    serial = run_policy_over_days(policy, days, wcdma)
    parallel = run_policy_over_days(policy, days, wcdma, jobs=2)
    assert [m.energy_j for m in serial] == [m.energy_j for m in parallel]


def test_stateful_policy_never_fans_per_day(volunteers, wcdma, monkeypatch):
    """NetMaster's circuit breaker carries state across days, so the
    per-day fan-out must not trigger for it — even with jobs>1."""
    import repro.runtime.parallel as par

    history, days = split_history(volunteers[0], 10)
    policy = NetMasterPolicy(history, NetMasterConfig())
    assert policy.day_independent is False

    # Every run goes through the grid runner; a stateful policy must
    # reach it as one task carrying the whole day sequence.
    run_policy_tasks = par.run_policy_tasks

    def whole_sequence_only(tasks, **kw):
        if [len(t.days) for t in tasks] != [len(days)]:  # pragma: no cover
            raise AssertionError("stateful policy was fanned per day")
        return run_policy_tasks(tasks, **kw)

    monkeypatch.setattr(par, "run_policy_tasks", whole_sequence_only)
    serial = run_policy_over_days(policy, days, wcdma)
    with_jobs = run_policy_over_days(
        NetMasterPolicy(history, NetMasterConfig()), days, wcdma, jobs=4
    )
    assert [m.energy_j for m in serial] == [m.energy_j for m in with_jobs]


def test_fig7_parallel_cache_bit_identical():
    """The ISSUE acceptance check: fig7 at jobs=2 with the cache on is
    bit-identical to the serial, cache-off run at the same seed."""
    from repro.evaluation.experiments import fig7
    from repro.runtime.cache import configure_cache, default_cache

    cache = default_cache()
    was_enabled = cache.enabled
    try:
        configure_cache(enabled=False)
        serial = fig7(n_days=8, n_history_days=6)
        configure_cache(enabled=True)
        parallel = fig7(n_days=8, n_history_days=6, jobs=2)
        warm = fig7(n_days=8, n_history_days=6, jobs=2)
    finally:
        cache.enabled = was_enabled
    for ref in (parallel, warm):
        assert ref.netmaster_mean_saving == serial.netmaster_mean_saving
        assert ref.oracle_mean_saving == serial.oracle_mean_saving
        for vs, vp in zip(serial.volunteers, ref.volunteers):
            assert vs.energy_saving == vp.energy_saving
            assert vs.radio_on_s == vp.radio_on_s
            for name in vs.per_policy:
                assert [m.energy_j for m in vs.per_policy[name]] == [
                    m.energy_j for m in vp.per_policy[name]
                ]
