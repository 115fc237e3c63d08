"""Telemetry across the pipeline: merge determinism, zero-effect runs,
and task-identity error attribution."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.baselines import DelayBatchPolicy, NaivePolicy, NetMasterPolicy
from repro.baselines.policy import PolicyOutcome
from repro.core.netmaster import NetMasterConfig
from repro.evaluation import split_history
from repro.evaluation.metrics import run_policy_over_days
from repro.runtime.parallel import PolicyTask, PolicyTaskError, run_policy_tasks


@pytest.fixture(scope="module")
def small_grid(volunteers, wcdma):
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


class TestMergeDeterminism:
    def test_parallel_merged_registry_equals_serial(self, small_grid):
        """The ISSUE acceptance check: per-worker registries shipped back
        and merged in task order reproduce the serial registry exactly.

        ``runner.chunk_count`` is parent-side dispatch accounting — it
        counts pool submissions, which legitimately depend on ``jobs``
        (serial runs submit nothing) — so it is excluded from the
        simulation-counter comparison.
        """
        with telemetry.isolated() as (reg, _):
            run_policy_tasks(small_grid, jobs=1)
            serial = reg.snapshot()
        with telemetry.isolated() as (reg, _):
            run_policy_tasks(small_grid, jobs=4)
            parallel = reg.snapshot()
        assert parallel["counters"].pop("runner.chunk_count") >= 1
        assert serial == parallel
        assert serial["counters"]["runtime.parallel.tasks"] == len(small_grid)

    def test_parallel_sim_spans_equal_serial(self, small_grid):
        """Sim-time spans are deterministic; only the recording pid may
        differ between a worker and the serial parent."""

        def sim_spans(jobs):
            with telemetry.isolated() as (_, trc):
                run_policy_tasks(small_grid, jobs=jobs)
                return [
                    {k: v for k, v in s.items() if k != "pid"}
                    for s in trc.export_spans()
                    if s["domain"] == "sim"
                ]

        serial, parallel = sim_spans(1), sim_spans(2)
        assert serial and serial == parallel
        # Batched pricing keeps every cell's RRC spans on the cell's own
        # track, as pricing the cells one by one would.
        assert {s["track"] for s in serial if s["cat"] == "rrc"} == {
            f"{task.name}:d{i + 1}/rrc"
            for task in small_grid
            for i in range(len(task.days))
        }

    def test_serial_run_twice_is_identical(self, small_grid):
        snaps = []
        for _ in range(2):
            with telemetry.isolated() as (reg, _):
                run_policy_tasks(small_grid, jobs=1)
                snaps.append(reg.snapshot())
        assert snaps[0] == snaps[1]


class TestZeroEffect:
    def test_results_identical_with_telemetry_on_off(self, volunteers, wcdma):
        """Figure inputs are bit-identical whether telemetry observes or
        not — instrumentation must never touch the computation."""
        _, days = split_history(volunteers[0], 10)

        def energies():
            return [
                m.energy_j
                for m in run_policy_over_days(DelayBatchPolicy(60.0), days, wcdma)
            ]

        with telemetry.isolated():  # metrics + tracing on
            traced = energies()
        was_metrics = telemetry.metrics_enabled()
        try:
            telemetry.configure(metrics_enabled=False, tracing_enabled=False)
            dark = energies()
        finally:
            telemetry.configure(metrics_enabled=was_metrics)
        assert traced == dark

    def test_instrumentation_records_pipeline_counters(self, volunteers, wcdma):
        history, days = split_history(volunteers[0], 10)
        policy = NetMasterPolicy(history, NetMasterConfig())
        with telemetry.isolated() as (reg, trc):
            run_policy_over_days(policy, days[:2], wcdma)
            counters = reg.snapshot()["counters"]
            cats = {s.cat for s in trc.spans}
        assert counters["core.netmaster.days"] == 2
        assert counters["radio.rrc.simulations"] >= 2
        assert "rrc" in cats  # RRC state residency spans
        assert "evaluation" in cats  # per-day replay wall spans


class _BoomPolicy:
    """Picklable policy that always fails (module-level for the pool)."""

    name = "boom"
    day_independent = False

    def execute_day(self, day):
        raise RuntimeError("kaboom")


class _DropOnePolicy:
    """Picklable policy whose outcome loses the day's first activity."""

    name = "lossy"
    day_independent = False

    def execute_day(self, day):
        return PolicyOutcome(policy=self.name, activities=list(day.activities[1:]))


class TestErrorAttribution:
    def _task(self, volunteers, wcdma, n_days=2):
        _, days = split_history(volunteers[0], 10)
        return PolicyTask(
            name=f"{volunteers[0].user_id}/boom",
            policy=_BoomPolicy(),
            days=tuple(days[:n_days]),
            model=wcdma,
        )

    def test_error_names_task_day_and_policy(self, volunteers, wcdma):
        task = self._task(volunteers, wcdma)
        with pytest.raises(PolicyTaskError) as exc_info:
            run_policy_tasks([task], jobs=1)
        msg = str(exc_info.value)
        assert task.name in msg
        assert "day 1/2" in msg
        assert "_BoomPolicy" in msg
        assert "RuntimeError: kaboom" in msg

    def test_error_survives_worker_pool(self, volunteers, wcdma):
        """PolicyTaskError must cross the process boundary intact and not
        be swallowed by the runner's serial-fallback net."""
        ok_task = PolicyTask(
            name="ok",
            policy=NaivePolicy(),
            days=self._task(volunteers, wcdma).days,
            model=wcdma,
        )
        with pytest.raises(PolicyTaskError, match="boom"):
            run_policy_tasks(
                [ok_task, self._task(volunteers, wcdma)], jobs=2
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pricing_error_names_the_cell(self, volunteers, wcdma, jobs):
        """A cell that fails pricing (payload not conserved) is named
        like one that fails executing, serial or fanned out."""
        _, days = split_history(volunteers[0], 10)
        ok_task = PolicyTask(
            name="ok", policy=NaivePolicy(), days=tuple(days[:2]), model=wcdma
        )
        lossy_task = PolicyTask(
            name=f"{volunteers[0].user_id}/lossy",
            policy=_DropOnePolicy(),
            days=tuple(days[:2]),
            model=wcdma,
        )
        with pytest.raises(PolicyTaskError) as exc_info:
            run_policy_tasks([ok_task, lossy_task], jobs=jobs)
        msg = str(exc_info.value)
        assert lossy_task.name in msg
        assert "day 1/2" in msg
        assert "_DropOnePolicy" in msg
        assert "ValueError: lossy: payload not conserved" in msg

    def test_policy_task_error_is_not_runtime_error(self):
        # the fallback net catches RuntimeError; task failures must not be
        assert not issubclass(PolicyTaskError, RuntimeError)
