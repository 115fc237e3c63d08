"""Process-parallel fan-out for the evaluation pipeline.

The Section-VI experiments are embarrassingly parallel: every
``(policy, held-out day)`` cell of the evaluation grid is independent,
and all task inputs (policies, single-day traces, radio models) are
plain picklable dataclasses.  :class:`ParallelRunner` fans such grids
over a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
three guarantees the figure reproductions rely on:

* **deterministic ordering** — results come back in task-submission
  order (``Executor.map`` semantics), so floating-point reductions sum
  in exactly the serial order and outputs stay bit-identical;
* **graceful fallback** — ``jobs=1``, a single task, or a pool that
  cannot be created/kept alive (sandboxed environments, fork limits)
  all degrade to the plain serial loop;
* **picklable task descriptors** — the worker entry points live at
  module top level and tasks are frozen dataclasses, so the grid works
  under every start method, not just ``fork``.

Worker processes inherit nothing mutable from the parent: each task
carries its full inputs, traces included, pickled by value.  That is
what makes the fan-out safe to use from tests, benchmarks and the CLI
alike.
"""

from __future__ import annotations

import atexit
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pickle import PicklingError
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.baselines.policy import PolicyOutcome, SchedulingPolicy
from repro.core import batch
from repro.radio.power import RadioPowerModel
from repro.traces.events import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.evaluation.metrics import PolicyDayMetrics

T = TypeVar("T")
R = TypeVar("R")

_POOL_ERRORS = (
    OSError,
    AttributeError,  # local/lambda callables fail pickling this way
    BrokenProcessPool,
    PicklingError,
    RuntimeError,
)


class ParallelRunner:
    """Order-preserving map over a process pool with serial fallback.

    ``jobs=1`` (the default) runs the plain serial loop; ``jobs>1``
    dispatches to a :class:`ProcessPoolExecutor` with ``jobs`` workers.
    If the pool cannot be created or breaks mid-run the whole batch is
    re-run serially — tasks are pure functions of their inputs, so the
    retry is safe and the results identical.  ``fallbacks`` counts how
    often that happened (observability for constrained environments).

    The pool (and its initialized workers — imported modules, forked
    caches) is created by the first parallel :meth:`map` and kept alive
    across later calls, so multi-phase sweeps pay process start-up once;
    call :meth:`close` (or let interpreter exit do it) to release the
    workers.
    """

    def __init__(self, jobs: int = 1) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.fallbacks = 0
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, results in input order."""
        tasks = list(items)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        try:
            # An unpicklable callable fails here, before any work is
            # queued: a pickling failure in the pool's feeder thread can
            # deadlock the shutdown in close() (CPython's manager thread
            # swaps its pending-work table while the feeder still pops
            # failed items from the old one).
            pickle.dumps(fn)
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return list(self._pool.map(fn, tasks))
        except _POOL_ERRORS:
            # Pool unavailable (sandbox, fork limit, no /dev/shm), the
            # callable not picklable, or a worker died: fall back to the
            # serial loop.  A genuine task exception of these types also
            # lands here, and the serial rerun re-raises it unchanged.
            self.fallbacks += 1
            self.close()
            return [fn(task) for task in tasks]

    def close(self) -> None:
        """Shut down the pool and wait for its workers to exit (a later
        map recreates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


_shared_runners: dict[int, ParallelRunner] = {}


def shared_runner(jobs: int) -> ParallelRunner:
    """The process-wide runner for ``jobs`` workers.

    Grid fan-outs share these pools across sweep phases (fig7 → fig8 →
    …), so worker start-up and module import costs are paid once per
    process, not once per figure.
    """
    runner = _shared_runners.get(jobs)
    if runner is None:
        runner = ParallelRunner(jobs)
        _shared_runners[jobs] = runner
    return runner


def shutdown_shared_runners() -> None:
    """Release every shared pool (idempotent)."""
    for runner in _shared_runners.values():
        runner.close()
    _shared_runners.clear()


atexit.register(shutdown_shared_runners)


# ----------------------------------------------------------------------
# picklable task descriptors + module-level workers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyTask:
    """One cell of the evaluation grid: a policy over some held-out days."""

    name: str
    policy: SchedulingPolicy
    days: tuple[Trace, ...]
    model: RadioPowerModel


class PolicyTaskError(Exception):
    """A specific grid cell failed; the message names the cell.

    Inherits :class:`Exception` directly (not :class:`RuntimeError`) so
    :meth:`ParallelRunner.map`'s pool-failure fallback never mistakes a
    genuine task failure for a broken pool and re-runs the whole grid.
    Built with a single string argument so it survives pickling back
    from a worker process intact.
    """


def _cell_label(task: PolicyTask, day_index: int) -> str:
    return f"{task.name}:d{day_index + 1}"


def _cell_error(task: PolicyTask, day_index: int, exc: BaseException) -> PolicyTaskError:
    return PolicyTaskError(
        f"policy task {task.name!r} failed on day {day_index + 1}/{len(task.days)} "
        f"(policy {type(task.policy).__name__}): {type(exc).__name__}: {exc}"
    )


def _execute_task(task: PolicyTask) -> list[PolicyOutcome]:
    """Worker: execute a policy over its days, returning raw outcomes."""
    from repro.telemetry import tracer

    trc = tracer()
    out: list[PolicyOutcome] = []
    for i, day in enumerate(task.days):
        with trc.sim_context(_cell_label(task, i)), trc.span(
            "replay-day", "evaluation", track=f"replay/{task.name}", day=i + 1
        ):
            try:
                out.append(task.policy.execute_day(day))
            except PolicyTaskError:
                raise
            except Exception as exc:
                raise _cell_error(task, i, exc) from exc
    return out


# ----------------------------------------------------------------------
# chunked dispatch
# ----------------------------------------------------------------------


def _execute_chunk(chunk: Sequence[PolicyTask]) -> list[list[PolicyOutcome]]:
    return [_execute_task(task) for task in chunk]


def _shipped(fn: Callable[[T], R], payload: T, *, with_tracing: bool):
    """Worker wrapper: run ``fn`` under a fresh registry/tracer and ship
    the result together with the captured telemetry.

    ``telemetry.isolated`` guarantees the capture covers exactly this
    payload even when ``fork`` hands the worker a copy of the parent's
    half-filled registry.
    """
    from repro import telemetry

    with telemetry.isolated(with_tracing=with_tracing) as (registry, trc):
        result = fn(payload)
        return result, registry.snapshot(), trc.export_spans()


def map_shipped(fn: Callable[[T], R], payloads: Sequence[T], jobs: int) -> list[R]:
    """``fn`` over ``payloads`` on the shared pool, results in order.

    With telemetry on, each worker's snapshot and spans merge back **in
    payload order**, which reproduces the serial registry exactly (see
    :mod:`repro.telemetry.registry`).
    """
    from repro import telemetry

    registry = telemetry.metrics()
    trc = telemetry.tracer()
    runner = shared_runner(jobs)
    if not (registry.enabled or trc.enabled):
        return runner.map(fn, payloads)
    shipped = partial(_shipped, fn, with_tracing=trc.enabled)
    results: list[R] = []
    for result, snap, spans in runner.map(shipped, payloads):
        registry.merge_snapshot(snap)
        trc.ingest(spans)
        results.append(result)
    return results


def execute_policy_tasks(
    tasks: Sequence[PolicyTask], *, jobs: int = 1
) -> list[list[PolicyOutcome]]:
    """Execute every task's days, returning raw day outcomes in task order.

    Serial runs use the process-global registry and tracer.  Parallel
    runs split the grid into one chunk per worker (one pool submission
    per chunk, not per cell) and dispatch over the shared pool through
    :func:`map_shipped`, shipping worker telemetry back when it is
    enabled.  A failing cell raises :class:`PolicyTaskError` naming the
    task, day and policy.
    """
    from repro import telemetry

    registry = telemetry.metrics()
    registry.inc("runtime.parallel.tasks", len(tasks))
    registry.inc("runtime.parallel.days", sum(len(t.days) for t in tasks))

    if jobs == 1 or len(tasks) <= 1:
        return [_execute_task(task) for task in tasks]

    size = math.ceil(len(tasks) / jobs)
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    registry.inc("runner.chunk_count", len(chunks))
    return [r for chunk in map_shipped(_execute_chunk, chunks, jobs) for r in chunk]


def run_policy_tasks(
    tasks: Sequence[PolicyTask], *, jobs: int = 1
) -> list[list[PolicyDayMetrics]]:
    """Execute a grid of :class:`PolicyTask` and price every cell.

    Days execute through :func:`execute_policy_tasks` (serial or fanned
    over ``jobs`` workers); the parent then prices all (outcome, day)
    cells in one lane batch per distinct power model.  Returns one
    metrics list per task, in task order — the same rows as calling
    :func:`repro.evaluation.metrics.run_policy_over_days` once per task.
    Each cell's RRC spans land on its own ``<task>:d<day>`` track.  A
    failing cell raises :class:`PolicyTaskError` naming the task, day
    and policy.
    """
    outcomes = execute_policy_tasks(tasks, jobs=jobs)
    cells = [
        (task, i, outcome)
        for task, outs in zip(tasks, outcomes)
        for i, outcome in enumerate(outs)
    ]
    # One lane batch per distinct model (RadioPowerModel is frozen and
    # hashable); grids are usually single-model, so this is one pass.
    by_model: dict[RadioPowerModel, list[int]] = {}
    for k, (task, _, _) in enumerate(cells):
        by_model.setdefault(task.model, []).append(k)
    flat: list[PolicyDayMetrics | None] = [None] * len(cells)
    for model, idxs in by_model.items():
        priced = _price_cells([cells[k] for k in idxs], model)
        for k, m in zip(idxs, priced):
            flat[k] = m
    rows = iter(flat)
    return [list(islice(rows, len(task.days))) for task in tasks]


def _price_cells(
    cells: Sequence[tuple[PolicyTask, int, PolicyOutcome]], model: RadioPowerModel
) -> list[PolicyDayMetrics]:
    """Price ``(task, day index, outcome)`` cells in one batch."""
    pairs = [(outcome, task.days[i]) for task, i, outcome in cells]
    try:
        return batch.measure_outcomes_columnar(
            pairs, model, sim_contexts=[_cell_label(task, i) for task, i, _ in cells]
        )
    except Exception:
        # Cells price independently, so the first one that fails alone
        # is the one that failed the batch: name it.
        for (task, i, _), pair in zip(cells, pairs):
            try:
                batch.measure_outcomes_columnar([pair], model)
            except Exception as exc:
                raise _cell_error(task, i, exc) from exc
        raise
