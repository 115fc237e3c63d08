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
carries its full inputs, which is what makes the fan-out safe to use
from tests, benchmarks and the CLI alike.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pickle import PicklingError
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.baselines.policy import PolicyOutcome, SchedulingPolicy
from repro.radio.power import RadioPowerModel
from repro.runtime.cache import TraceRef, default_cache, read_disk_cohort
from repro.traces.events import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.evaluation.metrics import PolicyDayMetrics

T = TypeVar("T")
R = TypeVar("R")

#: Environment knob: fixed number of tasks per worker submission.  Unset
#: (the default) splits the grid into one chunk per worker.
CHUNK_ENV = "REPRO_PARALLEL_CHUNK"

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

    ``persistent=True`` keeps the pool (and its initialized workers —
    imported modules, forked caches) alive across :meth:`map` calls, so
    multi-phase sweeps pay process start-up once; call :meth:`close` (or
    let interpreter exit do it) to release the workers.
    """

    def __init__(
        self, jobs: int = 1, *, chunksize: int = 1, persistent: bool = False
    ) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.jobs = jobs
        self.chunksize = int(chunksize)
        self.persistent = bool(persistent)
        self.fallbacks = 0
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, results in input order."""
        tasks = list(items)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        try:
            if self.persistent:
                pool = self._ensure_pool()
                return list(pool.map(fn, tasks, chunksize=self.chunksize))
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks))
            ) as pool:
                return list(pool.map(fn, tasks, chunksize=self.chunksize))
        except _POOL_ERRORS:
            # Pool unavailable (sandbox, fork limit, no /dev/shm), the
            # callable not picklable, or a worker died: fall back to the
            # serial loop.  A genuine task exception of these types also
            # lands here, and the serial rerun re-raises it unchanged.
            self.fallbacks += 1
            self.close()
            return [fn(task) for task in tasks]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (a later map recreates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


_shared_runners: dict[int, ParallelRunner] = {}


def shared_runner(jobs: int) -> ParallelRunner:
    """The process-wide persistent runner for ``jobs`` workers.

    Grid fan-outs share these pools across sweep phases (fig7 → fig8 →
    …), so worker start-up and module import costs are paid once per
    process, not once per figure.
    """
    runner = _shared_runners.get(jobs)
    if runner is None:
        runner = ParallelRunner(jobs, persistent=True)
        _shared_runners[jobs] = runner
    return runner


def shutdown_shared_runners() -> None:
    """Release every shared persistent pool (idempotent)."""
    for runner in _shared_runners.values():
        runner.close()
    _shared_runners.clear()


atexit.register(shutdown_shared_runners)


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], *, jobs: int = 1
) -> list[R]:
    """One-shot :meth:`ParallelRunner.map` convenience wrapper."""
    return ParallelRunner(jobs).map(fn, items)


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


def _measure_task(task: PolicyTask) -> list[PolicyDayMetrics]:
    """Worker: execute and price a policy over its days, in order."""
    # Imported here, not at module top: repro.evaluation pulls in this
    # module (experiments/robustness fan their grids through it), so a
    # top-level import would be circular.
    from repro.evaluation.metrics import measure_outcome
    from repro.telemetry import tracer

    trc = tracer()
    out: list[PolicyDayMetrics] = []
    for i, day in enumerate(task.days):
        with trc.sim_context(_cell_label(task, i)), trc.span(
            "replay-day", "evaluation", track=f"replay/{task.name}", day=i + 1
        ):
            try:
                out.append(
                    measure_outcome(task.policy.execute_day(day), task.model, day)
                )
            except PolicyTaskError:
                raise
            except Exception as exc:
                raise _cell_error(task, i, exc) from exc
    return out


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
# content-addressed trace shipping + chunked dispatch
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _DayHandle:
    """Content-addressed stand-in for one day trace in a shipped task.

    Workers resolve the handle against the on-disk trace store: the
    cohort JSONL is read once per worker process (see ``_WORKER_COHORTS``)
    instead of pickling the same trace into every grid cell.
    """

    cache_dir: str
    key: str
    user_index: int
    day_index: int | None


@dataclass(frozen=True)
class _WireTask:
    """A :class:`PolicyTask` with day traces replaced by handles where
    the on-disk store can serve them."""

    name: str
    policy: SchedulingPolicy
    days: tuple  # of Trace | _DayHandle
    model: RadioPowerModel


#: Per-worker-process cohort memo: (cache_dir, key) → loaded traces.
_WORKER_COHORTS: dict[tuple[str, str], list[Trace]] = {}


def _to_wire(tasks: Sequence[PolicyTask]) -> list[_WireTask]:
    """Swap shippable day traces for content-addressed handles.

    A day is shipped by reference only when it carries provenance (a
    ``cache_ref`` tag from ``generate_cohort``/``day_view``) *and* the
    default cache's on-disk store is confirmed to hold the cohort —
    otherwise the trace travels inline, exactly as before.
    """
    cache = default_cache()
    cache_dir = cache.cache_dir
    on_disk: dict[str, bool] = {}

    def handle_for(day: Trace) -> _DayHandle | None:
        if cache_dir is None or not cache.enabled:
            return None
        ref = getattr(day, "cache_ref", None)
        if not isinstance(ref, TraceRef):
            return None
        if ref.key not in on_disk:
            on_disk[ref.key] = cache.has_disk_entry(ref.key)
        if not on_disk[ref.key]:
            return None
        return _DayHandle(
            cache_dir=str(cache_dir),
            key=ref.key,
            user_index=ref.user_index,
            day_index=ref.day_index,
        )

    return [
        _WireTask(
            name=task.name,
            policy=task.policy,
            days=tuple(handle_for(day) or day for day in task.days),
            model=task.model,
        )
        for task in tasks
    ]


def _rehydrate_day(handle: _DayHandle) -> Trace:
    """Worker side: resolve a handle against the on-disk trace store.

    Keeps telemetry untouched (no cache counters, no spans) so shipped
    and inline runs merge to identical registries.
    """
    memo_key = (handle.cache_dir, handle.key)
    cohort = _WORKER_COHORTS.get(memo_key)
    if cohort is None:
        cohort = read_disk_cohort(handle.cache_dir, handle.key)
        if cohort is None:
            raise PolicyTaskError(
                f"trace cache entry {handle.key[:12]}… disappeared from "
                f"{handle.cache_dir}; cannot rehydrate shipped policy task"
            )
        _WORKER_COHORTS[memo_key] = cohort
    trace = cohort[handle.user_index]
    if handle.day_index is None:
        return trace
    return trace.day_view(handle.day_index)


def _rebuild_task(wire: _WireTask) -> PolicyTask:
    return PolicyTask(
        name=wire.name,
        policy=wire.policy,
        days=tuple(
            _rehydrate_day(day) if isinstance(day, _DayHandle) else day
            for day in wire.days
        ),
        model=wire.model,
    )


def _run_chunk(
    chunk: Sequence[_WireTask], fn: Callable[[PolicyTask], R]
) -> list[R]:
    return [fn(_rebuild_task(wire)) for wire in chunk]


def _measure_chunk(chunk: Sequence[_WireTask]):
    return _run_chunk(chunk, _measure_task)


def _execute_chunk(chunk: Sequence[_WireTask]):
    return _run_chunk(chunk, _execute_task)


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


def _chunk_size(n_tasks: int, jobs: int) -> int:
    """Tasks per submission: one chunk per worker unless overridden."""
    env = os.environ.get(CHUNK_ENV, "").strip()
    if env:
        try:
            size = int(env)
        except ValueError:
            raise ValueError(
                f"{CHUNK_ENV} must be a positive integer, got {env!r}"
            ) from None
        if size < 1:
            raise ValueError(f"{CHUNK_ENV} must be >= 1, got {size}")
        return size
    return math.ceil(n_tasks / jobs)


def _fan_out(
    tasks: Sequence[PolicyTask],
    plain_fn: Callable[[PolicyTask], R],
    chunk_fn: Callable[[Sequence[_WireTask]], list[R]],
    jobs: int,
) -> list[R]:
    """Run a grid, shipping worker telemetry back when it is enabled.

    Serial runs use ``plain_fn`` against the process-global registry and
    tracer.  Parallel runs split the grid into worker-chunks (one pool
    submission per chunk, not per cell), swap day traces for
    content-addressed handles where the on-disk store can serve them,
    and dispatch over the shared persistent pool through
    :func:`map_shipped`.
    """
    from repro import telemetry

    registry = telemetry.metrics()
    registry.inc("runtime.parallel.tasks", len(tasks))
    registry.inc("runtime.parallel.days", sum(len(t.days) for t in tasks))

    if jobs == 1 or len(tasks) <= 1:
        return [plain_fn(task) for task in tasks]

    wire = _to_wire(tasks)
    size = _chunk_size(len(wire), jobs)
    chunks = [wire[i : i + size] for i in range(0, len(wire), size)]
    registry.inc("runner.chunk_count", len(chunks))
    return [r for chunk in map_shipped(chunk_fn, chunks, jobs) for r in chunk]


def run_policy_tasks(
    tasks: Sequence[PolicyTask], *, jobs: int = 1
) -> list[list[PolicyDayMetrics]]:
    """Fan a grid of :class:`PolicyTask` over ``jobs`` workers.

    Returns one metrics list per task, in task order — the parallel twin
    of calling :func:`repro.evaluation.metrics.run_policy_over_days`
    once per task.  A failing cell raises :class:`PolicyTaskError`
    naming the task, day and policy.
    """
    return _fan_out(tasks, _measure_task, _measure_chunk, jobs)


def execute_policy_tasks(
    tasks: Sequence[PolicyTask], *, jobs: int = 1
) -> list[list[PolicyOutcome]]:
    """Like :func:`run_policy_tasks` but returning raw day outcomes
    (for pipelines that post-process outcomes, e.g. fault injection)."""
    return _fan_out(tasks, _execute_task, _execute_chunk, jobs)
