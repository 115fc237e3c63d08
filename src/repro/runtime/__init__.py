"""Runtime layer: trace caching and process-parallel experiment fan-out.

``repro.runtime`` makes the evaluation pipeline cache-aware and parallel
end to end:

* :mod:`repro.runtime.cache` — an in-process LRU of generated cohorts
  keyed by (persona_set, seed, n_days, start_weekday);
* :mod:`repro.runtime.parallel` — :class:`ParallelRunner` and picklable
  :class:`PolicyTask` descriptors fanning the (user × day × policy)
  evaluation grid over a process pool with deterministic ordering;
* :mod:`repro.runtime.bench` — the perf benchmark harness behind
  ``BENCH_perf.json`` (cold/warm cohort generation, 1-vs-N-worker policy
  sweeps, FPTAS solve batches).
"""

from repro.runtime.cache import (
    CacheStats,
    TraceCache,
    cache_stats,
    clear_cache,
    configure_cache,
    default_cache,
)
from repro.runtime.parallel import (
    ParallelRunner,
    PolicyTask,
    PolicyTaskError,
    execute_policy_tasks,
    run_policy_tasks,
)

__all__ = [
    "CacheStats",
    "ParallelRunner",
    "PolicyTask",
    "PolicyTaskError",
    "TraceCache",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "default_cache",
    "execute_policy_tasks",
    "run_policy_tasks",
]
