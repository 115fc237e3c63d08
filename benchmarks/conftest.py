"""Benchmark harness configuration.

Every benchmark in this directory regenerates one of the paper's tables
or figures: it times the experiment driver with pytest-benchmark and then
prints the same rows/series the paper reports (with the paper's headline
number alongside), so

    pytest benchmarks/ --benchmark-only -s

doubles as the full results reproduction.  Printing happens through the
``report`` fixture so the output survives pytest's capture when ``-s`` is
not given (``--capture=no`` equivalents are not required; pytest shows
the captured block for each benchmark at the end with ``-rA``).
"""

from __future__ import annotations

import pytest

from repro.runtime.cache import default_cache
from repro.traces.generator import generate_cohort, generate_volunteers


@pytest.fixture(scope="session", autouse=True)
def warm_trace_cache():
    """Pre-generate the standard cohorts once per benchmark session.

    Every figure benchmark starts by regenerating the same profiling
    cohort (21 days, seed 2014) or volunteer cohort (14 days, seed 43).
    Generating them once here primes the in-process trace cache,
    so the per-benchmark cost collapses to a cache hit and the timings
    measure the experiment drivers, not cohort synthesis.
    """
    cache = default_cache()
    was_enabled = cache.enabled
    cache.enabled = True
    generate_cohort(21, seed=2014)
    generate_cohort(7, seed=2014)  # fig5's shorter window
    generate_volunteers(14, seed=43)
    yield
    cache.enabled = was_enabled


@pytest.fixture(scope="session")
def profiling_cohort(warm_trace_cache):
    """The paper's 8-user, 3-week profiling cohort (cache-served)."""
    return generate_cohort(21, seed=2014)


@pytest.fixture(scope="session")
def volunteer_cohort(warm_trace_cache):
    """The 3 evaluation volunteers of Section VI (cache-served)."""
    return generate_volunteers(14, seed=43)


@pytest.fixture
def report(capsys):
    """Print a formatted experiment report, bypassing capture."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _report
