"""Shared fixtures: small deterministic traces and radio models.

Expensive artifacts (multi-day cohorts, trained middleware) are
session-scoped; anything a test mutates gets a fresh function-scoped
copy.
"""

from __future__ import annotations

import pytest

from repro._util import DAY
from repro.radio import lte_model, wcdma_model
from repro.runtime.parallel import shutdown_shared_runners
from repro.traces import (
    AppUsage,
    NetworkActivity,
    ScreenSession,
    Trace,
    generate_cohort,
    generate_volunteers,
)
from repro.evaluation import split_history


@pytest.fixture(autouse=True)
def _close_shared_pools():
    """Shared worker pools outlive the run that opened them; release
    them (and wait for their workers) after every test."""
    yield
    shutdown_shared_runners()


@pytest.fixture(scope="session")
def wcdma():
    """The default WCDMA power model."""
    return wcdma_model()


@pytest.fixture(scope="session")
def lte():
    """The LTE power model."""
    return lte_model()


@pytest.fixture(scope="session")
def cohort():
    """The 8-user, 7-day profiling cohort (shorter than the paper's 21
    days to keep the suite fast; calibration tests use their own)."""
    return generate_cohort(7, seed=2014)


@pytest.fixture(scope="session")
def volunteers():
    """The 3 evaluation volunteers over 14 days."""
    return generate_volunteers(14, seed=43)


@pytest.fixture(scope="session")
def volunteer(volunteers):
    """One volunteer trace."""
    return volunteers[0]


@pytest.fixture(scope="session")
def history_and_days(volunteer):
    """A 10-day history prefix and the held-out single days."""
    return split_history(volunteer, 10)


@pytest.fixture(scope="session")
def history(history_and_days):
    """The training prefix."""
    return history_and_days[0]


@pytest.fixture(scope="session")
def test_day(history_and_days):
    """One held-out single-day trace."""
    return history_and_days[1][0]


@pytest.fixture
def tiny_trace():
    """A hand-built 1-day trace with known structure.

    Two sessions (100-130 s and 7200-7260 s), one foreground transfer in
    each, and two screen-off background syncs at 3600 s and 50000 s.
    """
    sessions = [ScreenSession(100.0, 130.0), ScreenSession(7200.0, 7260.0)]
    usages = [
        AppUsage(100.0, "com.tencent.mm", 30.0),
        AppUsage(7200.0, "browser", 60.0),
    ]
    activities = [
        NetworkActivity(105.0, "com.tencent.mm", 9000.0, 1000.0, 10.0, True),
        NetworkActivity(3600.0, "com.android.email", 2000.0, 500.0, 5.0, False),
        NetworkActivity(7210.0, "browser", 40000.0, 4000.0, 20.0, True),
        NetworkActivity(50000.0, "com.facebook.katana", 1500.0, 300.0, 4.0, False),
    ]
    return Trace(
        user_id="tiny",
        n_days=1,
        start_weekday=0,
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )


@pytest.fixture
def two_day_trace():
    """A 2-day trace (Mon+Sat boundary) for day-type splitting tests."""
    sessions = [
        ScreenSession(3600.0, 3630.0),
        ScreenSession(DAY + 7200.0, DAY + 7230.0),
    ]
    usages = [
        AppUsage(3600.0, "com.tencent.mm", 30.0),
        AppUsage(DAY + 7200.0, "browser", 30.0),
    ]
    activities = [
        NetworkActivity(3605.0, "com.tencent.mm", 1000.0, 100.0, 5.0, True),
        NetworkActivity(40000.0, "com.android.email", 800.0, 80.0, 4.0, False),
        NetworkActivity(DAY + 7205.0, "browser", 1200.0, 120.0, 6.0, True),
    ]
    return Trace(
        user_id="twoday",
        n_days=2,
        start_weekday=4,  # Friday, so day 1 is Saturday
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )
