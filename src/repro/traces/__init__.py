"""Trace substrate: event model, personas, generator, store, analysis.

This package replaces the paper's on-phone trace collection.  See
``DESIGN.md`` for the substitution rationale.
"""

from repro.traces.analysis import (
    ScreenUtilization,
    TrafficSplit,
    active_app_share,
    app_intensity,
    cohort_traffic_split,
    cohort_utilization,
    rate_cdf,
    rate_percentile,
    rate_values,
    screen_utilization,
    traffic_split,
)
from repro.traces.apps import AppCatalog, AppModel, default_catalog
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession, Trace
from repro.traces.generator import TraceGenerator, generate_cohort, generate_volunteers
from repro.traces.store import TraceStore, WriteCache
from repro.traces.users import (
    UserProfile,
    default_profiles,
    intensity_profile,
    volunteer_profiles,
)

__all__ = [
    "AppCatalog",
    "AppModel",
    "AppUsage",
    "NetworkActivity",
    "ScreenSession",
    "ScreenUtilization",
    "Trace",
    "TraceGenerator",
    "TraceStore",
    "TrafficSplit",
    "UserProfile",
    "WriteCache",
    "active_app_share",
    "app_intensity",
    "cohort_traffic_split",
    "cohort_utilization",
    "default_catalog",
    "default_profiles",
    "generate_cohort",
    "generate_volunteers",
    "intensity_profile",
    "rate_cdf",
    "rate_percentile",
    "rate_values",
    "screen_utilization",
    "traffic_split",
]
