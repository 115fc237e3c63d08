"""Habit-driven synthetic trace generation.

This is the stand-in for the paper's 3-week, 8-user trace collection.  A
:class:`TraceGenerator` turns a :class:`~repro.traces.users.UserProfile`
into a concrete multi-day :class:`~repro.traces.events.Trace`:

* screen-on sessions arrive as an inhomogeneous Poisson process whose
  hourly rate follows the persona's weekday/weekend intensity curve, with
  per-day multiplicative jitter (this produces the high intra-user /
  low cross-user Pearson structure of Figs. 3-4);
* each session runs one foreground app drawn from the persona's catalog
  and, with that app's probability, one network transfer covering roughly
  ``fg_utilization`` of the session (Fig. 2's ~45% radio utilization);
* background apps sync as independent Poisson processes around the clock;
  syncs landing outside screen sessions become the deferrable screen-off
  traffic that NetMaster targets (Fig. 1(a)'s ~41% share).

Everything is driven by a single seeded :class:`numpy.random.Generator`,
so traces are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import DAY, HOUR, HOURS_PER_DAY, as_rng, is_weekend
from repro.traces.apps import AppModel
from repro.traces.events import AppUsage, NetworkActivity, ScreenSession, Trace
from repro.traces.users import UserProfile, default_profiles, volunteer_profiles

#: Minimum gap enforced between consecutive screen sessions (seconds).
_MIN_SESSION_GAP = 2.0

#: Minimum duration of any generated transfer (seconds).
_MIN_TRANSFER_S = 0.5

#: Mean interval between background sync-cluster anchors (seconds).
_BG_CLUSTER_INTERVAL_S = 1800.0

#: Width of the window inside which clustered syncs scatter (seconds).
_BG_CLUSTER_JITTER_S = 90.0


@dataclass
class TraceGenerator:
    """Generates reproducible synthetic traces for one user profile."""

    profile: UserProfile
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        self._rng = as_rng(self.seed)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, n_days: int, *, start_weekday: int = 0) -> Trace:
        """Generate an ``n_days`` trace starting on ``start_weekday``.

        ``start_weekday`` follows :mod:`datetime` convention (Monday=0).
        """
        if n_days <= 0:
            raise ValueError(f"n_days must be > 0, got {n_days}")
        rng = self._rng
        sessions: list[ScreenSession] = []
        usages: list[AppUsage] = []
        activities: list[NetworkActivity] = []

        spill_floor = 0.0
        for day in range(n_days):
            weekend = is_weekend(day, start_weekday)
            day_sessions = self._generate_sessions(
                rng, day, weekend, n_days, spill_floor
            )
            sessions.extend(day_sessions)
            if day_sessions:
                spill_floor = day_sessions[-1].end
            day_usages, day_fg = self._generate_foreground(rng, day_sessions)
            usages.extend(day_usages)
            activities.extend(day_fg)

        trace_sessions = sorted(sessions, key=lambda s: s.start)
        activities.extend(
            self._generate_background(rng, trace_sessions, n_days)
        )
        return Trace(
            user_id=self.profile.user_id,
            n_days=n_days,
            start_weekday=start_weekday,
            screen_sessions=trace_sessions,
            usages=usages,
            activities=activities,
        )

    # ------------------------------------------------------------------
    # screen sessions
    # ------------------------------------------------------------------
    def _generate_sessions(
        self,
        rng: np.random.Generator,
        day: int,
        weekend: bool,
        n_days: int,
        spill_floor: float = 0.0,
    ) -> list[ScreenSession]:
        profile = self.profile
        base = profile.intensity_for(weekend)
        if profile.day_shift_sigma_h > 0:
            shift = float(rng.normal(0.0, profile.day_shift_sigma_h))
            base = _circular_shift(base, shift)
        jitter = np.exp(rng.normal(0.0, profile.day_jitter, HOURS_PER_DAY))
        lam = base * jitter
        horizon = n_days * DAY

        starts: list[float] = []
        for hour in range(HOURS_PER_DAY):
            count = int(rng.poisson(lam[hour]))
            if count:
                offsets = rng.uniform(0.0, HOUR, count)
                starts.extend(day * DAY + hour * HOUR + offsets)
        starts.sort()

        sessions: list[ScreenSession] = []
        cursor = day * DAY
        for start in starts:
            # ``spill_floor`` is where the previous day's last session
            # ended — it can reach into this day.  Floor at it exactly
            # (no extra gap, touching sessions are valid) so only draws
            # that would overlap are moved; every other trace is
            # bit-identical to the pre-floor generator.
            start = max(start, cursor + _MIN_SESSION_GAP, spill_floor)
            duration = float(
                profile.session_median_s * np.exp(rng.normal(0.0, profile.session_sigma))
            )
            duration = max(2.0, duration)
            end = min(start + duration, horizon)
            if end <= start or start >= horizon:
                continue
            sessions.append(ScreenSession(float(start), float(end)))
            cursor = end
        return sessions

    # ------------------------------------------------------------------
    # foreground usage & traffic
    # ------------------------------------------------------------------
    def _generate_foreground(
        self, rng: np.random.Generator, sessions: list[ScreenSession]
    ) -> tuple[list[AppUsage], list[NetworkActivity]]:
        profile = self.profile
        usages: list[AppUsage] = []
        activities: list[NetworkActivity] = []
        for session in sessions:
            app = profile.catalog.sample_foreground(rng)
            usages.append(AppUsage(session.start, app.name, session.duration))
            if rng.random() >= app.fg_net_prob:
                continue
            # Utilization fraction jitters around the persona mean but is
            # clipped away from 0/1 so rates stay finite.
            frac = float(np.clip(rng.normal(profile.fg_utilization, 0.15), 0.1, 0.95))
            duration = max(_MIN_TRANSFER_S, frac * session.duration)
            duration = min(duration, session.duration)
            latest = session.end - duration
            start = session.start if latest <= session.start else float(
                rng.uniform(session.start, latest)
            )
            rate = app.sample_fg_rate(rng)
            total = rate * duration
            activities.append(
                NetworkActivity(
                    time=start,
                    app=app.name,
                    down_bytes=total * (1.0 - app.upload_fraction),
                    up_bytes=total * app.upload_fraction,
                    duration=duration,
                    screen_on=True,
                )
            )
        return usages, activities

    # ------------------------------------------------------------------
    # background traffic
    # ------------------------------------------------------------------
    def _generate_background(
        self,
        rng: np.random.Generator,
        sessions: list[ScreenSession],
        n_days: int,
    ) -> list[NetworkActivity]:
        """Cluster-anchored background sync generation.

        Real background traffic is temporally correlated: push services and
        sync alarms wake several apps within a short burst.  We draw
        cluster *anchors* as a Poisson process and let each background app
        participate in an anchor with probability ``anchor_interval /
        app_interval`` (jittered inside the cluster window), which keeps
        each app's expected daily sync count identical to an independent
        Poisson process while producing the bursts that make interval-
        based delay/batch aggregation (Figs. 8-9) meaningful at all.
        """
        profile = self.profile
        horizon = n_days * DAY
        activities: list[NetworkActivity] = []
        lookup = _SessionLookup(sessions)
        bg_apps = profile.catalog.background_apps()
        if not bg_apps:
            return activities

        anchor_interval = _BG_CLUSTER_INTERVAL_S
        participation = {
            app.name: min(
                1.0,
                anchor_interval / (float(app.background_interval_s) * profile.bg_scale),
            )
            for app in bg_apps
        }
        t = float(rng.exponential(anchor_interval))
        while t < horizon:
            for app in bg_apps:
                if rng.random() >= participation[app.name]:
                    continue
                start = float(t) + float(rng.uniform(0.0, _BG_CLUSTER_JITTER_S))
                if start >= horizon:
                    continue
                duration = min(app.sample_bg_duration(rng), horizon - start)
                if duration < _MIN_TRANSFER_S:
                    continue
                rate = app.sample_bg_rate(rng)
                total = rate * duration
                activities.append(
                    NetworkActivity(
                        time=start,
                        app=app.name,
                        down_bytes=total * (1.0 - app.upload_fraction),
                        up_bytes=total * app.upload_fraction,
                        duration=duration,
                        screen_on=bool(lookup.screen_on_at(start)),
                    )
                )
            t += float(rng.exponential(anchor_interval))
        return activities


def _circular_shift(curve: np.ndarray, shift_h: float) -> np.ndarray:
    """Shift a 24-hour curve by a fractional number of hours (wrapping)."""
    hours = np.arange(HOURS_PER_DAY, dtype=np.float64)
    src = (hours - shift_h) % HOURS_PER_DAY
    lo = np.floor(src).astype(int) % HOURS_PER_DAY
    hi = (lo + 1) % HOURS_PER_DAY
    frac = src - np.floor(src)
    return (1.0 - frac) * curve[lo] + frac * curve[hi]


class _SessionLookup:
    """O(log n) screen-state lookup over sorted, disjoint sessions."""

    def __init__(self, sessions: list[ScreenSession]) -> None:
        self._starts = np.array([s.start for s in sessions], dtype=np.float64)
        self._ends = np.array([s.end for s in sessions], dtype=np.float64)

    def screen_on_at(self, time_s: float) -> bool:
        idx = int(np.searchsorted(self._starts, time_s, side="right")) - 1
        return idx >= 0 and time_s < self._ends[idx]


def generate_cohort(
    n_days: int = 21,
    *,
    seed: int = 2014,
    start_weekday: int = 0,
) -> list[Trace]:
    """Generate the 8-user, 3-week profiling cohort of the paper.

    Each user gets an independent child seed derived from ``seed`` so the
    cohort is reproducible as a whole yet users are statistically
    independent.

    Generation is fully deterministic, so results are served from the
    in-process :mod:`repro.runtime.cache` when the same persona set,
    integer seed, ``n_days`` and ``start_weekday`` were built before in
    this process.  Cache hits are bit-identical to a fresh generation,
    return independent ``Trace`` objects and build no personas.
    """
    return _generate(n_days, seed, start_weekday, "default")


def generate_volunteers(
    n_days: int = 14,
    *,
    seed: int = 43,
    start_weekday: int = 0,
) -> list[Trace]:
    """Generate traces for the 3 evaluation volunteers of Section VI."""
    return _generate(n_days, seed, start_weekday, "volunteers")


def _generate(
    n_days: int, seed: int, start_weekday: int, persona_set: str
) -> list[Trace]:
    """Generate (or serve from the cache) a built-in persona set's cohort:
    ``"default"`` (:func:`default_profiles`) or ``"volunteers"``
    (:func:`volunteer_profiles`)."""

    def build() -> list[Trace]:
        from repro.telemetry import metrics, tracer

        personas = (
            default_profiles() if persona_set == "default" else volunteer_profiles()
        )
        with tracer().span(
            "generate-cohort", "traces", users=len(personas), days=n_days
        ):
            root = np.random.SeedSequence(seed)
            children = root.spawn(len(personas))
            cohort = [
                TraceGenerator(profile, np.random.default_rng(child)).generate(
                    n_days, start_weekday=start_weekday
                )
                for profile, child in zip(personas, children)
            ]
        reg = metrics()
        if reg.enabled:
            reg.inc("traces.generator.cohorts")
            reg.inc("traces.generator.traces", len(cohort))
        return cohort

    # Imported lazily so the trace substrate has no hard runtime-package
    # dependency at import time.
    from repro.runtime.cache import default_cache

    cache = default_cache()
    # A seed that is not an integer (``None`` draws OS entropy) is never
    # cached: no key could name the cohort it builds.
    if not cache.enabled or not isinstance(seed, (int, np.integer)):
        return build()
    key = (persona_set, int(seed), int(n_days), int(start_weekday))
    return cache.get_or_generate(key, build)
