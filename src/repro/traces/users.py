"""User personas: the habit structure behind trace generation.

The paper bases its analysis on 8 users (ages 20-30, different professions)
whose hour-level usage patterns are *distinct across users* (cross-user
Pearson ≈ 0.14, Fig. 3) but *stable day-to-day for the same user*
(intra-user Pearson ≈ 0.54-0.82, Fig. 4).  Each :class:`UserProfile` here
encodes one such habit: an hourly session-intensity curve for weekdays and
weekends, session-length statistics, and the user's personal app mix.

Three additional "volunteer" personas model the evaluation subjects of
Section VI, held out from the 8 profiling users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import HOURS_PER_DAY, check_fraction, check_positive
from repro.traces.apps import AppCatalog, default_catalog


def intensity_profile(
    peaks: list[tuple[float, float, float]], base: float = 0.0
) -> np.ndarray:
    """Build a 24-hour intensity curve from Gaussian bumps.

    Each peak is ``(center_hour, height, width_hours)``; heights are
    expected screen-on sessions per hour at the peak.  The curve wraps
    around midnight so late-night personas behave sensibly.
    """
    hours = np.arange(HOURS_PER_DAY, dtype=np.float64)
    curve = np.full(HOURS_PER_DAY, float(base))
    for center, height, width in peaks:
        check_positive("peak height", height, strict=False)
        check_positive("peak width", width)
        delta = np.minimum(np.abs(hours - center), HOURS_PER_DAY - np.abs(hours - center))
        curve += height * np.exp(-0.5 * (delta / width) ** 2)
    return curve


@dataclass
class UserProfile:
    """Static description of one user's smartphone habit.

    Parameters
    ----------
    user_id:
        Stable identifier (``"user1"`` .. ``"user8"``, ``"volunteer1"`` ..).
    description:
        Human-readable persona summary.
    weekday_intensity, weekend_intensity:
        Length-24 arrays of expected screen-on sessions per hour.
    session_median_s, session_sigma:
        Log-normal session-duration parameters (median seconds, log-sigma).
    fg_utilization:
        Mean fraction of a session's duration covered by its network
        transfer when one occurs (drives the ~45% radio-utilization ratio
        of Fig. 2).
    day_jitter:
        Log-normal sigma of the per-day multiplicative intensity noise;
        larger values lower the intra-user day-to-day Pearson correlation.
    day_shift_sigma_h:
        Std-dev (hours) of a per-day circular time shift of the whole
        intensity curve — "I had lunch late today".  Spreads the hourly
        usage probabilities Pr[u(t_i)] into the mid range, which is what
        makes the δ threshold trade-off of Fig. 10(c) non-trivial.
    bg_scale:
        Multiplier on every app's background sync interval for this user
        (>1 means rarer background traffic).
    catalog:
        The user's installed apps (defaults to :func:`default_catalog`).
    """

    user_id: str
    description: str
    weekday_intensity: np.ndarray
    weekend_intensity: np.ndarray
    session_median_s: float = 14.0
    session_sigma: float = 0.5
    fg_utilization: float = 0.62
    day_jitter: float = 0.18
    day_shift_sigma_h: float = 0.6
    bg_scale: float = 1.0
    catalog: AppCatalog = field(default_factory=default_catalog)

    def __post_init__(self) -> None:
        self.weekday_intensity = np.asarray(self.weekday_intensity, dtype=np.float64)
        self.weekend_intensity = np.asarray(self.weekend_intensity, dtype=np.float64)
        for name, arr in (
            ("weekday_intensity", self.weekday_intensity),
            ("weekend_intensity", self.weekend_intensity),
        ):
            if arr.shape != (HOURS_PER_DAY,):
                raise ValueError(f"{name} must have shape (24,), got {arr.shape}")
            if (arr < 0).any():
                raise ValueError(f"{name} must be non-negative")
        check_positive("session_median_s", self.session_median_s)
        check_positive("session_sigma", self.session_sigma, strict=False)
        check_fraction("fg_utilization", self.fg_utilization)
        check_positive("day_jitter", self.day_jitter, strict=False)
        check_positive("day_shift_sigma_h", self.day_shift_sigma_h, strict=False)
        check_positive("bg_scale", self.bg_scale)

    def intensity_for(self, weekend: bool) -> np.ndarray:
        """The hourly intensity curve for a weekday or weekend day."""
        return self.weekend_intensity if weekend else self.weekday_intensity


def _persona(
    user_id: str,
    description: str,
    weekday_peaks: list[tuple[float, float, float]],
    weekend_peaks: list[tuple[float, float, float]],
    *,
    base: float = 0.04,
    weekend_base: float | None = None,
    intensity_scale: float = 1.4,
    **kwargs,
) -> UserProfile:
    return UserProfile(
        user_id=user_id,
        description=description,
        weekday_intensity=intensity_scale * intensity_profile(weekday_peaks, base),
        weekend_intensity=intensity_scale
        * intensity_profile(weekend_peaks, base if weekend_base is None else weekend_base),
        **kwargs,
    )


def default_profiles() -> list[UserProfile]:
    """The 8 profiling users of Sections III-IV.

    Peak placements are deliberately spread over the day so the cross-user
    Pearson matrix is weak (paper: avg 0.1353) while each persona's
    day-to-day correlation stays strong (paper: avg 0.54 across users).
    """
    return [
        _persona(
            "user1",
            "office worker: commute, lunch and evening peaks",
            [(8.0, 6.0, 0.8), (12.5, 5.0, 0.7), (20.0, 7.0, 1.5)],
            [(10.0, 4.0, 1.5), (15.0, 3.0, 1.5), (21.0, 5.0, 1.5)],
            session_median_s=7.5,
        ),
        _persona(
            "user2",
            "student: mid-morning, afternoon and late-night peaks",
            [(10.0, 5.0, 1.0), (16.0, 4.0, 1.0), (23.0, 7.0, 1.2)],
            [(13.0, 5.0, 2.0), (23.5, 7.0, 1.2)],
            session_median_s=6.5,
        ),
        _persona(
            "user3",
            "messaging-heavy socialite: noon and long evening peaks",
            [(12.0, 6.0, 1.0), (21.0, 9.0, 2.0)],
            [(12.0, 5.0, 1.5), (22.0, 9.0, 2.0)],
            session_median_s=6.5,
            bg_scale=0.8,
        ),
        _persona(
            "user4",
            "early bird: dawn, noon and dusk peaks, asleep by 22",
            [(6.5, 9.0, 0.8), (12.0, 5.5, 0.8), (18.0, 7.0, 1.0)],
            [(7.5, 6.0, 1.0), (12.0, 5.0, 1.0), (18.0, 5.0, 1.0)],
            session_median_s=5.0,
            day_jitter=0.10,
            day_shift_sigma_h=0.2,
        ),
        _persona(
            "user5",
            "commuter: sharp morning/evening commute peaks",
            [(7.5, 9.0, 0.6), (18.5, 9.0, 0.8), (21.5, 3.0, 1.0)],
            [(11.0, 4.0, 2.0), (20.0, 4.0, 2.0)],
            session_median_s=10.0,
        ),
        _persona(
            "user6",
            "homebody: broad flat daytime usage",
            [(14.0, 4.5, 4.0)],
            [(14.0, 5.0, 4.5)],
            base=0.08,
            session_median_s=12.0,
            day_jitter=0.22,
        ),
        _persona(
            "user7",
            "night owl: afternoon start, heavy after midnight",
            [(15.0, 4.0, 1.5), (0.5, 8.0, 1.5)],
            [(16.0, 4.0, 2.0), (1.0, 8.0, 1.5)],
            session_median_s=12.0,
        ),
        _persona(
            "user8",
            "minimalist: sparse morning/evening check-ins",
            [(9.0, 2.5, 1.0), (21.0, 2.5, 1.0)],
            [(10.0, 2.0, 1.5), (20.0, 2.0, 1.5)],
            base=0.05,
            session_median_s=5.5,
            bg_scale=1.6,
        ),
    ]


def volunteer_profiles() -> list[UserProfile]:
    """The 3 evaluation volunteers of Section VI (held-out personas)."""
    return [
        _persona(
            "volunteer1",
            "graduate student: erratic but evening-weighted usage",
            [(11.0, 4.0, 1.5), (17.0, 3.0, 1.5), (22.0, 6.0, 1.5)],
            [(14.0, 4.0, 2.5), (22.5, 6.0, 1.5)],
            day_jitter=0.25,
            session_median_s=7.0,
        ),
        _persona(
            "volunteer2",
            "salesperson: on the phone through business hours",
            [(9.5, 6.0, 2.5), (14.5, 6.0, 2.5), (19.0, 4.0, 1.5)],
            [(11.0, 3.0, 2.0), (19.0, 3.0, 2.0)],
            session_median_s=9.0,
            bg_scale=0.9,
        ),
        _persona(
            "volunteer3",
            "retiree: light regular usage, morning news and evening chats",
            [(7.5, 3.5, 1.0), (13.0, 2.0, 1.0), (19.5, 4.0, 1.2)],
            [(8.0, 3.5, 1.0), (19.5, 4.0, 1.5)],
            base=0.08,
            session_median_s=10.0,
            day_jitter=0.15,
            bg_scale=1.3,
        ),
    ]
