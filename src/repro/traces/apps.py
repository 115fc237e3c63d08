"""Application catalog and per-app behaviour models.

The paper's traces contain ~23 installed apps per phone of which only a
handful ("Special Apps", Fig. 5) are actually used and generate network
traffic; background services sync periodically even with the screen off.
This module provides a parameterized :class:`AppModel` plus a default
catalog whose names follow the packages visible in the paper's Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_fraction, check_positive


@dataclass(frozen=True, slots=True)
class AppModel:
    """Static behaviour description of one application.

    Parameters
    ----------
    name:
        Android-style package name.
    foreground_weight:
        Relative probability mass of this app being the one used in a
        screen-on session (0 disables foreground use).
    fg_net_prob:
        Probability that a foreground use triggers a network activity.
    fg_rate_median_bps, fg_rate_sigma:
        Log-normal parameters of the foreground transfer rate in
        bytes/second (median and log-space sigma).
    fg_rate_cap_bps:
        Channel peak rate; sampled foreground rates are clipped here.
    background_interval_s:
        Mean interval between background syncs while the screen is off;
        ``None`` disables background traffic for this app.
    bg_rate_median_bps, bg_rate_sigma:
        Log-normal rate parameters for background transfers.
    bg_duration_mean_s:
        Mean duration of one background transfer (exponential).
    upload_fraction:
        Fraction of transferred bytes that are uplink.
    """

    name: str
    foreground_weight: float = 0.0
    fg_net_prob: float = 0.75
    fg_rate_median_bps: float = 1200.0
    fg_rate_sigma: float = 0.9
    fg_rate_cap_bps: float = 24000.0
    background_interval_s: float | None = None
    bg_rate_median_bps: float = 250.0
    bg_rate_sigma: float = 0.9
    bg_duration_mean_s: float = 6.0
    upload_fraction: float = 0.2

    def __post_init__(self) -> None:
        check_positive("foreground_weight", self.foreground_weight, strict=False)
        check_fraction("fg_net_prob", self.fg_net_prob)
        check_positive("fg_rate_median_bps", self.fg_rate_median_bps)
        check_positive("fg_rate_sigma", self.fg_rate_sigma, strict=False)
        check_positive("fg_rate_cap_bps", self.fg_rate_cap_bps)
        if self.background_interval_s is not None:
            check_positive("background_interval_s", self.background_interval_s)
        check_positive("bg_rate_median_bps", self.bg_rate_median_bps)
        check_positive("bg_duration_mean_s", self.bg_duration_mean_s)
        check_fraction("upload_fraction", self.upload_fraction)

    @property
    def has_background(self) -> bool:
        """Whether this app produces screen-off background traffic."""
        return self.background_interval_s is not None

    def sample_fg_rate(self, rng: np.random.Generator) -> float:
        """Draw a foreground transfer rate (bytes/second), channel-capped.

        The cap makes the *observed peak* rate of a trace sit at the
        channel limit — which is why no scheduler can raise peak rates in
        Fig. 7(c).
        """
        rate = self.fg_rate_median_bps * np.exp(rng.normal(0.0, self.fg_rate_sigma))
        return float(min(rate, self.fg_rate_cap_bps))

    def sample_bg_rate(self, rng: np.random.Generator) -> float:
        """Draw a background transfer rate (bytes/second)."""
        return float(
            self.bg_rate_median_bps * np.exp(rng.normal(0.0, self.bg_rate_sigma))
        )

    def sample_bg_duration(self, rng: np.random.Generator) -> float:
        """Draw a background transfer duration (seconds, >= 0.5)."""
        return float(max(0.5, rng.exponential(self.bg_duration_mean_s)))


@dataclass
class AppCatalog:
    """A set of installed applications with weighted foreground sampling."""

    apps: list[AppModel] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [a.name for a in self.apps]
        if len(names) != len(set(names)):
            raise ValueError("duplicate app names in catalog")

    def __len__(self) -> int:
        return len(self.apps)

    def __iter__(self):
        return iter(self.apps)

    def foreground_apps(self) -> list[AppModel]:
        """Apps with nonzero foreground weight."""
        return [a for a in self.apps if a.foreground_weight > 0]

    def background_apps(self) -> list[AppModel]:
        """Apps generating screen-off background traffic."""
        return [a for a in self.apps if a.has_background]

    def sample_foreground(self, rng: np.random.Generator) -> AppModel:
        """Draw the app used in a screen-on session, by foreground weight."""
        candidates = self.foreground_apps()
        if not candidates:
            raise ValueError("catalog has no foreground apps")
        weights = np.array([a.foreground_weight for a in candidates], dtype=np.float64)
        weights /= weights.sum()
        idx = int(rng.choice(len(candidates), p=weights))
        return candidates[idx]


def default_catalog() -> AppCatalog:
    """The 23-app catalog used by the default user personas.

    Mirrors the structure visible in the paper's Fig. 5: one dominant
    messaging app (``com.tencent.mm`` ≈ 59% of usage for user 3), a few
    frequently used utilities, and a long tail of installed-but-unused
    packages.  Background sync intervals give the ~41% screen-off traffic
    share of Fig. 1(a) at the default persona intensities.
    """
    active = [
        AppModel(
            "com.tencent.mm",
            foreground_weight=10.0,
            fg_net_prob=0.85,
            background_interval_s=6400.0,
            bg_duration_mean_s=5.0,
        ),
        AppModel(
            "browser",
            foreground_weight=2.2,
            fg_net_prob=0.95,
            fg_rate_median_bps=1800.0,
            fg_rate_sigma=1.3,
        ),
        AppModel(
            "com.sinovatech.unicom.ui",
            foreground_weight=1.0,
            fg_net_prob=0.7,
            background_interval_s=41000.0,
        ),
        AppModel("com.android.contacts", foreground_weight=1.2, fg_net_prob=0.1),
        AppModel("com.android.phone", foreground_weight=1.5, fg_net_prob=0.05),
        AppModel(
            "com.google.docs",
            foreground_weight=0.6,
            fg_net_prob=0.8,
            background_interval_s=31000.0,
        ),
        AppModel("com.android.settings", foreground_weight=0.5, fg_net_prob=0.1),
        AppModel(
            "wali.miui.networkassistant",
            foreground_weight=0.4,
            fg_net_prob=0.6,
            background_interval_s=31000.0,
        ),
        AppModel(
            "com.android.email",
            foreground_weight=0.0,
            background_interval_s=18000.0,
            bg_duration_mean_s=4.0,
        ),
        AppModel(
            "com.facebook.katana",
            foreground_weight=0.0,
            background_interval_s=18000.0,
        ),
    ]
    dormant_names = [
        "com.android.calendar",
        "com.android.calculator2",
        "com.android.camera",
        "com.android.gallery3d",
        "com.android.music",
        "com.android.deskclock",
        "com.android.quicksearchbox",
        "com.android.soundrecorder",
        "com.android.providers.downloads.ui",
        "com.miui.notes",
        "com.miui.weather",
        "com.miui.compass",
        "com.miui.fm",
    ]
    dormant = [AppModel(name) for name in dormant_names]
    return AppCatalog(active + dormant)
