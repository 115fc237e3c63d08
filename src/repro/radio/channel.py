"""Time-varying channel model (the paper's future-work item).

Section VI-A notes NetMaster "doesn't increase the peak rate... the peak
rate is determined by the channel state, no matter what scheduling scheme
is used. We include this part in our future work."  The obvious follow-up
— scheduling deferrable transfers into *good-channel* windows, à la
Bartendr (Schulman et al., MobiCom'10) — needs a channel substrate, which
this module provides:

* a smooth, seeded signal-quality process over the day (sum of slow
  sinusoids plus a daily commute dip, mimicking mobility-driven RSSI
  swings);
* a per-byte energy multiplier over a transfer window (bad signal
  costs more transmit power per byte, per Ding et al., SIGMETRICS'13);
* :func:`best_window` — the greedy good-channel window picker a
  channel-aware scheduler uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, as_rng, check_positive


@dataclass
class ChannelModel:
    """A deterministic (seeded) signal-quality process over one day.

    Quality is a value in [0, 1]; 1 means the nominal link bandwidth and
    nominal per-byte energy, lower quality scales bandwidth down and
    transmit energy up.
    """

    seed: int | np.random.Generator | None = 0
    n_components: int = 4
    min_quality: float = 0.25
    resolution_s: float = 60.0

    def __post_init__(self) -> None:
        check_positive("resolution_s", self.resolution_s)
        if not 0.0 < self.min_quality <= 1.0:
            raise ValueError(f"min_quality must be in (0, 1], got {self.min_quality}")
        rng = as_rng(self.seed)
        n = int(DAY / self.resolution_s)
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        signal = np.zeros(n)
        for k in range(1, self.n_components + 1):
            amplitude = float(rng.uniform(0.2, 1.0)) / k
            phase = float(rng.uniform(0.0, 2 * np.pi))
            signal += amplitude * np.sin(k * t + phase)
        # Normalize into [min_quality, 1].
        signal = (signal - signal.min()) / max(float(np.ptp(signal)), 1e-12)
        self._grid = self.min_quality + (1.0 - self.min_quality) * signal

    def mean_quality(self, start: float, end: float) -> float:
        """Average quality over ``[start, end)`` (seconds-of-day)."""
        if end <= start:
            raise ValueError(f"need start < end, got [{start}, {end}]")
        lo = int(start / self.resolution_s)
        hi = max(lo + 1, int(np.ceil(end / self.resolution_s)))
        idx = np.arange(lo, hi) % self._grid.size
        return float(self._grid[idx].mean())


def best_window(
    channel: ChannelModel,
    window_s: float,
    *,
    within: tuple[float, float] = (0.0, DAY),
) -> tuple[float, float]:
    """The ``window_s``-long window of best average quality in ``within``.

    Greedy sliding-window maximum over the channel grid — what a
    channel-aware scheduler uses to place a deferred batch inside a
    user-active slot.
    """
    check_positive("window_s", window_s)
    start, end = within
    if end - start < window_s:
        raise ValueError(
            f"window_s={window_s} longer than the search range {within}"
        )
    step = channel.resolution_s
    best_start = start
    best_quality = -1.0
    t = start
    while t + window_s <= end + 1e-9:
        quality = channel.mean_quality(t, t + window_s)
        if quality > best_quality:
            best_quality = quality
            best_start = t
        t += step
    return best_start, best_start + window_s


def transfer_energy_multiplier(
    channel: ChannelModel, start: float, duration_s: float
) -> float:
    """Mean per-byte energy multiplier over a transfer window.

    Bad signal roughly doubles the per-byte cost at the floor quality
    (linear interpolation, following the measured RSSI-vs-drain trend
    of Ding et al.).
    """
    return 2.0 - channel.mean_quality(start, start + duration_s)
