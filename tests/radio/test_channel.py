"""Tests for the time-varying channel model."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import DAY
from repro.radio import ChannelModel, best_window, transfer_energy_multiplier


def samples(channel: ChannelModel) -> np.ndarray:
    """The channel's quality samples: the mean over each ``resolution_s``."""
    step = channel.resolution_s
    return np.array([
        channel.mean_quality(i * step, (i + 1) * step) for i in range(int(DAY / step))
    ])


class TestChannelModel:
    def test_quality_bounded(self):
        channel = ChannelModel(seed=1, min_quality=0.3)
        assert samples(channel).min() >= 0.3 - 1e-12
        assert samples(channel).max() <= 1.0 + 1e-12

    def test_deterministic(self):
        a, b = ChannelModel(seed=2), ChannelModel(seed=2)
        assert np.allclose(samples(a), samples(b))
        assert not np.allclose(samples(a), samples(ChannelModel(seed=3)))

    def test_quality_wraps_at_midnight(self):
        channel = ChannelModel(seed=1)
        assert channel.mean_quality(DAY + 100.0, DAY + 700.0) == channel.mean_quality(
            100.0, 700.0
        )

    def test_energy_factor_inverse_to_quality(self):
        channel = ChannelModel(seed=4)
        t_best = float(np.argmax(samples(channel))) * channel.resolution_s
        t_worst = float(np.argmin(samples(channel))) * channel.resolution_s
        assert transfer_energy_multiplier(
            channel, t_best, channel.resolution_s
        ) < transfer_energy_multiplier(channel, t_worst, channel.resolution_s)

    def test_mean_quality(self):
        channel = ChannelModel(seed=1)
        full = channel.mean_quality(0.0, DAY)
        assert samples(channel).min() <= full <= samples(channel).max()

    def test_mean_quality_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(seed=1).mean_quality(100.0, 100.0)

    def test_min_quality_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(min_quality=0.0)


class TestBestWindow:
    def test_finds_peak_region(self):
        channel = ChannelModel(seed=7)
        start, end = best_window(channel, 600.0)
        assert end - start == pytest.approx(600.0)
        chosen = channel.mean_quality(start, end)
        # Better than the day average by construction.
        assert chosen >= channel.mean_quality(0.0, DAY)

    def test_respects_range(self):
        channel = ChannelModel(seed=7)
        start, end = best_window(channel, 300.0, within=(3600.0, 7200.0))
        assert 3600.0 <= start and end <= 7200.0 + channel.resolution_s

    def test_window_too_long(self):
        channel = ChannelModel(seed=7)
        with pytest.raises(ValueError, match="longer"):
            best_window(channel, 7200.0, within=(0.0, 3600.0))

    def test_transfer_energy_multiplier_bounds(self):
        channel = ChannelModel(seed=7, min_quality=0.25)
        m = transfer_energy_multiplier(channel, 1000.0, 60.0)
        assert 1.0 <= m <= 1.75 + 1e-9
