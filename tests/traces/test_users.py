"""Unit tests for user personas and intensity profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import (
    UserProfile,
    default_profiles,
    volunteer_profiles,
)
from repro.traces.users import intensity_profile


class TestIntensityProfile:
    def test_shape_and_base(self):
        curve = intensity_profile([], base=0.5)
        assert curve.shape == (24,)
        assert np.allclose(curve, 0.5)

    def test_peak_location(self):
        curve = intensity_profile([(9.0, 5.0, 1.0)])
        assert int(curve.argmax()) == 9

    def test_midnight_wrap(self):
        curve = intensity_profile([(0.5, 5.0, 1.5)])
        # Hour 23 is only 1.5h from the peak centre; hour 12 is far.
        assert curve[23] > curve[12]

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            intensity_profile([(9.0, -1.0, 1.0)])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            intensity_profile([(9.0, 1.0, 0.0)])


class TestUserProfile:
    def _profile(self, **kw):
        defaults = dict(
            user_id="u",
            description="test",
            weekday_intensity=np.ones(24),
            weekend_intensity=np.full(24, 0.5),
        )
        defaults.update(kw)
        return UserProfile(**defaults)

    def test_intensity_for(self):
        p = self._profile()
        assert p.intensity_for(weekend=False).sum() == pytest.approx(24.0)
        assert p.intensity_for(weekend=True).sum() == pytest.approx(12.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            self._profile(weekday_intensity=np.ones(23))

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._profile(weekend_intensity=-np.ones(24))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("session_median_s", 0.0),
            ("fg_utilization", 1.5),
            ("day_jitter", -0.1),
            ("day_shift_sigma_h", -1.0),
            ("bg_scale", 0.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            self._profile(**{field: value})


class TestBuiltinPersonas:
    def test_eight_profiling_users(self):
        profiles = default_profiles()
        assert len(profiles) == 8
        assert [p.user_id for p in profiles] == [f"user{i}" for i in range(1, 9)]

    def test_three_volunteers(self):
        vols = volunteer_profiles()
        assert len(vols) == 3
        assert all(p.user_id.startswith("volunteer") for p in vols)

    def test_personas_have_distinct_peaks(self):
        peaks = [int(p.weekday_intensity.argmax()) for p in default_profiles()]
        # The personas were designed to spread over the day.
        assert len(set(peaks)) >= 5

    def test_daily_session_counts_plausible(self):
        for profile in default_profiles():
            total = float(profile.intensity_for(False).sum())
            assert 15.0 < total < 150.0, profile.user_id

    def test_night_hours_are_quiet(self):
        # "Near zero usage from 2am to 6am" (paper Section IV-C1), except
        # for the night-owl persona.
        for profile in default_profiles():
            if profile.user_id == "user7":  # night owl, by design
                continue
            assert profile.weekday_intensity[3:5].max() < 0.5, profile.user_id
