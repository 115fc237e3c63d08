"""Tests for hour-level intensity matrices.

The usage matrices are shipped (the Pearson analysis reads them).  The
screen-use, network and day-type matrices live in the habit oracle; the
cases below pin the hour-binning rules the fitted model must follow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import DAY
from repro.habits import usage_intensity_matrix, usage_intensity_vector
from repro.traces import ScreenSession, Trace

from tests.habits.habit_oracle import (
    network_bytes_matrix,
    network_intensity_matrix,
    screen_use_matrix,
    split_by_daytype,
)


class TestUsageMatrices:
    def test_counts_by_cell(self, tiny_trace):
        matrix = usage_intensity_matrix(tiny_trace)
        assert matrix.shape == (1, 24)
        assert matrix[0, 0] == 1.0 and matrix[0, 2] == 1.0
        assert matrix.sum() == 2.0

    def test_vector_sums_days(self, two_day_trace):
        vec = usage_intensity_vector(two_day_trace)
        assert vec.shape == (24,)
        assert vec.sum() == 2.0

    def test_empty_trace(self):
        trace = Trace(user_id="e", n_days=2, start_weekday=0)
        assert usage_intensity_matrix(trace).sum() == 0.0


class TestScreenUseMatrix:
    def test_binary_indicator(self, tiny_trace):
        matrix = screen_use_matrix(tiny_trace)
        assert set(np.unique(matrix)) <= {0.0, 1.0}
        assert matrix[0, 0] == 1.0 and matrix[0, 2] == 1.0

    def test_session_spanning_hours(self):
        trace = Trace(
            user_id="s",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(3500.0, 7300.0)],
        )
        matrix = screen_use_matrix(trace)
        assert matrix[0, 0] == matrix[0, 1] == matrix[0, 2] == 1.0
        assert matrix[0, 3] == 0.0

    def test_session_crossing_midnight(self):
        trace = Trace(
            user_id="m",
            n_days=2,
            start_weekday=0,
            screen_sessions=[ScreenSession(DAY - 30.0, DAY + 30.0)],
        )
        matrix = screen_use_matrix(trace)
        assert matrix[0, 23] == 1.0 and matrix[1, 0] == 1.0

    def test_exact_hour_boundary_end(self):
        trace = Trace(
            user_id="b",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(3000.0, 3600.0)],
        )
        matrix = screen_use_matrix(trace)
        assert matrix[0, 0] == 1.0
        assert matrix[0, 1] == 0.0  # ends exactly at the boundary


class TestNetworkMatrices:
    def test_screen_off_only(self, tiny_trace):
        matrix = network_intensity_matrix(tiny_trace, screen_off_only=True)
        assert matrix.sum() == 2.0
        assert matrix[0, 1] == 1.0  # email at 3600 s
        assert matrix[0, 13] == 1.0  # facebook at 50000 s

    def test_all_activities(self, tiny_trace):
        assert network_intensity_matrix(tiny_trace, screen_off_only=False).sum() == 4.0

    def test_bytes_matrix(self, tiny_trace):
        matrix = network_bytes_matrix(tiny_trace, screen_off_only=True)
        assert matrix[0, 1] == pytest.approx(2500.0)
        assert matrix[0, 13] == pytest.approx(1800.0)


class TestDayTypeSplit:
    def test_split_rows(self, two_day_trace):
        matrix = usage_intensity_matrix(two_day_trace)
        weekday, weekend = split_by_daytype(matrix, two_day_trace)
        assert weekday.shape == (1, 24)  # Friday
        assert weekend.shape == (1, 24)  # Saturday

    def test_rejects_row_mismatch(self, two_day_trace):
        with pytest.raises(ValueError, match="rows"):
            split_by_daytype(np.zeros((3, 24)), two_day_trace)
