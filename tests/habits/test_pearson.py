"""Tests for the Pearson-parameter analysis (Eq. (1))."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.habits import (
    cross_user_matrix,
    day_matrix,
    intra_user_average,
    mean_offdiagonal,
    pairwise_matrix,
    pearson,
)


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(24, dtype=float)
        assert pearson(x, 2 * x + 5) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(24, dtype=float)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.normal(size=24), rng.normal(size=24)
            expected = scipy_stats.pearsonr(x, y).statistic
            assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_returns_zero(self):
        assert pearson(np.ones(24), np.arange(24.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            pearson(np.ones(24), np.ones(23))

    def test_too_short(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            pearson(np.ones(1), np.ones(1))

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=5, max_size=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, values):
        rng = np.random.default_rng(0)
        x = np.asarray(values)
        y = rng.normal(size=x.size)
        assert -1.0 - 1e-9 <= pearson(x, y) <= 1.0 + 1e-9


class TestMatrices:
    def test_pairwise_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        vectors = [rng.normal(size=24) for _ in range(5)]
        matrix = pairwise_matrix(vectors)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_mean_offdiagonal(self):
        matrix = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert mean_offdiagonal(matrix) == pytest.approx(0.5)

    def test_mean_offdiagonal_singleton(self):
        assert mean_offdiagonal(np.ones((1, 1))) == 0.0

    def test_mean_offdiagonal_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            mean_offdiagonal(np.ones((2, 3)))


class TestPaperStructure:
    """Figs. 3-4: cross-user correlation low, intra-user high."""

    def test_cross_user_matrix_shape(self, cohort):
        assert cross_user_matrix(cohort).shape == (8, 8)

    def test_cross_user_low(self, cohort):
        assert mean_offdiagonal(cross_user_matrix(cohort)) < 0.35  # paper: 0.1353

    def test_intra_user_high(self, cohort):
        averages = [intra_user_average(t) for t in cohort]
        assert np.mean(averages) > 0.35  # paper: 0.54

    def test_intra_beats_cross(self, cohort):
        cross = mean_offdiagonal(cross_user_matrix(cohort))
        intra = np.mean([intra_user_average(t) for t in cohort])
        assert intra > cross + 0.2

    def test_day_matrix_window(self, cohort):
        matrix = day_matrix(cohort[3], n_days=5)
        assert matrix.shape == (5, 5)
