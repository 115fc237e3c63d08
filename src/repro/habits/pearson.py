"""Pearson-correlation habit analysis (paper Eq. (1), Figs. 3-4).

The paper's two key observations both rest on the Pearson parameter of
24-dimensional hourly intensity vectors:

* across *different users* the average correlation is low (0.1353) — no
  one-size-fits-all delay/batch interval exists;
* across *days of the same user* it is high (0.54 average, 0.8171 for
  user 4) — a single user's habit is predictable.
"""

from __future__ import annotations

import numpy as np

from repro.traces.events import Trace
from repro.habits.intensity import usage_intensity_matrix, usage_intensity_vector


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """The Pearson parameter ρ of two equal-length vectors (Eq. (1)).

    Degenerate inputs (zero variance on either side) return 0.0 — a
    constant usage vector carries no pattern to correlate with.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 dimensions")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        return 0.0
    return float((dx * dy).sum() / denom)


def pairwise_matrix(vectors: list[np.ndarray]) -> np.ndarray:
    """Symmetric matrix of Pearson parameters between all vector pairs."""
    n = len(vectors)
    matrix = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            rho = pearson(vectors[i], vectors[j])
            matrix[i, j] = matrix[j, i] = rho
    return matrix


def mean_offdiagonal(matrix: np.ndarray) -> float:
    """Average of the off-diagonal entries (the figures' "Avg" number)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    if n < 2:
        return 0.0
    mask = ~np.eye(n, dtype=bool)
    return float(matrix[mask].mean())


def cross_user_matrix(traces: list[Trace]) -> np.ndarray:
    """Fig. 3: Pearson matrix of the users' total hourly usage vectors."""
    vectors = [usage_intensity_vector(t) for t in traces]
    return pairwise_matrix(vectors)


def day_matrix(trace: Trace, *, n_days: int | None = None) -> np.ndarray:
    """Fig. 4: day-by-day Pearson matrix of one user's hourly intensity.

    ``n_days`` limits the analysis to the first days (the paper shows an
    8×8 matrix for user 4).
    """
    matrix = usage_intensity_matrix(trace)
    if n_days is not None:
        matrix = matrix[:n_days]
    return pairwise_matrix([matrix[d] for d in range(matrix.shape[0])])


def intra_user_average(trace: Trace) -> float:
    """One user's average day-to-day Pearson (paper: 0.54 cohort mean)."""
    return mean_offdiagonal(day_matrix(trace))
