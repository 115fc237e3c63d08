"""Hour-level usage intensity — the input of the Pearson analysis.

The paper's mining component works entirely at the hour level ("usage
intensity": total times of usage in an hour).  This module converts traces
into ``(n_days, 24)`` usage-count matrices and 24-dimensional vectors
(Figs. 3-4).  The habit model's own hour statistics are folded by
:class:`~repro.stream.online_habits.OnlineHabitModel`.
"""

from __future__ import annotations

import numpy as np

from repro._util import HOURS_PER_DAY
from repro.traces.events import Trace


def usage_intensity_matrix(trace: Trace) -> np.ndarray:
    """``(n_days, 24)`` counts of foreground app usages per day-hour."""
    matrix = np.zeros((trace.n_days, HOURS_PER_DAY), dtype=np.float64)
    if trace.usages:
        days = trace.usage_day_bins()
        hours = trace.usage_hour_bins()
        np.add.at(matrix, (days, hours), 1.0)
    return matrix


def usage_intensity_vector(trace: Trace) -> np.ndarray:
    """24-dim total usage intensity over the whole trace (Fig. 3 input)."""
    return usage_intensity_matrix(trace).sum(axis=0)
