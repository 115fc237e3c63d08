"""The reference count of affected user interactions.

The delay and batch baselines once counted, per interaction, whether it
started inside any hold window by scanning every window — O(U·H) for U
interactions and H windows.  :func:`repro._util.count_in_windows`
replaced that scan; the scan stays here as its oracle.
"""

from __future__ import annotations


def scan_count(times, windows) -> int:
    """How many of ``times`` fall in at least one ``[lo, hi)`` of ``windows``."""
    windows = list(windows)
    return sum(1 for t in times if any(lo <= t < hi for lo, hi in windows))
