"""Shared small utilities used across the :mod:`repro` packages.

The helpers here are deliberately tiny: argument validation with uniform
error messages, seeded random-generator coercion, and a couple of time
constants used by every subsystem.  Keeping them in one module avoids the
slightly-different-everywhere drift that otherwise creeps into large
simulation codebases.
"""

from __future__ import annotations

import bisect
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

#: Seconds per hour.
HOUR: float = 3600.0

#: Seconds per day.
DAY: float = 86400.0

#: Number of hour bins used by every hour-level habit analysis.
HOURS_PER_DAY: int = 24

#: Weekday indices (Monday=0) that count as the weekend.
WEEKEND_DAYS: frozenset[int] = frozenset({5, 6})


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for fresh OS entropy.  All stochastic components in the library
    accept the same union so experiments can be made reproducible by passing
    a single integer at the top level.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative).

    Raises :class:`ValueError` with a uniform message otherwise; returns the
    value so it can be used inline in constructors.
    """
    value = float(value)
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_interval(start: float, end: float, *, name: str = "interval") -> None:
    """Validate that ``start <= end``."""
    if start > end:
        raise ValueError(f"{name} must have start <= end, got [{start}, {end}]")


def weekday_of(day_index: int, start_weekday: int) -> int:
    """Weekday (Monday=0 .. Sunday=6) of trace day ``day_index``."""
    if day_index < 0:
        raise ValueError(f"day_index must be >= 0, got {day_index}")
    if not 0 <= start_weekday < 7:
        raise ValueError(f"start_weekday must be in [0, 7), got {start_weekday}")
    return (start_weekday + day_index) % 7


def is_weekend(day_index: int, start_weekday: int) -> bool:
    """Whether trace day ``day_index`` falls on a weekend."""
    return weekday_of(day_index, start_weekday) in WEEKEND_DAYS


def hour_of(time_s: float) -> int:
    """Hour-of-day bin (0..23) for an absolute trace time in seconds."""
    return int((time_s % DAY) // HOUR)


def day_of(time_s: float) -> int:
    """Trace day index for an absolute trace time in seconds."""
    return int(time_s // DAY)


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write a text file so a crash can never leave a torn document.

    The payload goes to a temporary file in the destination directory,
    is flushed and fsynced, and is then renamed over ``path`` with
    :func:`os.replace`.  Readers therefore only ever see the old document
    or the complete new one, never a half-written hybrid.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json_atomic(path: str | Path, doc: object, *, indent: int | None = None) -> Path:
    """Atomically write ``doc`` as JSON (see :func:`write_text_atomic`)."""
    return write_text_atomic(path, json.dumps(doc, indent=indent) + "\n")


class AtomicJsonLines:
    """A JSON-lines file appended to for a whole run, published atomically.

    Each :meth:`write` appends ``json.dumps(doc) + "\\n"`` to a hidden
    sibling temp file; :meth:`close` flushes, fsyncs and renames it over
    ``path`` (the :func:`write_text_atomic` discipline), so readers only
    ever see a complete file.  :meth:`abort` discards the temp file
    instead.  Both are idempotent, and neither undoes the other.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Lines written so far.
        self.count = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{self.path.name}.", suffix=".partial", dir=self.path.parent
        )
        self._tmp = Path(tmp_name)
        self._fh = os.fdopen(fd, "w", encoding="utf-8", newline="")

    def write(self, doc: object) -> None:
        """Append ``doc`` as one JSON line."""
        self._fh.write(json.dumps(doc) + "\n")
        self.count += 1

    def close(self) -> Path:
        """Flush, fsync and atomically publish the file; returns its path."""
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            os.replace(self._tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Discard the partial file (the run failed before completing)."""
        if not self._fh.closed:
            self._fh.close()
        self._tmp.unlink(missing_ok=True)


def dumps_spliced(
    obj: dict, spliced: Mapping[str, str], separators: tuple[str, str]
) -> str:
    """``json.dumps(obj, separators=separators)`` with values given as text.

    For every key of ``obj`` that is also a key of ``spliced``, the
    value written is the JSON text ``spliced[key]`` (which must be
    encoded with the same ``separators``); ``obj[key]`` itself is not
    read.  Every other item is encoded by :func:`json.dumps`, in
    ``obj``'s order, so the result is byte for byte the plain encoding
    of ``obj`` with those values in place.
    """
    item_sep, key_sep = separators
    parts: list[str] = []
    plain: dict = {}
    for key, value in obj.items():
        if key in spliced:
            if plain:
                parts.append(json.dumps(plain, separators=separators)[1:-1])
                plain = {}
            parts.append(json.dumps(key) + key_sep + spliced[key])
        else:
            plain[key] = value
    if plain:
        parts.append(json.dumps(plain, separators=separators)[1:-1])
    return "{" + item_sep.join(parts) + "}"


def peak_rss_bytes() -> int | None:
    """Lifetime peak resident set size of this process, in bytes.

    Reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss``, normalizing the
    platform units (kilobytes on Linux/BSD, bytes on macOS).  Returns
    ``None`` where the :mod:`resource` module is unavailable (Windows).
    The value is *monotonic* over the process lifetime — it only ever
    records the high-water mark — so flatness comparisons must run the
    smaller cohort first.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def merge_intervals(
    intervals: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Merge overlapping (or touching) intervals.

    Returns a sorted list of disjoint ``(start, end)`` tuples.  The first
    pair with ``start > end`` raises :func:`check_interval`'s error.
    Used to fuse wake windows with radio-on intervals, to find the
    duty-cycle gaps between busy periods, and by :func:`count_in_windows`.
    """
    # ``check_interval`` is reached only for a bad pair, where it raises.
    cleaned = [
        (float(start), float(end))
        for start, end in intervals
        if not start > end or check_interval(start, end)
    ]
    if not cleaned:
        return []
    cleaned.sort()
    merged = [cleaned[0]]
    for start, end in cleaned[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def count_in_windows(
    times: Iterable[float], windows: Sequence[tuple[float, float]]
) -> int:
    """How many of ``times`` fall in at least one half-open window ``[lo, hi)``.

    Windows with ``hi <= lo`` hold no time and are dropped; the rest are
    merged (touching half-open windows merge exactly) and each time is
    placed by bisection, so ``U`` times against ``H`` windows cost
    O((U + H) log H) rather than the O(U·H) pairwise scan.  The policy
    baselines count their "affected user activities" (interactions that
    start while traffic is held) with it.
    """
    merged = merge_intervals([(lo, hi) for lo, hi in windows if hi > lo])
    starts = [lo for lo, _ in merged]
    ends = [hi for _, hi in merged]
    count = 0
    for t in times:
        # The last merged window starting at or before ``t`` is the only
        # one that can hold it: every earlier one ends before it starts.
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and t < ends[i]:
            count += 1
    return count


def total_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total covered length of *disjoint* intervals."""
    return float(sum(end - start for start, end in intervals))


def intersect_length(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> float:
    """Total overlap length between two lists of disjoint sorted intervals."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total
