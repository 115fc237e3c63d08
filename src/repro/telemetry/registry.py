"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the cheap always-on half of the telemetry
subsystem.  Three instrument kinds cover the pipeline's needs:

* :class:`Counter` — monotonically increasing integer (events, items);
* :class:`Gauge` — last-written float (sizes, configuration echoes);
* :class:`Histogram` — fixed-bucket distribution of float observations.

Two properties make the registry safe to leave on during figure
reproduction and to fan over worker processes:

* **determinism** — every instrument state is a function of the sequence
  of updates alone, never of the clock.  Histogram sums accumulate in
  integer micro-units, so merging per-worker registries in task order
  produces *exactly* the serial run's registry (float summation order
  cannot leak in);
* **mergeability** — :meth:`MetricsRegistry.snapshot` produces a plain
  JSON-able dict (picklable across process pools) and
  :meth:`MetricsRegistry.merge_snapshot` folds such snapshots back in.
  Counters and histograms add; gauges take the incoming value
  (merge-order wins, matching serial last-write-wins).

:class:`NullRegistry` is the disabled twin: same surface, every method a
no-op, ``snapshot()`` empty — instrumented call sites pay one attribute
lookup and a no-op call, nothing more.
"""

from __future__ import annotations

from bisect import bisect_left

#: Scale factor for exact integer accumulation of histogram sums.
_MICRO = 1_000_000

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
#: The final implicit bucket is +inf (the overflow bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
    1800.0,
    3600.0,
    21600.0,
    86400.0,
)


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r}: increment must be >= 0, got {n}")
        self.value += int(n)


class Gauge:
    """A last-write-wins float instrument."""

    __slots__ = ("name", "value", "written")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.written = False

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = float(value)
        self.written = True


class Histogram:
    """A fixed-bucket distribution of float observations.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last bound.
    The sum is kept in integer micro-units so merges are exact and
    order-independent.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum_micro")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r}: bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum_micro = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum_micro += int(round(value * _MICRO))

    @property
    def sum(self) -> float:
        """Total of all observations (micro-unit precision)."""
        return self.sum_micro / _MICRO

    @property
    def mean(self) -> float:
        """Mean observation, 0.0 when empty."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper bound of the bucket containing the quantile
        rank; observations in the overflow bucket report ``inf``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` applies only at creation; a later conflicting bounds
        request for an existing histogram raises.
        """
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds or DEFAULT_BUCKETS)
        elif bounds is not None and tuple(bounds) != h.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with bounds {h.bounds}"
            )
        return h

    # -- convenience updates -------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        """Record ``value`` in histogram ``name``."""
        self.histogram(name, bounds).observe(value)

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict state (sorted keys, JSON- and pickle-friendly)."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
                if self._gauges[name].written
            },
            "histograms": {
                name: {
                    "bounds": list(self._histograms[name].bounds),
                    "counts": list(self._histograms[name].counts),
                    "count": self._histograms[name].count,
                    "sum_micro": self._histograms[name].sum_micro,
                }
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add, gauges take the snapshot value.
        Call in task order to reproduce a serial run exactly.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, h in snap.get("histograms", {}).items():
            mine = self.histogram(name, tuple(h["bounds"]))
            if list(mine.bounds) != list(h["bounds"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge differing bounds"
                )
            for i, c in enumerate(h["counts"]):
                mine.counts[i] += c
            mine.count += h["count"]
            mine.sum_micro += h["sum_micro"]


def diff_snapshots(before: dict, after: dict) -> dict:
    """The updates that happened between two snapshots of one registry.

    Counters and histogram counts/sums subtract; gauges report the
    ``after`` value.  Used for per-experiment attribution in the CLI.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, h in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(
            name, {"counts": [0] * len(h["counts"]), "count": 0, "sum_micro": 0}
        )
        count = h["count"] - prev["count"]
        if count:
            histograms[name] = {
                "bounds": h["bounds"],
                "counts": [a - b for a, b in zip(h["counts"], prev["counts"])],
                "count": count,
                "sum_micro": h["sum_micro"] - prev["sum_micro"],
            }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    sum_micro = 0
    bounds: tuple[float, ...] = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Disabled registry: same surface, no state, no side effects."""

    enabled = False

    def __init__(self) -> None:  # no dicts — nothing is ever stored
        pass

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=None):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, bounds=None) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snap: dict) -> None:
        pass
