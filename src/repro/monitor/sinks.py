"""Alert publishing: a fan-out hub over isolated sinks.

:class:`MonitorHub` is the single publishing seam — the fleet, the
sharded service and the HTTP gateway all hand their alerts to one hub,
which fans each alert out to every attached sink.  Sinks are fully
isolated: a raising sink is logged and counted
(``monitor.sink_errors``) and the remaining sinks still receive the
alert — a broken sink can never break ingest.

Two sinks ship: :class:`RingAlertSink`, the bounded buffer behind
``GET /v1/alerts``, and :class:`JsonlAlertSink`, an alert log that
readers only ever observe complete
(:class:`repro._util.AtomicJsonLines`).
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Iterable

from repro._util import AtomicJsonLines
from repro.monitor.detectors import Alert
from repro.telemetry import metrics

__all__ = [
    "JsonlAlertSink",
    "MonitorHub",
    "RingAlertSink",
]

logger = logging.getLogger(__name__)


class JsonlAlertSink(AtomicJsonLines):
    """Append-only JSONL alert log, atomically published on close."""

    def emit(self, alert: Alert) -> None:
        self.write(alert.as_dict())


class RingAlertSink:
    """Bounded in-memory buffer of the newest alerts (the read path
    behind ``GET /v1/alerts``)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque[Alert] = deque(maxlen=self.capacity)
        self.count = 0

    def emit(self, alert: Alert) -> None:
        self._ring.append(alert)
        self.count += 1

    def alerts(self) -> list[Alert]:
        """The retained alerts, oldest first."""
        return list(self._ring)


class MonitorHub:
    """Fan-out publisher with per-sink failure isolation.

    Publish-side counts (total and per kind) live on the hub itself —
    they are the service's ``/v1/alerts`` summary — while the
    ``monitor.alerts*`` telemetry counters are incremented where the
    alerts are *detected* (worker side, shipped back in admission
    order), so parallel runs count identically to serial ones.  The hub
    only owns the ``monitor.sink_errors`` counter: sink failures happen
    wherever the hub lives.
    """

    def __init__(self, sinks: Iterable[object] = ()) -> None:
        self.sinks = list(sinks)
        self.published = 0
        self.by_kind: dict[str, int] = {}
        self.sink_errors = 0

    def publish(self, alert: Alert) -> None:
        """Fan one alert out to every sink; a raising sink is isolated."""
        self.published += 1
        self.by_kind[alert.kind] = self.by_kind.get(alert.kind, 0) + 1
        for sink in self.sinks:
            try:
                sink.emit(alert)
            except Exception:
                self.sink_errors += 1
                metrics().inc("monitor.sink_errors")
                logger.warning(
                    "alert sink %s failed on %s/%s day %d; alert dropped "
                    "for this sink only",
                    type(sink).__name__,
                    alert.user_id,
                    alert.kind,
                    alert.day,
                    exc_info=True,
                )

    def publish_many(self, alerts: Iterable[Alert]) -> None:
        """Publish alerts in order."""
        for alert in alerts:
            self.publish(alert)

    def close(self) -> None:
        """Close every closeable sink, isolating failures like emit."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is None:
                continue
            try:
                close()
            except Exception:
                self.sink_errors += 1
                metrics().inc("monitor.sink_errors")
                logger.warning(
                    "alert sink %s failed to close", type(sink).__name__,
                    exc_info=True,
                )
