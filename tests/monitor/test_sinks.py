"""Alert sinks: atomic publishing, bounded buffers, hub isolation."""

from __future__ import annotations

import json

import pytest

from repro.monitor.detectors import Alert, SEVERITY_WARNING
from repro.monitor.sinks import JsonlAlertSink, MonitorHub, RingAlertSink
from repro.telemetry import metrics


def alert(day, kind="runaway_energy", user="u0"):
    return Alert(
        user_id=user,
        day=day,
        kind=kind,
        severity=SEVERITY_WARNING,
        value=7.0,
        threshold=6.0,
        message=f"day {day}",
    )


class _Boom:
    """A sink whose emit and close both fail (the broken webhook)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, a):
        raise RuntimeError("webhook down")

    def close(self):
        raise RuntimeError("webhook still down")


class TestJsonlSink:
    def test_publishes_atomically_on_close(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = JsonlAlertSink(path)
        alerts = [alert(d) for d in range(3)]
        for a in alerts:
            sink.emit(a)
        # Nothing is visible at the target until close renames it in.
        assert not path.exists()
        assert sink.close() == path
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [a.as_dict() for a in alerts]
        assert sink.count == 3

    def test_abort_discards_the_partial_log(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = JsonlAlertSink(path)
        sink.emit(alert(0))
        sink.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no .partial litter either

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "down" / "alerts.jsonl"
        sink = JsonlAlertSink(path)
        sink.emit(alert(0))
        sink.close()
        assert path.exists()


class TestRingSink:
    def test_keeps_only_the_newest(self):
        ring = RingAlertSink(capacity=2)
        for day in range(5):
            ring.emit(alert(day))
        assert [a.day for a in ring.alerts()] == [3, 4]
        assert ring.count == 5  # total ever seen survives eviction

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingAlertSink(capacity=0)


class TestHubIsolation:
    def test_raising_sink_does_not_starve_the_others(self):
        ring = RingAlertSink()
        boom = _Boom()
        tail = RingAlertSink()
        hub = MonitorHub([ring, boom, tail])
        before = metrics().snapshot()["counters"].get("monitor.sink_errors", 0)
        hub.publish_many([alert(0), alert(1, kind="dch_stuck")])
        # Both healthy sinks got both alerts, in order.
        assert [a.day for a in ring.alerts()] == [0, 1]
        assert [a.day for a in tail.alerts()] == [0, 1]
        assert hub.published == 2
        assert hub.by_kind == {"runaway_energy": 1, "dch_stuck": 1}
        assert hub.sink_errors == 2
        after = metrics().snapshot()["counters"].get("monitor.sink_errors", 0)
        assert after - before == 2

    def test_close_isolates_failures_too(self, tmp_path):
        jsonl = JsonlAlertSink(tmp_path / "alerts.jsonl")
        hub = MonitorHub([_Boom(), jsonl])
        hub.publish(alert(0))
        hub.close()
        # The healthy sink still published despite the raising close.
        assert (tmp_path / "alerts.jsonl").exists()
        assert hub.sink_errors == 2  # one emit failure + one close failure
