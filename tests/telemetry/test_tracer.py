"""Tracer: span recording, context lanes, and the Chrome trace export."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import NullTracer, Tracer
from repro.telemetry.tracer import SIM_PID


class TestRecording:
    def test_sim_span_defaults(self):
        trc = Tracer()
        trc.record_span("dch", "rrc", 10.0, 12.5)
        (span,) = trc.spans
        assert span.domain == "sim"
        assert span.track == "rrc"
        assert span.dur_s == pytest.approx(2.5)

    def test_negative_duration_clamped(self):
        trc = Tracer()
        trc.record_span("x", "c", 5.0, 3.0)
        assert trc.spans[0].dur_s == 0.0

    def test_context_prefixes_sim_lanes_only(self):
        trc = Tracer()
        with trc.sim_context("user1/netmaster:d3"):
            trc.record_span("dch", "rrc", 0.0, 1.0)
            with trc.span("solve", "scheduler"):
                pass
        trc.record_span("dch", "rrc", 0.0, 1.0)
        sim1, wall, sim2 = trc.spans
        assert sim1.track == "user1/netmaster:d3/rrc"
        assert wall.domain == "wall" and wall.track == "scheduler"
        assert sim2.track == "rrc"  # context restored on exit

    def test_wall_span_records_args(self):
        trc = Tracer()
        with trc.span("solve", "scheduler", items=4):
            pass
        assert trc.spans[0].args == {"items": 4}
        assert trc.spans[0].dur_s >= 0.0

    def test_max_spans_drops_and_counts(self):
        trc = Tracer(max_spans=2)
        for i in range(5):
            trc.record_span(f"s{i}", "c", 0.0, 1.0)
        assert len(trc.spans) == 2
        assert trc.dropped == 3

    def test_max_spans_validated(self):
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)

    def test_export_ingest_roundtrip(self):
        a = Tracer()
        with a.sim_context("lane"):
            a.record_span("x", "c", 1.0, 2.0, args={"k": 1})
        b = Tracer()
        b.ingest(a.export_spans())
        assert b.export_spans() == a.export_spans()


class TestChromeExport:
    def test_complete_events_in_microseconds(self):
        trc = Tracer()
        trc.record_span("dch", "rrc", 1.5, 2.0)
        events = trc.chrome_trace_events()
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["ts"] == pytest.approx(1_500_000.0)
        assert x["dur"] == pytest.approx(500_000.0)
        assert x["cat"] == "rrc" and x["pid"] == SIM_PID

    def test_metadata_names_processes_and_threads(self):
        trc = Tracer()
        trc.record_span("dch", "rrc", 0.0, 1.0)
        with trc.span("fit", "habits"):
            pass
        events = trc.chrome_trace_events()
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "simulation time") in names
        assert ("thread_name", "rrc") in names
        assert ("thread_name", "habits") in names
        # wall pid is offset past the synthetic sim pid
        wall = [e for e in events if e["ph"] == "X" and e["cat"] == "habits"]
        assert wall[0]["pid"] > SIM_PID

    def test_tracks_get_stable_tids(self):
        trc = Tracer()
        trc.record_span("a", "rrc", 0.0, 1.0)
        trc.record_span("b", "screen", 0.0, 1.0)
        trc.record_span("c", "rrc", 2.0, 3.0)
        xs = [e for e in trc.chrome_trace_events() if e["ph"] == "X"]
        assert xs[0]["tid"] == xs[2]["tid"] != xs[1]["tid"]

    def test_write_chrome_is_valid_json(self, tmp_path):
        trc = Tracer()
        trc.record_span("dch", "rrc", 0.0, 1.0)
        path = tmp_path / "trace.json"
        trc.write_chrome(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_to_jsonl(self, tmp_path):
        trc = Tracer()
        trc.record_span("a", "c", 0.0, 1.0)
        trc.record_span("b", "c", 1.0, 2.0)
        path = tmp_path / "spans.jsonl"
        trc.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


class TestNullTracer:
    def test_records_nothing(self):
        trc = NullTracer()
        assert trc.enabled is False
        trc.record_span("a", "c", 0.0, 1.0)
        with trc.span("x"):
            pass
        with trc.sim_context("lane"):
            trc.record_span("b", "c", 0.0, 1.0)
        trc.ingest([{"name": "a"}])
        assert trc.spans == []
        assert trc.chrome_trace_events() == []

    def test_is_a_tracer(self):
        assert isinstance(NullTracer(), Tracer)
