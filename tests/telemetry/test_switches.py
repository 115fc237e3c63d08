"""The global telemetry switches: configure(), isolated(), reset."""

from __future__ import annotations

from repro import telemetry
from repro.telemetry import MetricsRegistry, NullRegistry, NullTracer, Tracer


class TestConfigure:
    def teardown_method(self):
        telemetry.configure(metrics_enabled=True, tracing_enabled=False)

    def test_defaults(self):
        assert telemetry.metrics_enabled() is True
        assert telemetry.tracing_enabled() is False
        assert isinstance(telemetry.tracer(), NullTracer)

    def test_toggle_metrics(self):
        telemetry.configure(metrics_enabled=False)
        assert isinstance(telemetry.metrics(), NullRegistry)
        telemetry.configure(metrics_enabled=True)
        assert telemetry.metrics_enabled()
        assert not isinstance(telemetry.metrics(), NullRegistry)

    def test_enable_keeps_accumulated_state(self):
        telemetry.metrics().inc("kept")
        telemetry.configure(metrics_enabled=True)  # already on: no-op
        assert telemetry.metrics().counter("kept").value >= 1

    def test_disable_drops_state(self):
        telemetry.metrics().inc("gone")
        telemetry.configure(metrics_enabled=False)
        telemetry.configure(metrics_enabled=True)
        assert telemetry.metrics().snapshot()["counters"].get("gone") is None

    def test_toggle_tracing(self):
        telemetry.configure(tracing_enabled=True)
        assert telemetry.tracing_enabled()
        assert not isinstance(telemetry.tracer(), NullTracer)
        telemetry.configure(tracing_enabled=False)
        assert isinstance(telemetry.tracer(), NullTracer)


class TestIsolated:
    def test_swaps_in_fresh_pair_and_restores(self):
        outer_reg, outer_trc = telemetry.metrics(), telemetry.tracer()
        with telemetry.isolated() as (reg, trc):
            assert telemetry.metrics() is reg is not outer_reg
            assert telemetry.tracer() is trc is not outer_trc
            assert isinstance(reg, MetricsRegistry) and reg.enabled
            assert isinstance(trc, Tracer) and trc.enabled
            reg.inc("inner")
        assert telemetry.metrics() is outer_reg
        assert telemetry.tracer() is outer_trc
        assert outer_reg.snapshot()["counters"].get("inner") is None

    def test_without_tracing(self):
        with telemetry.isolated(with_tracing=False) as (_, trc):
            assert isinstance(trc, NullTracer)

    def test_restores_on_exception(self):
        outer = telemetry.metrics()
        try:
            with telemetry.isolated():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert telemetry.metrics() is outer
