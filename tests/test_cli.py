"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import io

from repro.__main__ import _REGISTRY, build_parser, main, run
from repro.evaluation.experiments import fig10b
from repro.evaluation.reporting import format_fig10b


class TestCli:
    def test_list(self):
        out = io.StringIO()
        assert run(["list"], out=out) == 0
        text = out.getvalue()
        for name in _REGISTRY:
            assert name in text

    def test_single_experiment(self):
        out = io.StringIO()
        assert run(["fig10b"], out=out) == 0
        assert "Fig 10(b)" in out.getvalue()

    def test_multiple_experiments(self):
        out = io.StringIO()
        assert run(["fig10a", "fig10b"], out=out) == 0
        text = out.getvalue()
        assert "Fig 10(a)" in text and "Fig 10(b)" in text

    def test_unknown_experiment(self):
        assert run(["nope"], out=io.StringIO()) == 2

    def test_seed_override(self):
        a, b = io.StringIO(), io.StringIO()
        assert run(["fig1a"], seed=1, out=a) == 0
        assert run(["fig1a"], seed=2, out=b) == 0
        assert a.getvalue() != b.getvalue()

    def test_seed_reaches_every_seedable_driver(self):
        out = io.StringIO()
        assert run(["fig10b"], 3, out=out) == 0
        assert out.getvalue() == format_fig10b(fig10b(seed=3)) + "\n"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.experiments == ["fig7"]
        assert args.seed is None
        assert args.out is None

    def test_list_rejects_other_names(self, capsys):
        assert run(["list", "fig7"], out=io.StringIO()) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_all_rejects_other_names(self, capsys):
        assert run(["fig7", "all"], out=io.StringIO()) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_list_and_all_reject_each_other(self):
        assert run(["list", "all"], out=io.StringIO()) == 2

    def test_out_writes_report_to_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["fig10b", "--out", str(target)]) == 0
        assert "Fig 10(b)" in target.read_text(encoding="utf-8")

    def test_out_defaults_to_stdout(self, capsys):
        assert main(["fig10b"]) == 0
        assert "Fig 10(b)" in capsys.readouterr().out

    def test_registry_covers_every_paper_figure(self):
        expected = {
            "fig1a", "fig1b", "fig2", "fig3", "fig4", "fig5",
            "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig10c",
            "ux", "approx", "robustness", "stream", "shards", "monitor",
        }
        assert set(_REGISTRY) == expected


class TestTelemetryCli:
    def test_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            ["fig7", "--quick", "--telemetry-out", "t", "--log-level", "info"]
        )
        assert args.quick is True
        assert args.telemetry_out == "t"
        assert args.log_level == "info"

    def test_parser_defaults_for_new_flags(self):
        args = build_parser().parse_args(["fig7"])
        assert args.quick is False
        assert args.telemetry_out is None
        assert args.log_level == "warning"

    def test_quick_kwargs_are_real_signatures(self):
        """Every --quick override must name actual driver keywords."""
        import inspect

        from repro.__main__ import _QUICK

        for name, kwargs in _QUICK.items():
            params = inspect.signature(_REGISTRY[name][0]).parameters
            for key in kwargs:
                assert key in params, f"{name}: bad quick kwarg {key!r}"

    def test_quick_run(self):
        out = io.StringIO()
        assert run(["approx"], out=out, quick=True) == 0
        assert "over 20 instances" in out.getvalue()

    def test_telemetry_out_writes_export(self, tmp_path, capsys):
        target = tmp_path / "tel"
        assert run(["fig10a"], out=io.StringIO(), telemetry_out=str(target)) == 0
        for name in ("metrics.json", "spans.jsonl", "trace.json", "results.json"):
            assert (target / name).exists(), name
        assert "telemetry written" in capsys.readouterr().err

    def test_telemetry_report_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "tel"
        assert run(["fig10a"], out=io.StringIO(), telemetry_out=str(target)) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry report" in out
        assert "== overall ==" in out

    def test_telemetry_report_usage_errors(self, tmp_path, capsys):
        assert main(["telemetry-report"]) == 2
        assert "usage" in capsys.readouterr().err
        assert main(["telemetry-report", str(tmp_path), "extra"]) == 2
        assert main(["telemetry-report", str(tmp_path / "missing")]) == 2
        assert "no telemetry found" in capsys.readouterr().err

    def test_log_level_configures_logging(self):
        import logging

        assert main(["list", "--log-level", "error"]) == 0
        assert logging.getLogger().level == logging.ERROR
        logging.getLogger().setLevel(logging.WARNING)


class TestServeDispatch:
    """`python -m repro serve` routes to the service CLI."""

    def test_serve_parser_flags(self):
        from repro.service.cli import build_parser

        args = build_parser().parse_args(
            ["--load", "--quick", "--port", "0", "--retention", "3"]
        )
        assert args.load and args.quick
        assert args.port == 0
        assert args.retention == 3

    def test_serve_config_mapping(self):
        from repro.service.cli import _config, build_parser

        args = build_parser().parse_args(
            ["--train-days", "5", "--retention", "2", "--event-budget", "100"]
        )
        config = _config(args)
        assert config.train_days == 5
        assert config.retention_days == 2
        assert config.event_budget == 100
        assert config.netmaster.enable_circuit_breaker is False

    def test_telemetry_report_accepts_metrics_file(self, tmp_path, capsys):
        import json

        snapshot = {
            "schema": 1,
            "overall": {
                "counters": {"service.req.health": 3},
                "gauges": {},
                "histograms": {},
            },
            "dropped_spans": 0,
        }
        path = tmp_path / "service_metrics.json"
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        assert main(["telemetry-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out
        assert "service.req.health" in out
