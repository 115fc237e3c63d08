"""Round-trip tests for trace serialization."""

from __future__ import annotations

import json

import pytest

from repro.traces import (
    cohort_from_dir,
    cohort_to_dir,
    trace_from_csv,
    trace_from_csv_lenient,
    trace_from_jsonl,
    trace_from_jsonl_lenient,
    trace_to_csv,
    trace_to_jsonl,
)


def _assert_traces_equal(a, b):
    assert a.user_id == b.user_id
    assert a.n_days == b.n_days
    assert a.start_weekday == b.start_weekday
    assert [(s.start, s.end) for s in a.screen_sessions] == [
        (s.start, s.end) for s in b.screen_sessions
    ]
    assert [(u.time, u.app, u.duration) for u in a.usages] == [
        (u.time, u.app, u.duration) for u in b.usages
    ]
    assert [
        (x.time, x.app, x.down_bytes, x.up_bytes, x.duration, x.screen_on)
        for x in a.activities
    ] == [
        (x.time, x.app, x.down_bytes, x.up_bytes, x.duration, x.screen_on)
        for x in b.activities
    ]


class TestJsonl:
    def test_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        _assert_traces_equal(tiny_trace, trace_from_jsonl(path))

    def test_round_trip_generated(self, volunteer, tmp_path):
        path = tmp_path / "vol.jsonl"
        trace_to_jsonl(volunteer, path)
        loaded = trace_from_jsonl(path)
        assert len(loaded.activities) == len(volunteer.activities)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "screen", "start": 0.0, "end": 1.0}) + "\n")
        with pytest.raises(ValueError, match="header"):
            trace_from_jsonl(path)

    def test_unknown_kind(self, tmp_path, tiny_trace):
        path = tmp_path / "bad.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown record kind"):
            trace_from_jsonl(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "version": 99, "user_id": "u", "n_days": 1, "start_weekday": 0}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            trace_from_jsonl(path)

    def test_blank_lines_ignored(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        _assert_traces_equal(tiny_trace, trace_from_jsonl(path))

    def test_header_must_be_first(self, tiny_trace, tmp_path):
        # A header buried below data records is not a valid file.
        path = tmp_path / "shuffled.jsonl"
        trace_to_jsonl(tiny_trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        with pytest.raises(ValueError, match="header"):
            trace_from_jsonl(path)

    def test_header_missing_field(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 1, "user_id": "u"}) + "\n"
        )
        with pytest.raises(ValueError, match="n_days"):
            trace_from_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            trace_from_jsonl(path)


class TestJsonlLenient:
    def test_clean_file_loads_clean(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        loaded, report = trace_from_jsonl_lenient(path)
        assert report.clean
        assert report.n_skipped == 0
        _assert_traces_equal(tiny_trace, loaded)

    def test_skips_corrupt_lines(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            fh.write("{this is not json\n")
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
            fh.write(json.dumps({"kind": "usage", "time": 1.0}) + "\n")
        loaded, report = trace_from_jsonl_lenient(path)
        assert report.n_skipped == 3
        assert not report.clean
        locations = [loc for loc, _ in report.skipped]
        assert all(loc.startswith("line ") for loc in locations)
        _assert_traces_equal(tiny_trace, loaded)

    def test_skips_non_finite_numbers(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            fh.write('{"kind": "usage", "time": NaN, "app": "a", "duration": 1.0}\n')
            fh.write('{"kind": "screen", "start": 1.0, "end": Infinity}\n')
        with pytest.raises(ValueError, match="finite"):
            trace_from_jsonl(path)
        loaded, report = trace_from_jsonl_lenient(path)
        assert report.n_skipped == 2
        assert all("finite" in reason for _, reason in report.skipped)
        _assert_traces_equal(tiny_trace, loaded)

    def test_still_requires_header(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text(json.dumps({"kind": "screen", "start": 0.0, "end": 1.0}) + "\n")
        with pytest.raises(ValueError, match="header"):
            trace_from_jsonl_lenient(path)

    def test_repairs_contradictory_screen_flag(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            # Claims screen-on at a time with no screen session.
            fh.write(
                json.dumps(
                    {
                        "kind": "network",
                        "time": 20000.0,
                        "app": "liar",
                        "down_bytes": 10.0,
                        "up_bytes": 1.0,
                        "duration": 1.0,
                        "screen_on": True,
                    }
                )
                + "\n"
            )
        loaded, report = trace_from_jsonl_lenient(path)
        assert report.repaired_screen_flags == 1
        repaired = [a for a in loaded.activities if a.app == "liar"]
        assert repaired[0].screen_on is False

    def test_drops_overlapping_sessions(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            # Overlaps the 100-130 s session.
            fh.write(json.dumps({"kind": "screen", "start": 110.0, "end": 140.0}) + "\n")
        loaded, report = trace_from_jsonl_lenient(path)
        assert any("overlap" in reason for _, reason in report.skipped)
        assert len(loaded.screen_sessions) == len(tiny_trace.screen_sessions)


class TestCsv:
    def test_round_trip(self, tiny_trace, tmp_path):
        prefix = tmp_path / "trace"
        paths = trace_to_csv(tiny_trace, prefix)
        assert len(paths) == 4
        _assert_traces_equal(tiny_trace, trace_from_csv(prefix))

    def test_meta_row_required(self, tiny_trace, tmp_path):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        meta = prefix.with_name("trace_meta.csv")
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
        with pytest.raises(ValueError, match="exactly one"):
            trace_from_csv(prefix)


class TestCsvLenient:
    def test_clean_round_trip(self, tiny_trace, tmp_path):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        loaded, report = trace_from_csv_lenient(prefix)
        assert report.clean
        _assert_traces_equal(tiny_trace, loaded)

    def test_skips_malformed_rows(self, tiny_trace, tmp_path):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        activities = prefix.with_name("trace_activities.csv")
        with activities.open("a") as fh:
            fh.write("not-a-number,app,1,1,1,0\n")
        loaded, report = trace_from_csv_lenient(prefix)
        assert report.n_skipped == 1
        location, _ = report.skipped[0]
        assert location.startswith("trace_activities.csv:")
        _assert_traces_equal(tiny_trace, loaded)

    def test_meta_still_strict(self, tiny_trace, tmp_path):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        meta = prefix.with_name("trace_meta.csv")
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
        with pytest.raises(ValueError, match="exactly one"):
            trace_from_csv_lenient(prefix)


#: One row with a non-finite number, per CSV file.
NON_FINITE_ROWS = {
    "usage time nan": ("_usages.csv", "nan,browser,1.0"),
    "activity down_bytes inf": ("_activities.csv", "8000.0,browser,inf,1.0,1.0,0"),
    "session end -inf": ("_sessions.csv", "9000.0,-inf"),
    "usage duration infinity": ("_usages.csv", "8000.0,browser,Infinity"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_ROWS))
class TestCsvNonFinite:
    @staticmethod
    def _write(tiny_trace, tmp_path, case):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        suffix, row = NON_FINITE_ROWS[case]
        with prefix.with_name("trace" + suffix).open("a") as fh:
            fh.write(row + "\n")
        return prefix, suffix

    def test_strict_refuses(self, tiny_trace, tmp_path, case):
        prefix, _ = self._write(tiny_trace, tmp_path, case)
        with pytest.raises(ValueError, match="finite"):
            trace_from_csv(prefix)

    def test_lenient_skips_and_reports(self, tiny_trace, tmp_path, case):
        prefix, suffix = self._write(tiny_trace, tmp_path, case)
        loaded, report = trace_from_csv_lenient(prefix)
        assert report.n_skipped == 1
        location, reason = report.skipped[0]
        assert location.startswith("trace" + suffix + ":")
        assert "finite" in reason
        _assert_traces_equal(tiny_trace, loaded)


#: One record outside the 1-day tiny trace's [0, 86400) s, per kind:
#: its CSV file and row, and its JSONL record.
OUT_OF_RANGE = {
    "activity at -1800 s": (
        "_activities.csv",
        "-1800.0,a,5000.0,0.0,5.0,0",
        {"kind": "network", "time": -1800.0, "app": "a", "down_bytes": 5000.0,
         "up_bytes": 0.0, "duration": 5.0, "screen_on": False},
    ),
    "activity at 90000 s": (
        "_activities.csv",
        "90000.0,b,10.0,0.0,1.0,0",
        {"kind": "network", "time": 90000.0, "app": "b", "down_bytes": 10.0,
         "up_bytes": 0.0, "duration": 1.0, "screen_on": False},
    ),
    "usage at 90000 s": (
        "_usages.csv",
        "90000.0,b,1.0",
        {"kind": "usage", "time": 90000.0, "app": "b", "duration": 1.0},
    ),
    "session from -10 s": (
        "_sessions.csv",
        "-10.0,10.0",
        {"kind": "screen", "start": -10.0, "end": 10.0},
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
class TestOutOfRangeRecords:
    @staticmethod
    def _jsonl(tiny_trace, tmp_path, case):
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            fh.write(json.dumps(OUT_OF_RANGE[case][2]) + "\n")
        return path

    @staticmethod
    def _csv(tiny_trace, tmp_path, case):
        prefix = tmp_path / "trace"
        trace_to_csv(tiny_trace, prefix)
        suffix, row, _ = OUT_OF_RANGE[case]
        with prefix.with_name("trace" + suffix).open("a") as fh:
            fh.write(row + "\n")
        return prefix

    def test_jsonl_strict_refuses(self, tiny_trace, tmp_path, case):
        with pytest.raises(ValueError, match="outside|before"):
            trace_from_jsonl(self._jsonl(tiny_trace, tmp_path, case))

    def test_csv_strict_refuses(self, tiny_trace, tmp_path, case):
        with pytest.raises(ValueError, match="outside|before"):
            trace_from_csv(self._csv(tiny_trace, tmp_path, case))

    def test_jsonl_lenient_skips_and_reports(self, tiny_trace, tmp_path, case):
        loaded, report = trace_from_jsonl_lenient(self._jsonl(tiny_trace, tmp_path, case))
        assert report.n_skipped == 1
        _assert_traces_equal(tiny_trace, loaded)

    def test_csv_lenient_skips_and_reports(self, tiny_trace, tmp_path, case):
        loaded, report = trace_from_csv_lenient(self._csv(tiny_trace, tmp_path, case))
        assert report.n_skipped == 1
        _assert_traces_equal(tiny_trace, loaded)


class TestCohortDir:
    def test_round_trip(self, tmp_path):
        from repro.traces import generate_cohort

        cohort = generate_cohort(1, seed=5)[:3]
        paths = cohort_to_dir(cohort, tmp_path / "cohort")
        assert len(paths) == 3
        loaded = cohort_from_dir(tmp_path / "cohort")
        assert [t.user_id for t in loaded] == sorted(t.user_id for t in cohort)


class TestIterTraceRecords:
    def test_header_first_then_file_order(self, tiny_trace, tmp_path):
        from repro.traces import TraceHeader, iter_trace_records

        path = tmp_path / "t.jsonl"
        trace_to_jsonl(tiny_trace, path)
        records = list(iter_trace_records(path))
        header, body = records[0], records[1:]
        assert isinstance(header, TraceHeader)
        assert header.user_id == tiny_trace.user_id
        assert header.n_days == tiny_trace.n_days
        assert len(body) == (
            len(tiny_trace.screen_sessions)
            + len(tiny_trace.usages)
            + len(tiny_trace.activities)
        )

    def test_matches_trace_from_jsonl(self, volunteer, tmp_path):
        from repro.traces import (
            ScreenSession,
            Trace,
            TraceHeader,
            iter_trace_records,
        )

        path = tmp_path / "v.jsonl"
        trace_to_jsonl(volunteer, path)
        stream = iter_trace_records(path)
        header = next(stream)
        assert isinstance(header, TraceHeader)
        body = list(stream)
        rebuilt = Trace(
            user_id=header.user_id,
            n_days=header.n_days,
            start_weekday=header.start_weekday,
            screen_sessions=[r for r in body if isinstance(r, ScreenSession)],
            usages=[r for r in body if type(r).__name__ == "AppUsage"],
            activities=[r for r in body if type(r).__name__ == "NetworkActivity"],
        )
        _assert_traces_equal(rebuilt, trace_from_jsonl(path))

    def test_lenient_skips_and_reports(self, tiny_trace, tmp_path):
        from repro.traces import TraceLoadReport, iter_trace_records

        path = tmp_path / "t.jsonl"
        trace_to_jsonl(tiny_trace, path)
        with path.open("a") as fh:
            fh.write('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            list(iter_trace_records(path))
        report = TraceLoadReport()
        n_clean = len(list(iter_trace_records(path, lenient=True, report=report))) - 1
        assert n_clean == (
            len(tiny_trace.screen_sessions)
            + len(tiny_trace.usages)
            + len(tiny_trace.activities)
        )
        assert report.n_skipped == 1

    def test_missing_header_raises(self, tmp_path):
        from repro.traces import iter_trace_records

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            list(iter_trace_records(path))
