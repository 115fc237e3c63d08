"""FleetRollup: fold equivalence, its JSON dump, spill lifecycle."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro import telemetry
from repro.core.netmaster import NetMasterConfig
from repro.stream import (
    FleetConfig,
    FleetRollup,
    FleetService,
    FleetUserSpec,
    SummarySpill,
    iter_spilled,
    read_spilled,
)
from repro.stream.rollup import SAVINGS_BUCKETS_J

CONFIG = FleetConfig(
    train_days=10, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)


@pytest.fixture(scope="module")
def result(volunteers):
    specs = [
        FleetUserSpec(user_id=t.user_id, n_days=t.n_days, trace=t) for t in volunteers
    ]
    return FleetService(CONFIG).run(specs)


class TestFold:
    def test_refolding_summaries_reproduces_the_run_rollup(self, result):
        rollup = FleetRollup()
        for summary in result.summaries:
            rollup.fold(summary)
        rollup.spilled = result.rollup.spilled
        assert rollup == result.rollup

    def test_counters_match_summary_totals(self, result):
        r = result.rollup
        assert r.users == len(result.summaries)
        assert r.events == sum(s.events for s in result.summaries)
        assert r.energy_j == sum(s.energy_j for s in result.summaries)
        assert r.checkpoints == sum(s.checkpoints for s in result.summaries)

    def test_histogram_counts_every_user_once(self, result):
        r = result.rollup
        assert sum(r.savings_hist) == r.users
        assert len(r.savings_hist) == len(SAVINGS_BUCKETS_J) + 1

    def test_moments_bound_the_mean(self, result):
        r = result.rollup
        assert r.energy_day_min <= r.energy_day_sum / r.users <= r.energy_day_max
        assert r.energy_day_sumsq >= 0

    def test_empty_rollup_derived_values(self):
        r = FleetRollup()
        assert r.energy_day_min is None and r.energy_day_max is None


class TestRoundTrip:
    def test_state_dict_survives_json_bit_exactly(self, result):
        rollup = result.rollup
        state = json.loads(json.dumps(rollup.state_dict()))
        assert state == rollup.state_dict()
        assert {name: state[name] for name in asdict(rollup)} == asdict(rollup)


class TestSpill:
    def test_round_trips_summaries_exactly(self, result, tmp_path):
        spill = SummarySpill(tmp_path / "summaries.jsonl")
        for summary in result.summaries:
            spill.append(summary)
        path = spill.close()
        assert read_spilled(path) == result.summaries
        assert tuple(iter_spilled(path)) == result.summaries
        assert spill.count == len(result.summaries)

    def test_publish_is_atomic(self, result, tmp_path):
        spill = SummarySpill(tmp_path / "summaries.jsonl")
        spill.append(result.summaries[0])
        # Nothing visible at the target path until close() renames.
        assert not (tmp_path / "summaries.jsonl").exists()
        spill.close()
        assert [p.name for p in tmp_path.iterdir()] == ["summaries.jsonl"]

    def test_abort_leaves_nothing_behind(self, result, tmp_path):
        spill = SummarySpill(tmp_path / "summaries.jsonl")
        spill.append(result.summaries[0])
        spill.abort()
        assert list(tmp_path.iterdir()) == []

    def test_append_bumps_the_spill_counter(self, result, tmp_path):
        with telemetry.isolated() as (reg, _):
            spill = SummarySpill(tmp_path / "summaries.jsonl")
            for summary in result.summaries:
                spill.append(summary)
            spill.close()
            counters = reg.snapshot()["counters"]
        assert counters["fleet.summaries_spilled"] == len(result.summaries)
