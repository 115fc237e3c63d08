"""FleetService: batching, shedding, checkpoint cadence, determinism."""

from __future__ import annotations

import pytest

from repro.core.netmaster import NetMasterConfig
from repro.stream import (
    FleetConfig,
    FleetService,
    FleetUserSpec,
    stream_one_user,
    stream_trace,
)
from repro.stream.fleet import _spec_trace

CONFIG = FleetConfig(
    train_days=10, netmaster=NetMasterConfig(enable_circuit_breaker=False)
)


def _specs(volunteers):
    return [
        FleetUserSpec(user_id=t.user_id, n_days=t.n_days, trace=t) for t in volunteers
    ]


class TestStreamOneUser:
    def test_summary_accounts_for_the_whole_trace(self, volunteer):
        summary = stream_one_user(volunteer, config=CONFIG)
        assert summary.user_id == volunteer.user_id
        assert summary.n_days == volunteer.n_days
        assert summary.days_executed == volunteer.n_days - CONFIG.train_days
        assert summary.events == len(list(stream_trace(volunteer)))
        assert summary.energy_j > 0
        assert summary.user_interactions > 0
        assert summary.checkpoints == 0  # cadence off by default

    def test_checkpoint_cadence(self, volunteer):
        config = FleetConfig(
            train_days=10,
            checkpoint_every_days=1,
            netmaster=CONFIG.netmaster,
        )
        summary = stream_one_user(volunteer, config=config)
        # Every executed day except the last (closed inside finish())
        # round-trips the engine through JSON.
        assert summary.checkpoints == summary.days_executed - 1

    def test_checkpointing_does_not_change_results(self, volunteer):
        plain = stream_one_user(volunteer, config=CONFIG)
        config = FleetConfig(
            train_days=10, checkpoint_every_days=1, netmaster=CONFIG.netmaster
        )
        ckpt = stream_one_user(volunteer, config=config)
        assert ckpt.energy_j == plain.energy_j
        assert ckpt.interrupts == plain.interrupts
        assert ckpt.radio_on_s == plain.radio_on_s


class TestFleetService:
    def test_runs_all_users_in_spec_order(self, volunteers):
        result = FleetService(CONFIG).run(_specs(volunteers))
        assert result.users == len(volunteers)
        assert result.shed_users == 0
        assert [s.user_id for s in result.summaries] == [
            t.user_id for t in volunteers
        ]
        assert result.user_days_streamed == sum(t.n_days for t in volunteers)
        assert result.events_per_s > 0

    def test_deterministic_across_runs(self, volunteers):
        a = FleetService(CONFIG).run(_specs(volunteers))
        b = FleetService(CONFIG).run(_specs(volunteers))
        assert a.summaries == b.summaries

    def test_batch_size_does_not_change_results(self, volunteers):
        wide = FleetService(CONFIG).run(_specs(volunteers))
        one = FleetService(
            FleetConfig(
                train_days=10, batch_size=1, netmaster=CONFIG.netmaster
            )
        ).run(_specs(volunteers))
        assert wide.summaries == one.summaries

    def test_event_budget_sheds_remaining_users_whole(self, volunteers):
        config = FleetConfig(
            train_days=10,
            batch_size=1,
            event_budget=1,  # exhausted after the first user's batch
            netmaster=CONFIG.netmaster,
        )
        result = FleetService(config).run(_specs(volunteers))
        assert result.users == 1
        assert result.shed_users == len(volunteers) - 1
        # The admitted user was streamed completely, not truncated.
        assert result.summaries[0].n_days == volunteers[0].n_days

    def test_zero_budget_sheds_everyone(self, volunteers):
        config = FleetConfig(
            train_days=10, event_budget=0, netmaster=CONFIG.netmaster
        )
        result = FleetService(config).run(_specs(volunteers))
        assert result.users == 0
        assert result.shed_users == len(volunteers)
        assert result.events_per_s == 0.0


class TestIteratorSource:
    """Admission from a lazy iterator is byte-equal to the list drive."""

    def test_iterator_equals_list(self, volunteers):
        base = FleetService(CONFIG).run(_specs(volunteers))
        lazy = FleetService(CONFIG).run(iter(_specs(volunteers)))
        assert lazy.summaries == base.summaries
        assert lazy.rollup == base.rollup

    def test_iterator_equals_list_in_parallel(self, volunteers):
        base = FleetService(CONFIG).run(_specs(volunteers), jobs=2)
        lazy = FleetService(CONFIG).run(iter(_specs(volunteers)), jobs=2)
        assert lazy.summaries == base.summaries
        assert lazy.rollup == base.rollup

    def test_iterator_sheds_the_same_tail(self, volunteers):
        config = FleetConfig(
            train_days=10,
            batch_size=1,
            event_budget=1,
            netmaster=CONFIG.netmaster,
        )
        base = FleetService(config).run(_specs(volunteers))
        lazy = FleetService(config).run(iter(_specs(volunteers)))
        assert lazy.shed_users == base.shed_users == len(volunteers) - 1
        assert lazy.summaries == base.summaries
        assert lazy.rollup == base.rollup

    def test_generator_source_is_consumed_once(self, volunteers):
        specs = _specs(volunteers)
        source = (spec for spec in specs)
        result = FleetService(CONFIG).run(source)
        assert result.users == len(specs)
        assert list(source) == []  # fully drained


class TestSummaryRetention:
    def test_unretained_run_keeps_rollup_but_not_summaries(self, volunteers):
        config = FleetConfig(
            train_days=10, retain_summaries=False, netmaster=CONFIG.netmaster
        )
        base = FleetService(CONFIG).run(_specs(volunteers))
        lean = FleetService(config).run(_specs(volunteers))
        assert lean.rollup == base.rollup
        assert lean.users == base.users
        assert lean.events == base.events
        with pytest.raises(RuntimeError, match="neither retained nor spilled"):
            lean.summaries

    def test_spill_round_trips_the_summaries(self, volunteers, tmp_path):
        spill_path = tmp_path / "summaries.jsonl"
        config = FleetConfig(
            train_days=10,
            retain_summaries=False,
            summary_spill=spill_path,
            netmaster=CONFIG.netmaster,
        )
        base = FleetService(CONFIG).run(_specs(volunteers))
        spilled = FleetService(config).run(_specs(volunteers))
        assert spilled.spill_path == spill_path
        # .summaries lazily re-reads the spill file: same documents.
        assert spilled.summaries == base.summaries
        assert spilled.rollup.spilled == len(volunteers)

    def test_checkpoint_round_trips_an_unretained_run(self, volunteers, tmp_path):
        spill_path = tmp_path / "summaries.jsonl"
        config = FleetConfig(
            train_days=10,
            retain_summaries=False,
            summary_spill=spill_path,
            netmaster=CONFIG.netmaster,
        )
        result = FleetService(config).run(_specs(volunteers))
        path = tmp_path / "fleet.json"
        FleetService.checkpoint(path, result)
        loaded = FleetService.load_checkpoint(path)
        assert loaded.rollup == result.rollup
        assert loaded.summaries == result.summaries


class TestSpecs:
    def test_seeded_spec_synthesizes_deterministically(self):
        spec = FleetUserSpec(user_id="u1", n_days=3, seed=99)
        a, b = _spec_trace(spec), _spec_trace(spec)
        assert a.user_id == "u1" and a.n_days == 3
        assert [(s.start, s.end) for s in a.screen_sessions] == [
            (s.start, s.end) for s in b.screen_sessions
        ]

    def test_spec_without_trace_or_seed_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            _spec_trace(FleetUserSpec(user_id="u", n_days=3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_days": 0},
            {"batch_size": 0},
            {"event_budget": -1},
            {"checkpoint_every_days": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)
