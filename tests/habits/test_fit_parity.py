"""``HabitModel.fit`` equals the per-day matrix oracle, bit for bit."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.evaluation import split_history
from repro.habits import HabitModel
from repro.traces import generate_cohort, generate_volunteers

from tests.habits.habit_oracle import habit_models_equal, oracle_fit
from tests.traces.strategies import valid_traces


@settings(max_examples=300, deadline=None)
@given(trace=valid_traces())
def test_fit_equals_oracle_on_any_valid_trace(trace):
    assert habit_models_equal(HabitModel.fit(trace), oracle_fit(trace))


@pytest.mark.parametrize("seed", [2014, 7, 43])
def test_fit_equals_oracle_on_generated_traces(seed):
    traces = generate_cohort(21, seed=seed) + generate_volunteers(14, seed=seed)
    for trace in traces:
        for t in (trace, split_history(trace, 10)[0]):
            assert habit_models_equal(HabitModel.fit(t), oracle_fit(t)), (
                seed, t.user_id, t.n_days,
            )


def test_fit_counts_one_fit_and_no_stream_counter(volunteer):
    with telemetry.isolated() as (reg, trc):
        HabitModel.fit(volunteer)
        counters = reg.snapshot()["counters"]
        spans = [s["name"] for s in trc.export_spans()]
    assert counters == {"habits.fits": 1}
    assert spans == ["habit-fit"]
