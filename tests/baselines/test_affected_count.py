"""The hold-window baselines count affected interactions as the scan did.

Every policy outcome — schedule, tails and counters — must equal the one
the policy gives with the pairwise scan (the oracle) patched in for
:func:`repro._util.count_in_windows`, on real seeded traces.
"""

from __future__ import annotations

import pytest

from repro.baselines import BatchPolicy, DelayBatchPolicy, DelayPolicy
from repro.baselines import batch, delay, delay_batch
from repro.evaluation.experiments import DELAY_SWEEP_S
from repro.traces import generate_cohort

from tests.baselines.affected_oracle import scan_count

POLICIES = {
    "delay": (delay, [DelayPolicy(s) for s in DELAY_SWEEP_S]),
    "batch": (batch, [BatchPolicy(n) for n in range(11)]),
    "delay-batch": (delay_batch, [DelayBatchPolicy(s) for s in (10.0, 20.0, 60.0)]),
}


@pytest.fixture(scope="module", params=["cohort-2014", "cohort-7", "volunteers-43"])
def days(request, cohort, volunteers):
    traces = {
        "cohort-2014": cohort,
        "cohort-7": generate_cohort(7, seed=7),
        "volunteers-43": volunteers,
    }[request.param]
    return [t.day_view(d) for t in traces for d in range(t.n_days)]


def _outcome_fields(outcome) -> dict:
    # Tail policies are stateless objects without equality; their type
    # is what an outcome carries.
    return {**vars(outcome), "tail_policy": type(outcome.tail_policy)}


@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_outcomes_equal_the_scan_oracle(days, kind, monkeypatch):
    module, policies = POLICIES[kind]
    fast = [[_outcome_fields(p.execute_day(day)) for day in days] for p in policies]
    monkeypatch.setattr(module, "count_in_windows", scan_count)
    oracle = [[_outcome_fields(p.execute_day(day)) for day in days] for p in policies]
    assert fast == oracle
    # The delay sweep exercises the count.  The batching policies release
    # held traffic at the next session start, where the interaction
    # begins, so the half-open windows hold none on these traces.
    affected = sum(f["affected_user_activities"] for row in fast for f in row)
    assert (affected > 0) == (kind == "delay")
