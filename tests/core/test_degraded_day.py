"""Degraded days run :meth:`NetMaster.execute_day`'s own loop, with no plan.

The oracle is the separate duty-cycle-only loop they ran before
(:mod:`tests.core.degraded_oracle`).  A degraded day must equal it field
for field, with the same breaker state and telemetry counters after it,
whichever way the day degraded: a monitor quarantine
(``force_degraded``), history too thin to trust, or an open circuit
breaker.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.netmaster import NetMaster, NetMasterConfig
from repro.evaluation import split_history
from repro.traces import generate_cohort

from tests.core.day_fields import execution_fields
from tests.core.degraded_oracle import DutyCycleOnlyNetMaster, duty_cycle_only_day
from tests.traces.strategies import valid_traces

#: A breaker that trips on any interrupt and stays open for two days, so
#: planned and breaker-degraded days alternate.
TRIGGER_HAPPY = NetMasterConfig(
    breaker_threshold=0.0, breaker_min_interactions=1, breaker_cooldown_days=2
)
MODES = ["forced", "insufficient-history", "open-breaker"]


@pytest.fixture(scope="module", params=["cohort-2014", "cohort-7", "volunteers-43"])
def users(request, volunteers):
    traces = {
        "cohort-2014": lambda: generate_cohort(21, seed=2014),
        "cohort-7": lambda: generate_cohort(21, seed=7),
        "volunteers-43": lambda: volunteers,
    }[request.param]()
    return [split_history(trace, 10) for trace in traces]


def _trained(cls, history, mode: str) -> NetMaster:
    nm = cls(TRIGGER_HAPPY if mode == "open-breaker" else None)
    if mode == "insufficient-history":
        history = split_history(history, 2)[0]
    nm.train(history)
    nm.force_degraded = mode == "forced"
    if mode == "open-breaker":
        # The day before the replay mispredicted: the breaker opens
        # before the first replayed day, and later interrupts reopen it.
        nm.breaker.record(1, 1)
    return nm


def _replay(cls, history, days, mode: str) -> tuple[list, dict]:
    """Each day's fields and the breaker after it, plus the counters."""
    nm = _trained(cls, history, mode)
    with telemetry.isolated(with_tracing=False) as (reg, _):
        out = [
            (execution_fields(nm.execute_day(day)), nm.breaker.state_dict())
            for day in days
        ]
        return out, reg.snapshot()["counters"]


@pytest.mark.parametrize("mode", MODES)
def test_degraded_days_equal_the_oracle(users, mode):
    degraded = planned = 0
    for history, days in users:
        merged = _replay(NetMaster, history, days, mode)
        assert merged == _replay(DutyCycleOnlyNetMaster, history, days, mode)
        flags = [fields["degraded"] for fields, _ in merged[0]]
        degraded += sum(flags)
        planned += len(flags) - sum(flags)
    assert degraded
    assert bool(planned) == (mode == "open-breaker")


@pytest.fixture(scope="module")
def degraded_netmasters(history):
    """A quarantined and an untrusted-history NetMaster: every day degrades."""
    forced = _trained(NetMaster, history, "forced")
    thin = _trained(NetMaster, history, "insufficient-history")
    assert forced.degraded and thin.degraded
    return [forced, thin]


@settings(max_examples=150, deadline=None)
@given(trace=valid_traces(max_days=3), pick=st.integers(0, 1))
def test_any_valid_day_equals_the_oracle(degraded_netmasters, trace, pick):
    nm = degraded_netmasters[pick]
    for day in trace.days():
        merged = execution_fields(nm.execute_day(day))
        assert merged == execution_fields(duty_cycle_only_day(nm, day))
        assert nm.degraded and not nm.breaker.open
