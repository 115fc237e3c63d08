"""``NetMaster._service_gaps`` finds each gap's transfers as the scan did.

The bisecting version must give the whole replayed day the scan oracle
(:mod:`tests.core.service_gaps_oracle`) gives, on seeded cohorts, on the
planned and the duty-cycle-only path, and on synthetic gaps whose
transfers sit on the gap boundaries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import DAY, HOUR
from repro.core.netmaster import NetMaster
from repro.evaluation import split_history
from repro.traces import NetworkActivity, generate_cohort

from tests.core.day_fields import execution_fields
from tests.core.service_gaps_oracle import scan_service_gaps


@pytest.fixture(scope="module", params=["cohort-2014", "cohort-7", "volunteers-43"])
def users(request, volunteers):
    traces = {
        "cohort-2014": lambda: generate_cohort(21, seed=2014),
        "cohort-7": lambda: generate_cohort(21, seed=7),
        "volunteers-43": lambda: volunteers,
    }[request.param]()
    return [split_history(trace, 10) for trace in traces]


@pytest.mark.parametrize("degraded", [False, True], ids=["planned", "duty-cycle-only"])
def test_days_equal_the_scan_oracle(users, degraded, monkeypatch):
    def replay() -> list[list[dict]]:
        out = []
        for history, days in users:
            nm = NetMaster()
            nm.train(history)
            nm.force_degraded = degraded
            out.append([execution_fields(nm.execute_day(day)) for day in days])
        return out

    fast = replay()
    monkeypatch.setattr(NetMaster, "_service_gaps", scan_service_gaps)
    assert fast == replay()
    assert all(d["degraded"] == degraded for user in fast for d in user)
    assert any(d["duty_serviced"] for user in fast for d in user)


@pytest.fixture(scope="module")
def servicer(history):
    nm = NetMaster()
    nm.train(history)
    return nm


@st.composite
def gap_inputs(draw):
    busy = [
        (start, min(DAY, start + length))
        for start, length in draw(
            st.lists(
                st.tuples(st.floats(0.0, DAY - 1.0), st.floats(1e-3, 4 * HOUR)),
                max_size=8,
            )
        )
    ]
    edges = sorted({0.0, *(t for interval in busy for t in interval)} - {DAY})
    times = draw(
        st.lists(
            st.one_of(st.floats(0.0, DAY - 1.0), st.sampled_from(edges)), max_size=30
        )
    )
    pending = [NetworkActivity(t, "sync", 500.0, 0.0, 1.0, False) for t in sorted(times)]
    return busy, pending


@settings(max_examples=300, deadline=None)
@given(inputs=gap_inputs())
def test_synthetic_gaps_equal_the_scan_oracle(servicer, inputs):
    busy, pending = inputs
    fast_executed, scan_executed = [], []
    fast = servicer._service_gaps(busy, pending, fast_executed)
    scan = scan_service_gaps(servicer, busy, pending, scan_executed)
    assert fast == scan
    assert fast_executed == scan_executed
