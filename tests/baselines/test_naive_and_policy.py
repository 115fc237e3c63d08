"""Tests for the policy protocol and the stock baseline."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DelayBatchPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
    PolicyOutcome,
    SchedulingPolicy,
)
from repro.faults import FaultInjector, FaultPlan, apply_faults
from repro.radio import FullTail, wcdma_model
from repro.traces import NetworkActivity
from tests.radio.rrc_oracle import trace_energy
from tests.radio.test_lanes import columns, lane_radio_on


def tuple_priced_windows(outcome: PolicyOutcome) -> list[tuple[float, float]]:
    """The priced windows as the ``(start, end)`` tuples the column lane
    replaced: every transfer, then the failed attempts' windows."""
    return [(a.time, a.time + a.duration) for a in outcome.activities] + list(
        outcome.failed_windows
    )


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestNaivePolicy:
    def test_identity_schedule(self, test_day):
        outcome = NaivePolicy().execute_day(test_day)
        assert outcome.activities == list(test_day.activities)
        assert isinstance(outcome.tail_policy, FullTail)
        assert outcome.interrupts == 0

    def test_energy_matches_trace_energy(self, test_day, wcdma):
        outcome = NaivePolicy().execute_day(test_day)
        assert outcome.energy(wcdma).energy_j == pytest.approx(
            trace_energy(test_day, wcdma)["energy_j"]
        )

    def test_rejects_multiday(self, volunteer):
        with pytest.raises(ValueError, match="single-day"):
            NaivePolicy().execute_day(volunteer)

    def test_satisfies_protocol(self):
        assert isinstance(NaivePolicy(), SchedulingPolicy)


class TestPolicyOutcome:
    def _outcome(self, **kw):
        acts = [NetworkActivity(0.0, "a", 1000.0, 100.0, 5.0, True)]
        defaults = dict(policy="x", activities=acts)
        defaults.update(kw)
        return PolicyOutcome(**defaults)

    def test_transfer_windows(self):
        outcome = self._outcome()
        assert outcome.priced_lane() == ([0.0], [5.0])
        failed = self._outcome(failed_windows=[(7.0, 7.5)])
        assert failed.priced_lane() == ([0.0, 7.0], [5.0, 7.5])

    def test_priced_lane_equals_the_tuple_windows(self, history_and_days):
        """On real outcomes, faulted or not, the priced lane holds the
        tuple windows' floats, bit for bit."""
        history, days = history_and_days
        policies = [
            NaivePolicy(),
            OraclePolicy(),
            DelayBatchPolicy(10.0),
            NetMasterPolicy(history),
        ]
        checked = failed = 0
        for day in days:
            for policy in policies:
                outcome = policy.execute_day(day)
                faulted, _ = apply_faults(
                    outcome, FaultInjector(FaultPlan.uniform(0.3, seed=checked))
                )
                for o in (outcome, faulted):
                    starts, ends = o.priced_lane()
                    want_starts, want_ends = columns(tuple_priced_windows(o))
                    assert _hex(starts) == _hex(want_starts)
                    assert _hex(ends) == _hex(want_ends)
                    checked += 1
                    failed += len(o.failed_windows)
        assert failed > 0

    def test_payload_validation(self, tiny_trace):
        outcome = self._outcome()
        with pytest.raises(ValueError, match="payload"):
            outcome.validate_payload(tiny_trace)

    def test_wake_energy(self, wcdma):
        outcome = self._outcome(extra_windows=[(100.0, 101.0), (200.0, 201.0)])
        expected = 2 * (wcdma.promo_fach_energy_j + wcdma.p_fach_w * 1.0)
        assert outcome.wake_energy_j(wcdma) == pytest.approx(expected)

    def test_wake_energy_added_to_report(self, wcdma):
        plain = self._outcome().energy(wcdma)
        with_wakes = self._outcome(extra_windows=[(100.0, 101.0)]).energy(wcdma)
        assert with_wakes.energy_j > plain.energy_j
        assert "wake" in with_wakes.state_energy_j

    def test_radio_on_includes_wakes(self, wcdma):
        outcome = self._outcome(extra_windows=[(1000.0, 1001.0)])
        rrc_on = lane_radio_on(outcome.priced_lane(), wcdma, outcome.priced_tail_policy())
        intervals = outcome.merge_radio_on(rrc_on)
        assert not any(lo <= 1000.0 < hi for lo, hi in rrc_on)
        assert any(lo <= 1000.0 < hi for lo, hi in intervals)

    def test_activity_tails_length_checked(self, wcdma):
        outcome = self._outcome(activity_tails=[1.0, 2.0])
        with pytest.raises(ValueError, match="length"):
            outcome.energy(wcdma)

    def test_activity_tails_priced(self, wcdma):
        import math

        full = self._outcome(activity_tails=[math.inf]).energy(wcdma)
        cut = self._outcome(activity_tails=[0.0]).energy(wcdma)
        assert cut.energy_j < full.energy_j
