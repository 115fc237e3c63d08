"""The one fault path: schedules built by the core and device layers meet
the fault model only through :func:`repro.faults.apply_faults`."""

from __future__ import annotations

from repro._util import DAY
from repro.baselines import NaivePolicy
from repro.baselines.policy import PolicyOutcome
from repro.core import GapServicer
from repro.device import DeviceSimulator
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, apply_faults
from repro.traces import NetworkActivity


def _pending(t, dur=4.0):
    return NetworkActivity(t, "app", 1000.0, 100.0, dur, False)


def _serviced(gap_start, gap_end, pending):
    """One gap's duty-cycle schedule as the outcome ``apply_faults`` takes."""
    result = GapServicer(initial_s=30.0).service(gap_start, gap_end, pending)
    return PolicyOutcome(policy="duty-cycle", activities=result.executed)


class TestDeviceReplayWithFaults:
    def test_inert_injector_is_bit_for_bit(self, test_day):
        stock = DeviceSimulator().replay(test_day)
        outcome = NaivePolicy().execute_day(test_day)
        inert, _ = apply_faults(outcome, FaultInjector(FaultPlan.uniform(0.0)))
        replayed = DeviceSimulator().replay(test_day, schedule=inert.activities)
        assert replayed.energy == stock.energy
        assert replayed.transfers == stock.transfers

    def test_device_faults_deterministic(self, test_day):
        outcome = NaivePolicy().execute_day(test_day)
        a, _ = apply_faults(outcome, FaultInjector(FaultPlan.uniform(0.4, seed=3)))
        b, _ = apply_faults(outcome, FaultInjector(FaultPlan.uniform(0.4, seed=3)))
        assert a.retries > 0
        assert a.activities == b.activities
        replay_a = DeviceSimulator().replay(test_day, schedule=a.activities)
        replay_b = DeviceSimulator().replay(test_day, schedule=b.activities)
        assert replay_a.energy == replay_b.energy


class TestGapServicerWithFaults:
    def test_inert_injector_unchanged(self):
        outcome = _serviced(0.0, 400.0, [_pending(10.0)])
        faulted, stats = apply_faults(outcome, FaultInjector(FaultPlan()))
        assert faulted.activities == outcome.activities
        assert faulted.failed_windows == []
        assert stats.retries == 0

    def test_faults_delay_serviced_transfers(self):
        injector = FaultInjector(FaultPlan(transfer_failure_rate=1.0, seed=5))
        retry = RetryPolicy(max_attempts=3, max_delay_s=120.0)
        outcome = _serviced(0.0, 4000.0, [_pending(10.0)])
        faulted, stats = apply_faults(outcome, injector, retry)
        assert stats.retries > 0
        assert len(faulted.failed_windows) > 0
        # Scheduled at the 30 s wake; forced no later than the bound.
        (moved,) = faulted.activities
        assert 30.0 < moved.time <= 30.0 + retry.max_delay_s + 1e-9

    def test_faults_keep_a_serviced_transfer_inside_its_day(self):
        # Serviced at the 86 020 s wake of the day's last gap; the retry
        # bound (one hour) would reach past midnight, the day does not.
        outcome = _serviced(85_990.0, DAY, [_pending(86_000.0)])
        assert outcome.activities[0].time == 86_020.0
        injector = FaultInjector(FaultPlan(transfer_failure_rate=1.0, seed=5))
        faulted, stats = apply_faults(outcome, injector)
        (moved,) = faulted.activities
        assert stats.forced == 1
        assert 86_020.0 < moved.time
        assert moved.time + moved.duration <= DAY
