"""Fault injection, retry, and graceful degradation.

Everything a real fleet's radio throws at the middleware that the
paper's offline evaluation does not: failing transfers, radio outages
and RRC promotion failures — plus the retry and degradation machinery
that keeps the energy savings (and the max-delay guarantee) intact under
them.  :func:`apply_faults` is the only place a finished schedule meets
the fault model.  Corrupt monitoring records are refused, whole
batch at a time, at the fleet service's ingest
(:mod:`repro.service.schemas`, :class:`repro.service.gateway.FleetGateway`).
:mod:`repro.faults.anomalies` supplies the labelled misbehaviour
scenarios (runaway app, radio stuck in DCH) the monitor subsystem is
graded against.
"""

from repro.faults.anomalies import AnomalyInjector
from repro.faults.degradation import CircuitBreaker
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.resilience import FaultStats, apply_faults
from repro.faults.retry import RetryOutcome, RetryPolicy, run_with_retries

__all__ = [
    "AnomalyInjector",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "RetryOutcome",
    "RetryPolicy",
    "apply_faults",
    "run_with_retries",
]
