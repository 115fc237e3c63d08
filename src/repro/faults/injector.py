"""Deterministic fault injection for the NetMaster pipeline.

A real deployment does not live in the perfect world of the paper's
offline analysis: transfers fail on lossy cellular links, radios lose
coverage in bursts, and RRC promotions time out.  :class:`FaultPlan`
describes *how much* of each failure mode to inject;
:class:`FaultInjector` answers, fully deterministically, *which*
individual attempts fail.  :func:`repro.faults.apply_faults` is the one
place a schedule meets these answers.

Determinism is counter-based: every random decision is keyed by
``(day_key, index, attempt, channel)`` through a Philox generator, so

* the same seed always produces the same failures, regardless of how
  many other draws happened before (no shared-stream coupling);
* raising a fault rate strictly grows the failure set (each decision
  compares the *same* uniform against a larger threshold), which is what
  makes the robustness sweep monotone by construction;
* a plan with all rates at zero injects nothing and perturbs nothing —
  the fault-free pipeline reproduces the stock results bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, check_fraction, check_positive

#: Philox channel assignments — one per independent decision family.
_CH_TRANSFER = 0
_CH_PROMOTION = 1
_CH_OUTAGE_POS = 2
_CH_OUTAGE_KEEP = 3


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """How much of each failure mode to inject (all rates default to 0).

    ``transfer_failure_rate`` — per-attempt Bernoulli probability that a
    transfer aborts mid-flight (charged ``failed_attempt_fraction`` of
    its radio time).  ``promotion_failure_rate`` — per-attempt
    probability that the IDLE→DCH promotion itself fails (charged one
    promotion, no transfer time).  Outages are burst windows during
    which *every* attempt fails: ``outage_candidates_per_day`` windows
    are drawn per day and each fires with ``outage_keep_prob``.
    """

    seed: int = 0
    transfer_failure_rate: float = 0.0
    promotion_failure_rate: float = 0.0
    outage_keep_prob: float = 0.0
    outage_candidates_per_day: int = 2
    outage_duration_s: float = 900.0
    failed_attempt_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_fraction("transfer_failure_rate", self.transfer_failure_rate)
        check_fraction("promotion_failure_rate", self.promotion_failure_rate)
        check_fraction("outage_keep_prob", self.outage_keep_prob)
        check_fraction("failed_attempt_fraction", self.failed_attempt_fraction)
        check_positive("outage_duration_s", self.outage_duration_s)
        if self.outage_candidates_per_day < 0:
            raise ValueError(
                f"outage_candidates_per_day must be >= 0, got {self.outage_candidates_per_day}"
            )

    @property
    def inert(self) -> bool:
        """Whether this plan can never inject anything."""
        return (
            self.transfer_failure_rate == 0.0
            and self.promotion_failure_rate == 0.0
            and (self.outage_keep_prob == 0.0 or self.outage_candidates_per_day == 0)
        )

    @classmethod
    def uniform(cls, rate: float, *, seed: int = 0) -> "FaultPlan":
        """One-knob plan for sweeps: scale every radio fault by ``rate``.

        Transfers fail at ``rate``, promotions at ``rate / 2``, and each
        of the two daily outage candidates fires with probability
        ``rate``.
        """
        check_fraction("rate", rate)
        return cls(
            seed=seed,
            transfer_failure_rate=rate,
            promotion_failure_rate=rate / 2.0,
            outage_keep_prob=rate,
        )


@dataclass
class FaultInjector:
    """Answers per-attempt failure questions for one :class:`FaultPlan`."""

    plan: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        self._outage_cache: dict[int, list[tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # counter-based randomness
    # ------------------------------------------------------------------
    def _uniform(self, day_key: int, index: int, attempt: int, channel: int) -> float:
        """One uniform draw at a fixed Philox counter position.

        Each position yields at most one scalar, so distinct counters
        never share bits and every decision is independent of call
        order.
        """
        bitgen = np.random.Philox(
            key=self.plan.seed & 0xFFFFFFFFFFFFFFFF,
            counter=[channel, attempt, index, day_key],
        )
        return float(np.random.Generator(bitgen).random())

    # ------------------------------------------------------------------
    # radio faults
    # ------------------------------------------------------------------
    def outage_windows(self, day_key: int) -> list[tuple[float, float]]:
        """The burst radio-outage windows of one day (sorted, cached)."""
        cached = self._outage_cache.get(day_key)
        if cached is not None:
            return cached
        windows: list[tuple[float, float]] = []
        if self.plan.outage_keep_prob > 0.0:
            span = max(0.0, DAY - self.plan.outage_duration_s)
            for k in range(self.plan.outage_candidates_per_day):
                keep = self._uniform(day_key, k, 0, _CH_OUTAGE_KEEP)
                if keep >= self.plan.outage_keep_prob:
                    continue
                start = self._uniform(day_key, k, 0, _CH_OUTAGE_POS) * span
                windows.append((start, start + self.plan.outage_duration_s))
        windows.sort()
        self._outage_cache[day_key] = windows
        return windows

    def in_outage(self, day_key: int, time_of_day: float) -> bool:
        """Whether ``time_of_day`` falls inside an outage window."""
        return any(lo <= time_of_day < hi for lo, hi in self.outage_windows(day_key))

    def outage_end(self, day_key: int, time_of_day: float) -> float:
        """End of the outage covering ``time_of_day`` (or the time itself)."""
        for lo, hi in self.outage_windows(day_key):
            if lo <= time_of_day < hi:
                return hi
        return time_of_day

    def attempt_fails(
        self, day_key: int, index: int, attempt: int, time_of_day: float
    ) -> str | None:
        """Failure reason for one transfer attempt, or ``None`` on success.

        ``index`` identifies the transfer within the day, ``attempt`` is
        1-based.  Reasons: ``"outage"`` (radio has no coverage),
        ``"promotion"`` (RRC promotion failed — promotion energy only),
        ``"transfer"`` (Bernoulli mid-flight abort — partial transfer
        energy).
        """
        if self.plan.inert:
            return None
        if self.in_outage(day_key, time_of_day):
            return "outage"
        if (
            self.plan.promotion_failure_rate > 0.0
            and self._uniform(day_key, index, attempt, _CH_PROMOTION)
            < self.plan.promotion_failure_rate
        ):
            return "promotion"
        if (
            self.plan.transfer_failure_rate > 0.0
            and self._uniform(day_key, index, attempt, _CH_TRANSFER)
            < self.plan.transfer_failure_rate
        ):
            return "transfer"
        return None
