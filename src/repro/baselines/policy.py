"""The scheduling-policy protocol shared by NetMaster and the baselines.

A policy takes one held-out day (plus optional training history) and
produces a :class:`PolicyOutcome`: the transfer schedule that actually
executed, the radio tail behaviour, any extra radio-on windows (duty-cycle
wake-ups), and the user-impact accounting.  The evaluation harness then
prices every outcome with the same RRC machine, which is what makes the
Fig. 7-9 comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.radio.lanes import _replay_lanes
from repro.radio.power import RadioPowerModel
from repro.radio.rrc import EnergyReport, FullTail, TailPolicy
from repro.traces.events import NetworkActivity, Trace


@dataclass
class PolicyOutcome:
    """Everything a day under one policy produced."""

    policy: str
    activities: list[NetworkActivity]
    tail_policy: TailPolicy = field(default_factory=FullTail)
    extra_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Optional per-activity tail allowances (fast dormancy): parallel to
    #: ``activities``; extra windows always get a zero tail when set.
    activity_tails: list[float] | None = None
    interrupts: int = 0
    user_interactions: int = 0
    affected_user_activities: int = 0
    deferred: int = 0
    #: Partial radio windows burned by failed transfer attempts (fault
    #: injection); priced as DCH time with a zero tail allowance when the
    #: outcome uses per-activity tails, with the policy tail otherwise.
    failed_windows: list[tuple[float, float]] = field(default_factory=list)
    #: RRC promotions that failed (charged promotion energy, no transfer).
    failed_promotions: int = 0
    #: Extra transfer attempts beyond the first, across all activities.
    retries: int = 0

    def priced_lane(self) -> tuple[list[float], list[float]]:
        """The windows the RRC pricing pass replays, as ``(starts, ends)``.

        Every transfer (``a.time`` to ``a.time + a.duration``), then the
        partial windows of failed attempts; idle wake-ups are priced
        separately.  Built straight from the records, once per priced
        cell, with no object per window.
        """
        activities = self.activities
        starts = [a.time for a in activities]
        ends = [a.time + a.duration for a in activities]
        for lo, hi in self.failed_windows:
            starts.append(lo)
            ends.append(hi)
        return starts, ends

    def priced_tail_policy(self) -> TailPolicy | None:
        """The tail policy the RRC pricing pass should use.

        ``None`` when per-activity tails are set — the allowances carry
        the tail semantics and the simulator must not also apply a
        policy-level cutoff.
        """
        return self.tail_policy if self.activity_tails is None else None

    def priced_window_tails(self) -> list[float] | None:
        """Per-window tail allowances aligned with :meth:`priced_lane`."""
        if self.activity_tails is None:
            return None
        if len(self.activity_tails) != len(self.activities):
            raise ValueError(
                f"activity_tails length {len(self.activity_tails)} does not match "
                f"{len(self.activities)} activities"
            )
        # A failed attempt never earns a tail: the radio is cut as soon as
        # the attempt aborts.
        return list(self.activity_tails) + [0.0] * len(self.failed_windows)

    def wake_energy_j(self, model: RadioPowerModel) -> float:
        """Cost of the idle duty-cycle wake-ups in ``extra_windows``.

        A wake-up with pending traffic is already priced through the
        transfer it services; an *idle* wake-up enables data briefly and
        exchanges control signalling without a data promotion — modelled
        as a FACH-level window (FACH promotion + FACH power).
        """
        if not self.extra_windows:
            return 0.0
        return sum(
            model.promo_fach_energy_j + model.p_fach_w * (hi - lo)
            for lo, hi in self.extra_windows
        )

    def energy(self, model: RadioPowerModel) -> EnergyReport:
        """RRC energy of this outcome under ``model`` (incl. wake-ups).

        Fault accounting rides on top of the base simulation: failed
        attempts are priced as extra (partial, tail-less) DCH windows and
        each failed promotion is charged one IDLE→DCH promotion.
        """
        [base], _, _ = _replay_lanes(
            [self.priced_lane()],
            model,
            [self.priced_tail_policy()],
            [self.priced_window_tails()],
        )
        return self.finalize_energy(base, model)

    def finalize_energy(self, base: EnergyReport, model: RadioPowerModel) -> EnergyReport:
        """Fold wake-up and fault surcharges into a base RRC report.

        Split out of :meth:`energy` so the batch pricer
        (:mod:`repro.core.batch`) can apply the identical scalar
        adjustment to reports produced by the lane kernel.
        """
        wake_e = self.wake_energy_j(model)
        extra_e = wake_e + self.failed_promotions * model.promo_idle_energy_j
        if extra_e == 0.0:
            return base
        wake_s = sum(hi - lo for lo, hi in self.extra_windows)
        state = dict(base.state_energy_j)
        if wake_e:
            state["wake"] = wake_e
        if self.failed_promotions:
            state["promo"] = (
                state.get("promo", 0.0) + self.failed_promotions * model.promo_idle_energy_j
            )
        return EnergyReport(
            energy_j=base.energy_j + extra_e,
            radio_on_s=base.radio_on_s
            + wake_s
            + self.failed_promotions * model.promo_idle_dch_s,
            transfer_s=base.transfer_s,
            tail_s=base.tail_s,
            promo_idle_count=base.promo_idle_count + self.failed_promotions,
            promo_fach_count=base.promo_fach_count + len(self.extra_windows),
            window_count=base.window_count,
            state_energy_j=state,
        )

    def merge_radio_on(
        self, intervals: list[tuple[float, float]]
    ) -> list[tuple[float, float]]:
        """Fuse RRC radio-on intervals with the idle wake windows (the
        radio is enabled there even though no data moves)."""
        from repro._util import merge_intervals

        return merge_intervals(list(intervals) + list(self.extra_windows))

    def validate_payload(
        self,
        day: Trace,
        *,
        src_bytes: float | None = None,
        out_bytes: float | None = None,
    ) -> None:
        """Check payload conservation against the source day.

        ``src_bytes`` / ``out_bytes`` let batch pricers pass precomputed
        activity-payload sums (grids reuse the same day across policies);
        they must equal the sums computed here.
        """
        src = (
            sum(a.total_bytes for a in day.activities)
            if src_bytes is None
            else src_bytes
        )
        out = (
            sum(a.total_bytes for a in self.activities)
            if out_bytes is None
            else out_bytes
        )
        if abs(src - out) > 1e-6 * max(src, 1.0):
            raise ValueError(
                f"{self.policy}: payload not conserved ({src} -> {out} bytes)"
            )


@runtime_checkable
class SchedulingPolicy(Protocol):
    """A day-level network-activity scheduler.

    Policies may additionally expose a ``day_independent: bool`` class
    attribute: ``True`` declares that ``execute_day`` is a pure function
    of the day (no state carried between calls), which lets the parallel
    runner fan individual days of one policy over worker processes.
    Policies without the attribute are treated as stateful and only
    parallelized at the (policy × user) grid level, where each worker
    replays a full day sequence in order.
    """

    name: str

    def execute_day(self, day: Trace) -> PolicyOutcome:
        """Replay one single-day trace under this policy."""
        ...
