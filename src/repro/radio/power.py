"""Cellular radio power models.

The paper estimates network energy with the model-based approach of
Huang et al. (MobiSys'12) and Schulman et al. (MobiCom'10): a radio is in
one of a few RRC states, each with a characteristic power draw, and state
transitions follow promotion delays and inactivity ("tail") timers.  The
tail energy after each transfer is what makes isolated small screen-off
transfers so expensive — and what NetMaster's batching amortizes.

Two parameter sets are bundled: UMTS/WCDMA (the paper's China Unicom 3G
testbed) and LTE (for the generality experiments).  All powers are watts,
all times seconds, all energies joules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_positive


@dataclass(frozen=True, slots=True)
class RadioPowerModel:
    """RRC power/timer parameters for one radio technology.

    Parameters
    ----------
    name:
        Human-readable label (``"wcdma"``, ``"lte"``).
    p_idle_w:
        Baseline power in IDLE (kept out of "radio-on" accounting).
    p_dch_w:
        Power while transferring (DCH / LTE continuous reception).
    p_fach_w:
        Power in the shared-channel / DRX-tail state.
    promo_idle_dch_s, promo_idle_dch_w:
        IDLE→DCH promotion latency and average power.
    promo_fach_dch_s, promo_fach_dch_w:
        FACH→DCH promotion latency and average power.
    dch_tail_s:
        Inactivity time held at DCH power after the last byte.
    fach_tail_s:
        Further inactivity time at FACH power before demotion to IDLE.
    """

    name: str
    p_idle_w: float
    p_dch_w: float
    p_fach_w: float
    promo_idle_dch_s: float
    promo_idle_dch_w: float
    promo_fach_dch_s: float
    promo_fach_dch_w: float
    dch_tail_s: float
    fach_tail_s: float

    def __post_init__(self) -> None:
        check_positive("p_idle_w", self.p_idle_w, strict=False)
        check_positive("p_dch_w", self.p_dch_w)
        check_positive("p_fach_w", self.p_fach_w, strict=False)
        check_positive("promo_idle_dch_s", self.promo_idle_dch_s, strict=False)
        check_positive("promo_idle_dch_w", self.promo_idle_dch_w, strict=False)
        check_positive("promo_fach_dch_s", self.promo_fach_dch_s, strict=False)
        check_positive("promo_fach_dch_w", self.promo_fach_dch_w, strict=False)
        check_positive("dch_tail_s", self.dch_tail_s, strict=False)
        check_positive("fach_tail_s", self.fach_tail_s, strict=False)
        if self.p_dch_w < self.p_fach_w:
            raise ValueError("p_dch_w must be >= p_fach_w")

    @property
    def tail_s(self) -> float:
        """Total inactivity tail (DCH tail + FACH tail)."""
        return self.dch_tail_s + self.fach_tail_s

    @property
    def full_tail_energy_j(self) -> float:
        """Energy of one complete (untruncated) tail."""
        return self.dch_tail_s * self.p_dch_w + self.fach_tail_s * self.p_fach_w

    @property
    def promo_idle_energy_j(self) -> float:
        """Energy of one IDLE→DCH promotion."""
        return self.promo_idle_dch_s * self.promo_idle_dch_w

    @property
    def promo_fach_energy_j(self) -> float:
        """Energy of one FACH→DCH promotion."""
        return self.promo_fach_dch_s * self.promo_fach_dch_w

    def isolated_transfer_energy_j(self, duration_s: float) -> float:
        """Energy of one isolated transfer: promotion + DCH + full tail.

        This is the paper's ``g`` function for ΔE (the energy a screen-off
        activity costs when executed on an otherwise-idle radio, all of
        which is saved by merging it into an already-active slot except the
        marginal DCH transfer time).
        """
        check_positive("duration_s", duration_s)
        return (
            self.promo_idle_energy_j
            + duration_s * self.p_dch_w
            + self.full_tail_energy_j
        )

    def marginal_transfer_energy_j(self, duration_s: float) -> float:
        """Energy of a transfer piggybacked on an already-DCH radio."""
        check_positive("duration_s", duration_s)
        return duration_s * self.p_dch_w

    def saved_energy_j(self, duration_s: float) -> float:
        """ΔE of rescheduling one screen-off activity into an active slot.

        The promotion and tail are eliminated entirely; the DCH transfer
        time itself must still be paid, so it cancels out.
        """
        return self.isolated_transfer_energy_j(duration_s) - self.marginal_transfer_energy_j(
            duration_s
        )


def wcdma_model() -> RadioPowerModel:
    """UMTS/WCDMA parameters (3G; the paper's China Unicom testbed).

    Powers and timers follow the published 3G measurements the paper cites
    (Huang et al. / Qian et al.): DCH ≈ 0.8 W, FACH ≈ 0.46 W, 2 s
    IDLE→DCH promotion, 5 s DCH tail and 12 s FACH tail.
    """
    return RadioPowerModel(
        name="wcdma",
        p_idle_w=0.01,
        p_dch_w=0.80,
        p_fach_w=0.46,
        promo_idle_dch_s=2.0,
        promo_idle_dch_w=0.53,
        promo_fach_dch_s=1.5,
        promo_fach_dch_w=0.70,
        dch_tail_s=5.0,
        fach_tail_s=12.0,
    )


def lte_model() -> RadioPowerModel:
    """LTE parameters from Huang et al. (MobiSys'12).

    LTE has a single continuous-reception tail (~11.6 s at ~1.06 W) before
    entering DRX; we map it onto the FACH-tail leg with a zero DCH tail.
    """
    return RadioPowerModel(
        name="lte",
        p_idle_w=0.025,
        p_dch_w=1.21,
        p_fach_w=1.06,
        promo_idle_dch_s=0.26,
        promo_idle_dch_w=1.2,
        promo_fach_dch_s=0.1,
        promo_fach_dch_w=1.2,
        dch_tail_s=0.0,
        fach_tail_s=11.6,
    )
