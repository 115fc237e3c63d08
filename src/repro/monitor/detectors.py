"""Streaming per-user anomaly detectors fed at day-close.

Each detector consumes one :class:`DaySignal` per closed day — in day
order, exactly once — and may emit one typed :class:`Alert`.  All of
them are deterministic (pure float arithmetic in a fixed fold order, no
clocks, no randomness) and checkpointable: ``state_dict()`` returns
JSON-safe values whose floats survive the round-trip bit-exactly, and
``load_state`` resumes the detector mid-stream with byte-identical
future verdicts (the same guarantee
:class:`~repro.stream.online_netmaster.OnlineNetMaster` makes).

Detectors that learn a per-user baseline (runaway energy, savings
collapse, model residual) are *self-excluding*: an alerted day is
scored against the history but never folded into it, so a sustained
anomaly keeps firing instead of teaching the baseline to accept it.

Detector thresholds are required keywords: :class:`MonitorConfig` holds
the one set of defaults, and :class:`DetectorBank` passes them in.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.monitor.energy_model import OnlineEnergyModel

__all__ = [
    "Alert",
    "DaySignal",
    "DchStuckDetector",
    "DetectorBank",
    "DriftEscalationDetector",
    "MonitorConfig",
    "ResidualEnergyDetector",
    "RunawayEnergyDetector",
    "SavingsCollapseDetector",
    "SEVERITY_CRITICAL",
    "SEVERITY_WARNING",
]

SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

#: Schema version of every detector/bank state document.
_STATE_FORMAT = 1


@dataclass(frozen=True, slots=True)
class DaySignal:
    """The per-day telemetry slice every detector sees.

    Built at the day-close seam from the priced
    :class:`~repro.evaluation.metrics.PolicyDayMetrics` (and the naive
    always-on baseline priced over the same day), plus the engine's
    cumulative drift-alert counter.  ``transfer_s`` is DCH time under
    the shared RRC accounting, so the stuck-DCH share needs no extra
    radio plumbing.
    """

    user_id: str
    day: int
    energy_j: float
    radio_on_s: float
    transfer_s: float
    naive_energy_j: float
    screen_on_s: float
    events: int
    drift_alerts_total: int
    degraded: bool


@dataclass(frozen=True, slots=True)
class Alert:
    """One detector verdict on one user-day."""

    user_id: str
    day: int
    kind: str
    severity: str
    value: float
    threshold: float
    message: str = ""

    def as_dict(self) -> dict:
        """JSON-safe dump (floats survive bit-exactly)."""
        return asdict(self)


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the whole monitor: detectors plus feedback policy.

    The defaults are deliberately conservative — tuned so the clean
    synthetic cohorts never alert (the byte-equality gate depends on a
    quiet monitor being a no-op) while the :mod:`repro.faults.anomalies`
    scenarios fire reliably.
    """

    #: Runaway-app energy: z-score of the day's J against the user's
    #: own (self-excluding) history.
    runaway_z: float = 6.0
    runaway_min_days: int = 4
    #: Std floor so near-constant users don't alert on noise.
    runaway_min_std_j: float = 25.0
    #: Radio stuck in DCH: alert when DCH seconds exceed this share of
    #: radio-on time (given enough radio-on time to be meaningful).
    #: NetMaster's own batching already pushes clean shares to ~0.86
    #: (compressed transfers, short tails), so the bound sits above
    #: that — only a genuinely pinned radio (foreground hold the
    #: scheduler cannot compress) crosses it.
    dch_share_bound: float = 0.95
    dch_min_radio_s: float = 900.0
    #: Savings collapse: online saving vs its own trailing window.
    collapse_window_days: int = 5
    collapse_drop: float = 0.35
    collapse_min_naive_j: float = 50.0
    #: Habit-drift escalation: consecutive days that raised new
    #: ``OnlineHabitModel`` drift alerts.
    drift_run_days: int = 4
    #: Learned-energy-model residual anomaly.
    residual_z: float = 8.0
    residual_min_days: int = 6
    residual_min_std_j: float = 25.0
    #: Feedback action: ``"quarantine"`` (duty-cycle-only degradation)
    #: or ``"none"`` (detect and publish only).
    action: str = "quarantine"
    #: Minimum days a triggered user serves before release is possible.
    quarantine_days: int = 3
    #: Hysteresis: consecutive alert-free days required for release.
    release_clean_days: int = 2

    def __post_init__(self) -> None:
        if self.action not in ("quarantine", "none"):
            raise ValueError(
                f"action must be 'quarantine' or 'none', got {self.action!r}"
            )
        for name in ("runaway_z", "residual_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.dch_share_bound <= 1:
            raise ValueError(
                f"dch_share_bound must be in (0, 1], got {self.dch_share_bound}"
            )
        if self.collapse_window_days < 1:
            raise ValueError(
                f"collapse_window_days must be >= 1, got {self.collapse_window_days}"
            )
        if not 0 < self.collapse_drop <= 1:
            raise ValueError(
                f"collapse_drop must be in (0, 1], got {self.collapse_drop}"
            )
        if self.drift_run_days < 1:
            raise ValueError(
                f"drift_run_days must be >= 1, got {self.drift_run_days}"
            )
        if self.quarantine_days < 1:
            raise ValueError(
                f"quarantine_days must be >= 1, got {self.quarantine_days}"
            )
        if self.release_clean_days < 0:
            raise ValueError(
                f"release_clean_days must be >= 0, got {self.release_clean_days}"
            )


class _Welford:
    """Deterministic running mean/variance (Welford's fold)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def fold(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def std(self) -> float:
        if self.n < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.n - 1))

    def state_dict(self) -> dict:
        return {"n": self.n, "mean": self.mean, "m2": self.m2}

    def load_state(self, state: dict) -> None:
        self.n = int(state["n"])
        self.mean = float(state["mean"])
        self.m2 = float(state["m2"])


def _severity(value: float, threshold: float, hard: float) -> str:
    return SEVERITY_CRITICAL if value >= hard else SEVERITY_WARNING


class RunawayEnergyDetector:
    """Per-day energy z-score against the user's own history."""

    kind = "runaway_energy"

    def __init__(self, *, z_threshold: float, min_days: int, min_std_j: float) -> None:
        self.z_threshold = float(z_threshold)
        self.min_days = int(min_days)
        self.min_std_j = float(min_std_j)
        self._stats = _Welford()
        self.fired = 0

    def feed(self, signal: DaySignal) -> Alert | None:
        energy = signal.energy_j
        alert = None
        if self._stats.n >= self.min_days:
            std = max(self._stats.std(), self.min_std_j)
            z = (energy - self._stats.mean) / std
            if z > self.z_threshold:
                self.fired += 1
                alert = Alert(
                    user_id=signal.user_id,
                    day=signal.day,
                    kind=self.kind,
                    severity=_severity(z, self.z_threshold, 2 * self.z_threshold),
                    value=z,
                    threshold=self.z_threshold,
                    message=(
                        f"day energy {energy:.1f} J is {z:.1f} sigma above the "
                        f"user's mean {self._stats.mean:.1f} J"
                    ),
                )
        if alert is None:
            self._stats.fold(energy)
        return alert

    def state_dict(self) -> dict:
        return {
            "format": _STATE_FORMAT,
            "stats": self._stats.state_dict(),
            "fired": self.fired,
        }

    def load_state(self, state: dict) -> None:
        self._stats.load_state(state["stats"])
        self.fired = int(state["fired"])


class DchStuckDetector:
    """DCH-second share of radio-on time above a hard bound."""

    kind = "dch_stuck"

    def __init__(self, *, share_bound: float, min_radio_s: float) -> None:
        self.share_bound = float(share_bound)
        self.min_radio_s = float(min_radio_s)
        self.fired = 0

    def feed(self, signal: DaySignal) -> Alert | None:
        if signal.radio_on_s < self.min_radio_s:
            return None
        share = signal.transfer_s / signal.radio_on_s
        if share <= self.share_bound:
            return None
        self.fired += 1
        hard = self.share_bound + 0.5 * (1.0 - self.share_bound)
        return Alert(
            user_id=signal.user_id,
            day=signal.day,
            kind=self.kind,
            severity=_severity(share, self.share_bound, hard),
            value=share,
            threshold=self.share_bound,
            message=(
                f"DCH share {share:.2f} of {signal.radio_on_s:.0f}s radio-on "
                f"exceeds {self.share_bound:.2f}"
            ),
        )

    def state_dict(self) -> dict:
        return {"format": _STATE_FORMAT, "fired": self.fired}

    def load_state(self, state: dict) -> None:
        self.fired = int(state["fired"])


class SavingsCollapseDetector:
    """Online saving falling far below its own trailing window."""

    kind = "savings_collapse"

    def __init__(self, *, window_days: int, drop: float, min_naive_j: float) -> None:
        self.window_days = int(window_days)
        self.drop = float(drop)
        self.min_naive_j = float(min_naive_j)
        self._window: list[float] = []
        self.fired = 0

    def feed(self, signal: DaySignal) -> Alert | None:
        if signal.naive_energy_j < self.min_naive_j:
            return None
        saving = 1.0 - signal.energy_j / signal.naive_energy_j
        alert = None
        if len(self._window) >= self.window_days:
            base = sum(self._window) / len(self._window)
            if base - saving > self.drop:
                self.fired += 1
                alert = Alert(
                    user_id=signal.user_id,
                    day=signal.day,
                    kind=self.kind,
                    severity=_severity(base - saving, self.drop, 2 * self.drop),
                    value=saving,
                    threshold=base - self.drop,
                    message=(
                        f"saving {saving:+.3f} dropped {base - saving:.3f} below "
                        f"the trailing {len(self._window)}-day mean {base:+.3f}"
                    ),
                )
        if alert is None:
            self._window.append(saving)
            if len(self._window) > self.window_days:
                self._window.pop(0)
        return alert

    def state_dict(self) -> dict:
        return {
            "format": _STATE_FORMAT,
            "window": list(self._window),
            "fired": self.fired,
        }

    def load_state(self, state: dict) -> None:
        self._window = [float(x) for x in state["window"]]
        self.fired = int(state["fired"])


class DriftEscalationDetector:
    """Consecutive days raising new ``OnlineHabitModel`` drift alerts.

    Fed the engine's *cumulative* drift-alert counter; a day counts
    toward the run when the counter moved since the previous signal.
    When multiple days close in one drain the whole delta lands on the
    batch's first signal — deterministic, and conservative (a
    double-close can only shorten a run, never fabricate one).
    """

    kind = "drift_escalation"

    def __init__(self, *, run_days: int) -> None:
        self.run_days = int(run_days)
        self._last_total = 0
        self._streak = 0
        self.fired = 0

    def feed(self, signal: DaySignal) -> Alert | None:
        delta = signal.drift_alerts_total - self._last_total
        self._last_total = signal.drift_alerts_total
        self._streak = self._streak + 1 if delta > 0 else 0
        if self._streak < self.run_days:
            return None
        self.fired += 1
        return Alert(
            user_id=signal.user_id,
            day=signal.day,
            kind=self.kind,
            severity=_severity(
                float(self._streak), float(self.run_days), 2.0 * self.run_days
            ),
            value=float(self._streak),
            threshold=float(self.run_days),
            message=(
                f"{self._streak} consecutive days raised habit drift alerts "
                f"(threshold {self.run_days})"
            ),
        )

    def state_dict(self) -> dict:
        return {
            "format": _STATE_FORMAT,
            "last_total": self._last_total,
            "streak": self._streak,
            "fired": self.fired,
        }

    def load_state(self, state: dict) -> None:
        self._last_total = int(state["last_total"])
        self._streak = int(state["streak"])
        self.fired = int(state["fired"])


class ResidualEnergyDetector:
    """Learned-energy-model residual anomaly (over-consumption only).

    Wraps an :class:`~repro.monitor.energy_model.OnlineEnergyModel`:
    each day is predicted from its usage features *before* being folded
    in, and a day whose actual energy exceeds the prediction by a large
    residual z-score alerts.  Alerted days are excluded from both the
    model and the residual statistics.
    """

    kind = "energy_residual"

    def __init__(self, *, z_threshold: float, min_days: int, min_std_j: float) -> None:
        self.z_threshold = float(z_threshold)
        self.min_days = int(min_days)
        self.min_std_j = float(min_std_j)
        self.model = OnlineEnergyModel()
        self._resid = _Welford()
        self.fired = 0

    def feed(self, signal: DaySignal) -> Alert | None:
        features = OnlineEnergyModel.features_of(signal)
        predicted = self.model.predict(features)
        alert = None
        if predicted is not None and self._resid.n >= self.min_days:
            residual = signal.energy_j - predicted
            std = max(self._resid.std(), self.min_std_j)
            z = (residual - self._resid.mean) / std
            if z > self.z_threshold:
                self.fired += 1
                alert = Alert(
                    user_id=signal.user_id,
                    day=signal.day,
                    kind=self.kind,
                    severity=_severity(z, self.z_threshold, 2 * self.z_threshold),
                    value=z,
                    threshold=self.z_threshold,
                    message=(
                        f"actual {signal.energy_j:.1f} J vs predicted "
                        f"{predicted:.1f} J: residual {z:.1f} sigma above history"
                    ),
                )
        if alert is None:
            if predicted is not None:
                self._resid.fold(signal.energy_j - predicted)
            self.model.observe(features, signal.energy_j)
        return alert

    def state_dict(self) -> dict:
        return {
            "format": _STATE_FORMAT,
            "model": self.model.state_dict(),
            "resid": self._resid.state_dict(),
            "fired": self.fired,
        }

    def load_state(self, state: dict) -> None:
        self.model = OnlineEnergyModel.from_state(state["model"])
        self._resid.load_state(state["resid"])
        self.fired = int(state["fired"])


@dataclass
class DetectorBank:
    """All detectors of one user, fed in a fixed order."""

    user_id: str
    config: MonitorConfig = field(default_factory=MonitorConfig)

    def __post_init__(self) -> None:
        cfg = self.config
        self.detectors = [
            RunawayEnergyDetector(
                z_threshold=cfg.runaway_z,
                min_days=cfg.runaway_min_days,
                min_std_j=cfg.runaway_min_std_j,
            ),
            DchStuckDetector(
                share_bound=cfg.dch_share_bound, min_radio_s=cfg.dch_min_radio_s
            ),
            SavingsCollapseDetector(
                window_days=cfg.collapse_window_days,
                drop=cfg.collapse_drop,
                min_naive_j=cfg.collapse_min_naive_j,
            ),
            DriftEscalationDetector(run_days=cfg.drift_run_days),
            ResidualEnergyDetector(
                z_threshold=cfg.residual_z,
                min_days=cfg.residual_min_days,
                min_std_j=cfg.residual_min_std_j,
            ),
        ]

    def feed(self, signal: DaySignal) -> list[Alert]:
        """Run every detector over one day-close signal, in bank order."""
        alerts = []
        for detector in self.detectors:
            alert = detector.feed(signal)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def state_dict(self) -> dict:
        """JSON-safe bank state, keyed by detector kind."""
        return {
            "format": _STATE_FORMAT,
            "detectors": {d.kind: d.state_dict() for d in self.detectors},
        }

    @classmethod
    def load_state(
        cls, state: dict, *, user_id: str, config: MonitorConfig
    ) -> "DetectorBank":
        """Rebuild a bank mid-stream; future verdicts are byte-identical."""
        fmt = state.get("format")
        if fmt != _STATE_FORMAT:
            raise ValueError(
                f"unsupported detector bank state format: {fmt!r} "
                f"(this build reads format {_STATE_FORMAT})"
            )
        bank = cls(user_id, config)
        docs = state["detectors"]
        for detector in bank.detectors:
            detector.load_state(docs[detector.kind])
        return bank
