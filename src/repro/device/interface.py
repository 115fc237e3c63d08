"""The cellular network interface of the simulated device.

Tracks the data switch (`svc data enable` / `svc data disable` in the
real middleware), accepts transfer requests, records the resulting
transfer windows, and reports energy through the RRC machine at the end
of a run.  Transfers requested while data is disabled are refused — that
refusal is what the NetMaster runtime observes as a potential wrong
decision when the requester turns out to be the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.device.kernel import Simulator
from repro.radio.power import RadioPowerModel
from repro.radio.rrc import EnergyReport, TailPolicy, simulate
from repro.telemetry import metrics
from repro.traces.events import NetworkActivity


@dataclass
class TransferRecord:
    """One completed transfer on the interface."""

    start: float
    end: float
    app: str
    payload_bytes: float

    @property
    def interval(self) -> tuple[float, float]:
        """``(start, end)`` window of the transfer."""
        return (self.start, self.end)


@dataclass
class NetworkInterface:
    """Data-switch plus transfer recorder."""

    simulator: Simulator
    model: RadioPowerModel
    data_enabled: bool = True
    transfers: list[TransferRecord] = field(default_factory=list)
    refused: list[tuple[float, str]] = field(default_factory=list)
    switch_events: list[tuple[float, bool]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # the data switch
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """`svc data enable` — allow transfers from now on."""
        if not self.data_enabled:
            self.data_enabled = True
            self.switch_events.append((self.simulator.now, True))

    def disable(self) -> None:
        """`svc data disable` — refuse transfers from now on."""
        if self.data_enabled:
            self.data_enabled = False
            self.switch_events.append((self.simulator.now, False))

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def request_transfer(self, activity: NetworkActivity) -> bool:
        """Attempt a transfer now; returns whether it was admitted.

        The transfer occupies ``activity.duration`` seconds of link time
        starting at the current simulation instant.
        """
        now = self.simulator.now
        if not self.data_enabled:
            self.refused.append((now, activity.app))
            metrics().inc("device.interface.refused")
            return False
        self.transfers.append(
            TransferRecord(
                start=now,
                end=now + activity.duration,
                app=activity.app,
                payload_bytes=activity.total_bytes,
            )
        )
        metrics().inc("device.interface.transfers")
        return True

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def windows(self) -> list[tuple[float, float]]:
        """All completed transfer windows."""
        return [t.interval for t in self.transfers]

    def energy(self, tail_policy: TailPolicy | None = None) -> EnergyReport:
        """RRC energy of everything transferred so far."""
        return simulate(self.windows(), self.model, tail_policy)

    @property
    def total_payload_bytes(self) -> float:
        """Total bytes moved over the interface."""
        return sum(t.payload_bytes for t in self.transfers)
