"""Whole-device replay: trace in, monitored store and energy out.

:class:`DeviceSimulator` wires the DES kernel, screen model, network
interface and monitoring component into one simulated handset and replays
a (possibly rescheduled) day through it.  It serves two purposes:

* **validation** — the energy a replay reports must agree with the
  analytic RRC accounting used by the evaluation harness (the
  integration tests assert exactly this);
* **closing the loop** — the monitoring store a replay produces can be
  fed straight back into :class:`~repro.habits.prediction.HabitModel`,
  demonstrating the full monitor → mine → schedule cycle of Fig. 6 on
  simulated hardware.

The handset's radio never fails.  To replay a day under faults, push its
schedule through :func:`repro.faults.apply_faults` first and replay the
result; the failed attempts and promotions it records are priced by
:meth:`~repro.baselines.policy.PolicyOutcome.finalize_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro._util import DAY
from repro.device.interface import NetworkInterface
from repro.device.kernel import Simulator
from repro.device.monitoring import MonitoringComponent
from repro.device.screen import ScreenModel
from repro.radio.power import RadioPowerModel, wcdma_model
from repro.radio.rrc import EnergyReport, TailPolicy
from repro.telemetry import metrics, tracer
from repro.traces.events import NetworkActivity, Trace
from repro.traces.store import TraceStore


@dataclass
class DeviceRunReport:
    """Everything one replayed day produced."""

    energy: EnergyReport
    store: TraceStore
    transfers: int
    refused: list[tuple[float, str]]
    payload_bytes: float
    monitor_samples: int
    screen_transitions: int
    events_run: int


@dataclass
class DeviceSimulator:
    """Replays single-day traces on a simulated handset."""

    model: RadioPowerModel = field(default_factory=wcdma_model)

    def replay(
        self,
        day: Trace,
        *,
        schedule: Sequence[NetworkActivity] | None = None,
        tail_policy: TailPolicy | None = None,
        data_off_windows: Sequence[tuple[float, float]] | None = None,
    ) -> DeviceRunReport:
        """Replay one day; optionally with a rescheduled activity list.

        ``schedule`` defaults to the day's own activities (stock replay).
        ``data_off_windows`` force the data switch off during the given
        intervals — transfers requested there are refused and reported.
        """
        if day.n_days != 1:
            raise ValueError("replay expects a single-day trace")
        sim = Simulator()
        screen = ScreenModel(sim, list(day.screen_sessions))
        interface = NetworkInterface(sim, self.model)
        monitor = MonitoringComponent(sim, screen, interface)

        for usage in day.usages:
            sim.schedule_at(usage.time, _make_launch(monitor, usage))

        activities = list(day.activities) if schedule is None else list(schedule)
        for activity in activities:
            sim.schedule_at(activity.time, _make_transfer(monitor, interface, activity))

        if data_off_windows:
            for off_start, off_end in data_off_windows:
                if off_end < off_start:
                    raise ValueError(f"invalid data-off window [{off_start}, {off_end}]")
                sim.schedule_at(off_start, interface.disable)
                sim.schedule_at(off_end, interface.enable)

        with tracer().span("device-replay", "device", events=len(activities)):
            sim.run(until=DAY)
        store = monitor.finalize(at=DAY)
        reg = metrics()
        if reg.enabled:
            reg.inc("device.simulator.replays")
            reg.inc("device.simulator.events_run", sim.events_run)
        return DeviceRunReport(
            energy=interface.energy(tail_policy),
            store=store,
            transfers=len(interface.transfers),
            refused=list(interface.refused),
            payload_bytes=interface.total_payload_bytes,
            monitor_samples=monitor.samples_taken,
            screen_transitions=screen.transitions,
            events_run=sim.events_run,
        )


def _make_launch(monitor: MonitoringComponent, usage):
    def launch() -> None:
        monitor.record_app_launch(usage)

    return launch


def _make_transfer(
    monitor: MonitoringComponent,
    interface: NetworkInterface,
    activity: NetworkActivity,
):
    def transfer() -> None:
        if interface.request_transfer(activity):
            monitor.record_network_activity(activity)

    return transfer
