"""Fleet anomaly detection, alert publishing, and scheduler feedback.

The monitor closes the observe→detect→publish→act loop over the
streaming fleet (ROADMAP item 4):

* :mod:`repro.monitor.detectors` — streaming per-user detectors fed one
  :class:`~repro.monitor.detectors.DaySignal` per closed day, emitting
  typed :class:`~repro.monitor.detectors.Alert` records;
* :mod:`repro.monitor.sinks` — :class:`~repro.monitor.sinks.MonitorHub`
  fan-out to sinks (an atomically published JSONL log, a ring buffer)
  with per-sink failure isolation;
* :mod:`repro.monitor.feedback` — alerts become scheduler hints: a
  quarantine policy flips an alerted user's engine to duty-cycle-only
  degradation, with hysteresis for release;
* :mod:`repro.monitor.energy_model` — a least-squares per-user
  daily-energy predictor used as a detector input and as a prediction
  baseline next to the paper's habit model.

The cardinal invariant, shared with every prior subsystem: attaching a
monitor that never fires leaves fleet decisions and WAL bytes
byte-identical to an unmonitored run.  Feedback state is only written
into engine checkpoints when an alert actually fired.

The experiment driver lives in :mod:`repro.monitor.experiment`
(``python -m repro monitor``); it is not imported here to keep this
package importable from the fleet without pulling the experiment stack.
"""

from repro.monitor.detectors import (
    Alert,
    DaySignal,
    DchStuckDetector,
    DetectorBank,
    DriftEscalationDetector,
    MonitorConfig,
    ResidualEnergyDetector,
    RunawayEnergyDetector,
    SavingsCollapseDetector,
)
from repro.monitor.energy_model import OnlineEnergyModel
from repro.monitor.feedback import UserMonitor, day_signals, signal_of
from repro.monitor.sinks import JsonlAlertSink, MonitorHub, RingAlertSink

__all__ = [
    "Alert",
    "DaySignal",
    "DchStuckDetector",
    "DetectorBank",
    "DriftEscalationDetector",
    "JsonlAlertSink",
    "MonitorConfig",
    "MonitorHub",
    "OnlineEnergyModel",
    "ResidualEnergyDetector",
    "RingAlertSink",
    "RunawayEnergyDetector",
    "SavingsCollapseDetector",
    "UserMonitor",
    "day_signals",
    "signal_of",
]
