"""Seeded anomaly scenarios: the energy devourers the monitor must catch.

Where :class:`~repro.faults.injector.FaultInjector` breaks the radio,
:class:`AnomalyInjector` breaks the *user*: it rewrites a clean
:class:`~repro.traces.events.Trace` into one carrying a known
misbehaviour — a runaway app bursting background transfers all day, or
a transfer pattern that pins the radio in DCH — so detector
precision/recall can be measured against labelled ground truth
(``python -m repro monitor``).

The injector deliberately does **not** import :mod:`repro.monitor` or
the stream engine.  It speaks only the trace data model, so the
dependency arrow keeps pointing from monitoring code to fault code in
tests, never the other way.

Determinism is counter-based like the other injectors: every jittered
placement is keyed by ``(channel, invocation, day, slot)`` through a
Philox generator, so a seeded anomaly schedule is reproducible
regardless of call order.  Injected activities respect every trace
invariant — chronological order, the screen-state provenance flag,
the day horizon — so the rewritten trace validates like a real one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY
from repro.traces.events import NetworkActivity, Trace

__all__ = ["AnomalyInjector"]

#: Philox channel assignments — one per independent decision family.
_CH_RUNAWAY = 0
_CH_DCH = 1


@dataclass
class AnomalyInjector:
    """Rewrites clean traces into labelled anomaly scenarios."""

    seed: int = 0
    #: Count of injector invocations (keys the Philox counter).
    injected: int = field(default=0, init=False)

    def _uniform(self, channel: int, day: int, slot: int) -> float:
        bitgen = np.random.Philox(
            key=self.seed & 0xFFFFFFFFFFFFFFFF,
            counter=[channel, self.injected, day, slot],
        )
        return float(np.random.Generator(bitgen).random())

    def _with_activities(self, trace: Trace, extra: list[NetworkActivity]) -> Trace:
        merged = sorted(
            list(trace.activities) + extra, key=lambda a: (a.time, a.app)
        )
        self.injected += 1
        return Trace(
            user_id=trace.user_id,
            n_days=trace.n_days,
            start_weekday=trace.start_weekday,
            screen_sessions=list(trace.screen_sessions),
            usages=list(trace.usages),
            activities=merged,
        )

    def runaway_app(
        self,
        trace: Trace,
        *,
        start_day: int,
        app: str = "com.devourer.sync",
        bursts_per_day: int = 16,
        burst_bytes: float = 4e6,
        burst_s: float = 90.0,
    ) -> Trace:
        """A background app starts bursting transfers from ``start_day``.

        Each anomalous day gains ``bursts_per_day`` transfers jittered
        inside evenly spaced slots — the classic runaway-sync devourer:
        steady extra DCH time all day, inflating the day's energy far
        above the user's own history.
        """
        if not 0 <= start_day < trace.n_days:
            raise ValueError(
                f"start_day must be in [0, {trace.n_days}), got {start_day}"
            )
        extra: list[NetworkActivity] = []
        for day in range(start_day, trace.n_days):
            base = day * DAY
            slot_s = DAY / bursts_per_day
            for slot in range(bursts_per_day):
                jitter = self._uniform(_CH_RUNAWAY, day, slot)
                time = base + slot * slot_s + jitter * (slot_s - burst_s - 1.0)
                extra.append(
                    NetworkActivity(
                        time=time,
                        app=app,
                        down_bytes=burst_bytes,
                        up_bytes=burst_bytes * 0.05,
                        duration=burst_s,
                        screen_on=trace.screen_on_at(time),
                    )
                )
        return self._with_activities(trace, extra)

    def stuck_dch(
        self,
        trace: Trace,
        *,
        start_day: int,
        app: str = "com.devourer.stream",
        holds_per_day: int = 4,
        hold_s: float = 1800.0,
        hold_bytes: float = 2e5,
    ) -> Trace:
        """The radio pins in DCH from ``start_day`` on.

        Each anomalous day gains up to ``holds_per_day`` long
        continuous transfers (a stuck streaming socket trickling
        keep-alives), each *started inside a screen session*.  That
        placement is the point: foreground traffic runs as recorded —
        the scheduler cannot compress or defer it — so the hold really
        occupies ``hold_s`` of DCH time and transfer seconds come to
        dominate radio-on time, driving the DCH share toward 1.  The
        same hold placed screen-off would be batched and flushed at
        carrier speed in well under a second (hold payloads are
        keep-alive trickles), leaving no radio signature at all.

        Days whose screen sessions all start too late to fit a hold
        inside the day are left clean.
        """
        if not 0 <= start_day < trace.n_days:
            raise ValueError(
                f"start_day must be in [0, {trace.n_days}), got {start_day}"
            )
        extra: list[NetworkActivity] = []
        for day in range(start_day, trace.n_days):
            base = day * DAY
            latest = base + DAY - hold_s - 1.0
            sessions = [
                s
                for s in trace.screen_sessions
                if base <= s.start < base + DAY and s.start <= latest
            ]
            if not sessions:
                continue
            for slot in range(min(holds_per_day, len(sessions))):
                # Spread the holds over the day's sessions.
                session = sessions[slot * len(sessions) // holds_per_day]
                jitter = self._uniform(_CH_DCH, day, slot)
                span = max(0.0, min(session.end, latest) - session.start - 1.0)
                time = session.start + jitter * span
                extra.append(
                    NetworkActivity(
                        time=time,
                        app=app,
                        down_bytes=hold_bytes,
                        up_bytes=hold_bytes * 0.1,
                        duration=hold_s,
                        screen_on=trace.screen_on_at(time),
                    )
                )
        return self._with_activities(trace, extra)
