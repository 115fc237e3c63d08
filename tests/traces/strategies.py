"""Hypothesis strategy for arbitrary valid traces.

Draws the shapes that stress hour binning and history cuts: 1-9 days
from any weekday, zero-length sessions, sessions and records that start
or end exactly on an hour, sessions crossing midnight, and both
screen-on and screen-off activities.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro._util import DAY, HOUR
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace

_APPS = ("mail", "chat", "news", "sync")

#: Offsets that often land on hour or half-hour boundaries.
_spans = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5 * HOUR),
    st.floats(min_value=0.0, max_value=8 * HOUR, allow_nan=False),
)


def _times(horizon: float):
    """Times in ``[0, horizon)``, often exactly on an hour."""
    return st.one_of(
        st.integers(min_value=0, max_value=int(horizon // HOUR) - 1).map(
            lambda h: h * HOUR
        ),
        st.floats(min_value=0.0, max_value=horizon, exclude_max=True),
    )


@st.composite
def valid_traces(draw, *, max_days: int = 9) -> Trace:
    """A trace that passes :meth:`Trace.validate`."""
    n_days = draw(st.integers(min_value=1, max_value=max_days))
    horizon = n_days * DAY
    sessions: list[ScreenSession] = []
    t = 0.0
    for gap, length in draw(st.lists(st.tuples(_spans, _spans), max_size=12)):
        start = t + gap
        end = start + length
        if end > horizon:
            break
        sessions.append(ScreenSession(start, end))
        t = end
    usages = [
        AppUsage(time, app, duration)
        for time, app, duration in draw(
            st.lists(
                st.tuples(
                    _times(horizon),
                    st.sampled_from(_APPS),
                    st.floats(min_value=0.0, max_value=600.0),
                ),
                max_size=10,
            )
        )
    ]
    skeleton = Trace("p", n_days, 0, screen_sessions=sessions)
    activity_times = _times(horizon)
    starts = [s.start for s in sessions if s.end > s.start]
    if starts:
        # Session starts, to draw screen-on traffic often.
        activity_times = st.one_of(activity_times, st.sampled_from(starts))
    activities = [
        NetworkActivity(
            time, app, down, up, duration, skeleton.screen_on_at(time)
        )
        for time, app, down, up, duration in draw(
            st.lists(
                st.tuples(
                    activity_times,
                    st.sampled_from(_APPS),
                    st.floats(min_value=0.0, max_value=1e6),
                    st.floats(min_value=0.0, max_value=1e5),
                    st.floats(min_value=1e-3, max_value=600.0),
                ),
                max_size=12,
            )
        )
    ]
    return Trace(
        user_id="p",
        n_days=n_days,
        start_weekday=draw(st.integers(min_value=0, max_value=6)),
        screen_sessions=sessions,
        usages=usages,
        activities=activities,
    )
