"""Weekend and edge-path coverage for the NetMaster middleware."""

from __future__ import annotations

import pytest

from repro._util import DAY
from repro.core import NetMaster, NetMasterConfig
from repro.traces import AppUsage, NetworkActivity, ScreenSession, Trace


@pytest.fixture(scope="module")
def trained(history):
    nm = NetMaster()
    nm.train(history)
    return nm


class TestWeekendPath:
    def test_weekend_day_uses_weekend_prediction(self, trained, volunteer):
        # Day 12 of a Monday-start 14-day trace is a Saturday.
        weekend_day = volunteer.day_view(12)
        assert weekend_day.is_weekend_day(0)
        execution = trained.execute_day(weekend_day)
        assert execution.weekend is True
        assert execution.plan.prediction.delta == 0.1  # paper's weekend δ

    def test_weekday_delta(self, trained, volunteer):
        weekday = volunteer.day_view(10)
        assert not weekday.is_weekend_day(0)
        execution = trained.execute_day(weekday)
        assert execution.plan.prediction.delta == 0.2

    def test_weekend_payload_conserved(self, trained, volunteer):
        weekend_day = volunteer.day_view(12)
        execution = trained.execute_day(weekend_day)
        src = sum(a.total_bytes for a in weekend_day.activities)
        out = sum(a.total_bytes for a in execution.activities)
        assert out == pytest.approx(src)


class TestDegenerateDays:
    def test_empty_day(self, trained):
        empty = Trace(user_id="empty", n_days=1, start_weekday=0)
        execution = trained.execute_day(empty)
        assert execution.activities == []
        assert execution.interrupts == 0
        # Duty cycle still covers the whole idle day.
        assert len(execution.wake_windows) > 0

    def test_day_with_only_background(self, trained):
        day = Trace(
            user_id="bgonly",
            n_days=1,
            start_weekday=0,
            activities=[
                NetworkActivity(3 * 3600.0, "com.android.email", 900.0, 90.0, 4.0, False)
            ],
        )
        execution = trained.execute_day(day)
        assert len(execution.activities) == 1
        assert execution.user_interactions == 0
        assert execution.interrupts == 0

    def test_activity_near_midnight_clamped(self, trained):
        day = Trace(
            user_id="late",
            n_days=1,
            start_weekday=0,
            activities=[
                NetworkActivity(DAY - 3.0, "com.android.email", 900.0, 90.0, 2.5, False)
            ],
        )
        execution = trained.execute_day(day)
        activity = execution.activities[0]
        assert activity.end <= DAY + 1e-6

    def test_unknown_foreground_app_never_interrupts(self, trained):
        day = Trace(
            user_id="newapp",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(3 * 3600.0, 3 * 3600.0 + 30.0)],
            usages=[AppUsage(3 * 3600.0, "brand.new.game", 30.0)],
            activities=[
                NetworkActivity(
                    3 * 3600.0 + 5.0, "brand.new.game", 5000.0, 500.0, 10.0, True
                )
            ],
        )
        execution = trained.execute_day(day)
        # 3am is outside every predicted slot, but new apps default to
        # special, so the radio comes up and no interrupt is charged.
        assert execution.interrupts == 0

    def test_known_nonspecial_app_interrupts(self, trained):
        # An app seen only as background traffic in history is known but
        # not special: a surprise foreground use outside the slots is the
        # "wrong decision" case.
        nonspecial = next(
            app
            for app in trained.habit.special_apps.seen
            if not trained.habit.special_apps.is_special(app)
        )
        day = Trace(
            user_id="surprise",
            n_days=1,
            start_weekday=0,
            screen_sessions=[ScreenSession(3 * 3600.0, 3 * 3600.0 + 30.0)],
            usages=[AppUsage(3 * 3600.0, nonspecial, 30.0)],
            activities=[
                NetworkActivity(3 * 3600.0 + 5.0, nonspecial, 5000.0, 500.0, 10.0, True)
            ],
        )
        execution = trained.execute_day(day)
        assert execution.interrupts == 1
