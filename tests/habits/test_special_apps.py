"""Tests for the Special App registry."""

from __future__ import annotations

from repro._util import DAY
from repro.habits import HabitModel, SpecialAppRegistry
from repro.stream import OnlineHabitModel
from repro.traces import AppUsage, NetworkActivity, TraceStore


class TestFitting:
    def test_from_trace(self, tiny_trace):
        registry = HabitModel.fit(tiny_trace).special_apps
        # Used AND networked.
        assert registry.is_special("com.tencent.mm")
        assert registry.is_special("browser")
        # Networked but never used in the foreground.
        assert not registry.is_special("com.android.email")
        assert not registry.is_special("com.facebook.katana")

    def test_from_store(self, tiny_trace):
        store = TraceStore()
        for session in tiny_trace.screen_sessions:
            store.record_screen(session)
        for usage in tiny_trace.usages:
            store.record_usage(usage)
        for activity in tiny_trace.activities:
            store.record_network(activity)
        store.checkpoint()
        registry = SpecialAppRegistry.from_store(store)
        assert registry.special == HabitModel.fit(tiny_trace).special_apps.special

    def test_unknown_app_is_special(self, tiny_trace):
        registry = HabitModel.fit(tiny_trace).special_apps
        assert registry.is_special("brand.new.app")


class TestOnlineUpdates:
    """The registry as the online model refreshes it, one closed day at a time."""

    def test_observe_promotes(self):
        online = OnlineHabitModel("u")
        online.observe(AppUsage(100.0, "app", 5.0))
        online.close_day(0)
        assert not online.registry().is_special("app")  # seen but not qualified
        online.observe(NetworkActivity(DAY + 100.0, "app", 10.0, 0.0, 1.0, False))
        online.close_day(1)
        assert online.registry().is_special("app")

    def test_network_only_never_qualifies(self):
        online = OnlineHabitModel("u")
        online.observe(NetworkActivity(100.0, "pusher", 10.0, 0.0, 1.0, False))
        online.close_day(0)
        assert "pusher" in online.registry().seen
        assert not online.registry().is_special("pusher")

    def test_usage_counts_accumulate(self):
        online = OnlineHabitModel("u")
        for day in range(3):
            online.observe(AppUsage(day * DAY + 100.0, "app", 5.0))
            online.close_day(day)
        assert online.registry().usage_counts["app"] == 3


class TestShares:
    def test_usage_share_sums_to_one(self, tiny_trace):
        registry = HabitModel.fit(tiny_trace).special_apps
        share = registry.usage_share()
        assert sum(share.values()) == 1.0

    def test_dominant_app(self, cohort):
        registry = HabitModel.fit(cohort[2]).special_apps
        dominant = registry.dominant_app()
        assert dominant is not None
        app, share = dominant
        assert app == "com.tencent.mm"
        assert share > 0.4  # paper: 59% for user 3

    def test_empty_registry(self):
        registry = SpecialAppRegistry()
        assert registry.usage_share() == {}
        assert registry.dominant_app() is None
