"""JSON round-trips for middleware configs; habit-model equality."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.netmaster import NetMasterConfig
from repro.habits import HabitModel, config_from_dict, config_to_dict
from repro.habits.serialization import delta_from_dict, delta_to_dict
from repro.habits.threshold import (
    FixedDelta,
    ImpactBasedDelta,
    WeekdayWeekendDelta,
)
from repro.radio import lte_model

from tests.habits.habit_oracle import habit_models_equal


class TestHabitModelEquality:
    def test_equality_is_strict(self, volunteer):
        model = HabitModel.fit(volunteer)
        assert habit_models_equal(model, HabitModel.fit(volunteer))
        probs = model.weekday_user_probs.copy()
        probs[3] += 1e-12
        assert not habit_models_equal(model, replace(model, weekday_user_probs=probs))
        # Raw bytes compare, so the sign of a zero counts.
        zeros = np.zeros_like(probs)
        assert not habit_models_equal(
            replace(model, weekday_user_probs=zeros),
            replace(model, weekday_user_probs=-zeros),
        )


class TestDeltaRoundTrip:
    @pytest.mark.parametrize(
        "strategy",
        [
            None,
            FixedDelta(0.25),
            WeekdayWeekendDelta(0.2, 0.4),
            ImpactBasedDelta(0.05),
        ],
    )
    def test_bundled_strategies(self, strategy):
        assert delta_from_dict(delta_to_dict(strategy)) == strategy

    def test_custom_strategy_rejected(self):
        class Custom:
            def delta_for(self, *a):  # pragma: no cover - never called
                return 0.1

        with pytest.raises(TypeError, match="Custom"):
            delta_to_dict(Custom())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            delta_from_dict({"kind": "mystery"})


class TestConfigRoundTrip:
    def test_default_config(self):
        config = NetMasterConfig()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert config == again

    def test_custom_config(self):
        config = NetMasterConfig(
            power=lte_model(),
            eps=0.1,
            delta=WeekdayWeekendDelta(0.15, 0.3),
            wake_window_s=45.0,
            enable_circuit_breaker=False,
            min_history_days=5,
        )
        again = config_from_dict(config_to_dict(config))
        assert config == again
        assert config != NetMasterConfig()

    def test_unknown_format_rejected(self):
        data = config_to_dict(NetMasterConfig())
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            config_from_dict(data)
