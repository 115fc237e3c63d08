"""Unit tests for the app catalog and behaviour models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import AppCatalog, AppModel, default_catalog


class TestAppModel:
    def test_defaults_have_no_background(self):
        assert not AppModel("x").has_background

    def test_background_flag(self):
        assert AppModel("x", background_interval_s=600.0).has_background

    @pytest.mark.parametrize(
        "field,value",
        [
            ("foreground_weight", -1.0),
            ("fg_net_prob", 1.5),
            ("fg_rate_median_bps", 0.0),
            ("background_interval_s", -5.0),
            ("bg_rate_median_bps", 0.0),
            ("bg_duration_mean_s", 0.0),
            ("upload_fraction", 2.0),
            ("fg_rate_cap_bps", 0.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            AppModel("x", **{field: value})

    def test_fg_rate_capped(self):
        app = AppModel("x", fg_rate_median_bps=1000.0, fg_rate_sigma=3.0, fg_rate_cap_bps=5000.0)
        rng = np.random.default_rng(0)
        rates = [app.sample_fg_rate(rng) for _ in range(200)]
        assert max(rates) <= 5000.0
        assert min(rates) > 0.0

    def test_bg_rate_positive(self):
        app = AppModel("x", background_interval_s=600.0)
        rng = np.random.default_rng(0)
        assert all(app.sample_bg_rate(rng) > 0 for _ in range(50))

    def test_bg_duration_floor(self):
        app = AppModel("x", background_interval_s=600.0, bg_duration_mean_s=0.01)
        rng = np.random.default_rng(0)
        assert all(app.sample_bg_duration(rng) >= 0.5 for _ in range(50))


class TestAppCatalog:
    def _catalog(self):
        return AppCatalog(
            [
                AppModel("a", foreground_weight=1.0),
                AppModel("b", foreground_weight=3.0, background_interval_s=600.0),
                AppModel("c"),
            ]
        )

    def test_len_and_names(self):
        cat = self._catalog()
        assert len(cat) == 3
        assert [a.name for a in cat] == ["a", "b", "c"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppCatalog([AppModel("a"), AppModel("a")])

    def test_foreground_and_background_partitions(self):
        cat = self._catalog()
        assert {a.name for a in cat.foreground_apps()} == {"a", "b"}
        assert {a.name for a in cat.background_apps()} == {"b"}

    def test_sample_foreground_respects_weights(self):
        cat = self._catalog()
        rng = np.random.default_rng(1)
        draws = [cat.sample_foreground(rng).name for _ in range(500)]
        # b has 3x the weight of a.
        ratio = draws.count("b") / draws.count("a")
        assert 2.0 < ratio < 4.5
        assert "c" not in draws

    def test_sample_foreground_empty(self):
        with pytest.raises(ValueError, match="no foreground"):
            AppCatalog([AppModel("c")]).sample_foreground(np.random.default_rng(0))


class TestDefaultCatalog:
    def test_has_23_apps(self):
        assert len(default_catalog()) == 23

    def test_wechat_dominates_foreground(self):
        cat = default_catalog()
        weights = {a.name: a.foreground_weight for a in cat.foreground_apps()}
        assert max(weights, key=weights.__getitem__) == "com.tencent.mm"

    def test_has_background_apps(self):
        assert len(default_catalog().background_apps()) >= 4

    def test_dormant_tail_exists(self):
        cat = default_catalog()
        dormant = [
            a for a in cat if a.foreground_weight == 0 and not a.has_background
        ]
        assert len(dormant) >= 10

    def test_fig5_app_names_present(self):
        names = {a.name for a in default_catalog()}
        for expected in (
            "com.tencent.mm",
            "browser",
            "com.android.settings",
            "wali.miui.networkassistant",
        ):
            assert expected in names
