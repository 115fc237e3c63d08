"""Tests for the radio power models."""

from __future__ import annotations

import pytest

from repro.radio import RadioPowerModel


class TestBundledModels:
    def test_wcdma_constants(self, wcdma):
        assert wcdma.name == "wcdma"
        assert wcdma.p_dch_w == pytest.approx(0.80)
        assert wcdma.p_fach_w == pytest.approx(0.46)
        assert wcdma.dch_tail_s == 5.0
        assert wcdma.fach_tail_s == 12.0

    def test_lte_single_tail(self, lte):
        assert lte.dch_tail_s == 0.0
        assert lte.fach_tail_s == pytest.approx(11.6)

    def test_tail_composition(self, wcdma):
        assert wcdma.tail_s == pytest.approx(17.0)
        assert wcdma.full_tail_energy_j == pytest.approx(5 * 0.8 + 12 * 0.46)

    def test_promo_energies(self, wcdma):
        assert wcdma.promo_idle_energy_j == pytest.approx(2.0 * 0.53)
        assert wcdma.promo_fach_energy_j == pytest.approx(1.5 * 0.70)


class TestEnergyFunctions:
    def test_isolated_transfer_energy(self, wcdma):
        # g(t): promo + DCH transfer + full tail.
        expected = 1.06 + 10.0 * 0.8 + 9.52
        assert wcdma.isolated_transfer_energy_j(10.0) == pytest.approx(expected)

    def test_marginal_is_transfer_only(self, wcdma):
        assert wcdma.marginal_transfer_energy_j(10.0) == pytest.approx(8.0)

    def test_saved_energy_is_overhead(self, wcdma):
        # ΔE is promotion + tail, independent of transfer duration.
        assert wcdma.saved_energy_j(1.0) == pytest.approx(wcdma.saved_energy_j(100.0))
        assert wcdma.saved_energy_j(5.0) == pytest.approx(1.06 + 9.52)

    def test_rejects_zero_duration(self, wcdma):
        with pytest.raises(ValueError):
            wcdma.isolated_transfer_energy_j(0.0)


class TestValidation:
    def _kwargs(self, **overrides):
        base = dict(
            name="x",
            p_idle_w=0.01,
            p_dch_w=0.8,
            p_fach_w=0.4,
            promo_idle_dch_s=2.0,
            promo_idle_dch_w=0.5,
            promo_fach_dch_s=1.5,
            promo_fach_dch_w=0.7,
            dch_tail_s=5.0,
            fach_tail_s=12.0,
        )
        base.update(overrides)
        return base

    def test_valid(self):
        RadioPowerModel(**self._kwargs())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("p_dch_w", 0.0),
            ("p_idle_w", -1.0),
            ("dch_tail_s", -1.0),
            ("fach_tail_s", -1.0),
            ("promo_idle_dch_s", -1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            RadioPowerModel(**self._kwargs(**{field: value}))

    def test_rejects_dch_below_fach(self):
        with pytest.raises(ValueError, match="p_dch_w"):
            RadioPowerModel(**self._kwargs(p_dch_w=0.3, p_fach_w=0.4))
