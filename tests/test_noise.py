"""Noise budget: ambient power, photon conversion, bounce counts, dark counts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from indoorqkd.noise import (
    BLACKBODY_AMBIENT_W_NM_M2,
    PLANCK_J_S,
    SPEED_OF_LIGHT_M_S,
    NoiseBudget,
    dark_counts_per_pulse,
    isotropic_noise_power,
    lamp_noise_photons,
    matched_filter_bandwidth_nm,
    photons_per_pulse,
)

TAU = 1e-10
WL = 880.0


class TestMatchedFilter:
    def test_nominal_bandwidth(self):
        bw = matched_filter_bandwidth_nm(WL, TAU)
        expected = (880e-9) ** 2 / (TAU * SPEED_OF_LIGHT_M_S) * 1e9
        assert bw == pytest.approx(expected, rel=1e-12)
        assert bw == pytest.approx(0.0258311, rel=1e-4)

    def test_shorter_pulse_wider_filter(self):
        assert matched_filter_bandwidth_nm(WL, 1e-11) == pytest.approx(
            10.0 * matched_filter_bandwidth_nm(WL, TAU), rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            matched_filter_bandwidth_nm(0.0, TAU)
        with pytest.raises(ValueError):
            matched_filter_bandwidth_nm(WL, 0.0)


class TestIsotropicNoisePower:
    def test_product_of_factors(self):
        bw = matched_filter_bandwidth_nm(WL, TAU)
        power = isotropic_noise_power(1e-8, bw, 1.0, 1e-4, 1.5)
        assert power == pytest.approx(1e-8 * bw * 1e-4 * 2.25, rel=1e-12)
        assert power == pytest.approx(5.812e-14, rel=1e-3)

    def test_independent_of_fov(self):
        # the formula has no acceptance-cone argument at all: widening the
        # cone trades concentrator gain against solid angle exactly
        import inspect

        params = inspect.signature(isotropic_noise_power).parameters
        assert not any("fov" in name for name in params)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isotropic_noise_power(-1e-8, 0.025, 1.0, 1e-4, 1.5)


class TestPhotonConversion:
    def test_photon_energy_scale(self):
        bw = matched_filter_bandwidth_nm(WL, TAU)
        power = isotropic_noise_power(1e-8, bw, 1.0, 1e-4, 1.5)
        counts = photons_per_pulse(power, TAU, 0.6, WL)
        energy = PLANCK_J_S * SPEED_OF_LIGHT_M_S / 880e-9
        assert counts == pytest.approx(power * TAU * 0.3 / energy, rel=1e-12)
        assert counts == pytest.approx(7.724215005847860e-06, rel=1e-12)

    def test_half_efficiency_per_polarization_branch(self):
        full = photons_per_pulse(1e-13, TAU, 0.6, WL)
        assert photons_per_pulse(1e-13, TAU, 0.3, WL) == pytest.approx(full / 2.0)

    def test_lamp_bounce_counts(self):
        bw = matched_filter_bandwidth_nm(WL, TAU)
        integral = 6.5e-7
        counts = lamp_noise_photons(1e-5, bw, TAU, 0.6, WL, integral)
        energy = PLANCK_J_S * SPEED_OF_LIGHT_M_S / 880e-9
        assert counts == pytest.approx(1e-5 * bw * TAU * 0.3 / energy * integral, rel=1e-12)

    def test_dark_counts(self):
        assert dark_counts_per_pulse(1000.0, TAU) == pytest.approx(1e-7, rel=1e-12)
        assert dark_counts_per_pulse(0.0, TAU) == 0.0


class TestMatchedFilterInvariance:
    @given(st.floats(1e-12, 1e-8))
    def test_ambient_counts_do_not_depend_on_pulse_width(self, tau):
        """With the filter width matched to the pulse, tau cancels exactly."""
        bw = matched_filter_bandwidth_nm(WL, tau)
        power = isotropic_noise_power(1e-8, bw, 1.0, 1e-4, 1.5)
        counts = photons_per_pulse(power, tau, 0.6, WL)
        reference = photons_per_pulse(
            isotropic_noise_power(1e-8, matched_filter_bandwidth_nm(WL, TAU), 1.0, 1e-4, 1.5),
            TAU, 0.6, WL,
        )
        assert abs(counts - reference) / reference < 1e-12

    @given(st.floats(1e-12, 1e-8))
    def test_bounce_counts_do_not_depend_on_pulse_width(self, tau):
        bw = matched_filter_bandwidth_nm(WL, tau)
        counts = lamp_noise_photons(1e-5, bw, tau, 0.6, WL, 6.5e-7)
        reference = lamp_noise_photons(
            1e-5, matched_filter_bandwidth_nm(WL, TAU), TAU, 0.6, WL, 6.5e-7
        )
        assert abs(counts - reference) / reference < 1e-12


class TestNoiseBudget:
    def test_total_is_exact_sum(self):
        budget = NoiseBudget(ambient=1e-6, lamp_bounce=2e-5, dark=1e-7)
        assert budget.total == 1e-6 + 2e-5 + 1e-7

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            NoiseBudget(ambient=-1e-9, lamp_bounce=0.0, dark=0.0)

    def test_blackbody_preset_is_vanishing(self):
        # thermal emission indoors at room temperature: twelve orders below
        # the daylight scale, effectively dark
        assert BLACKBODY_AMBIENT_W_NM_M2 == pytest.approx(1e-18)
        bw = matched_filter_bandwidth_nm(WL, TAU)
        power = isotropic_noise_power(BLACKBODY_AMBIENT_W_NM_M2, bw, 1.0, 1e-4, 1.5)
        assert photons_per_pulse(power, TAU, 0.6, WL) < 1e-12


class TestArrayLevels:
    def test_counts_are_elementwise_scalar_counts(self):
        levels = [0.0, 1e-9, 3e-7, 1e-5]
        bw = matched_filter_bandwidth_nm(WL, TAU)
        ambient = photons_per_pulse(isotropic_noise_power(np.array(levels), bw, 1.0, 1e-4, 1.5), TAU, 0.6, WL)
        lamp = lamp_noise_photons(np.array(levels), bw, TAU, 0.6, WL, 6.5e-7)
        for k, level in enumerate(levels):
            assert ambient[k] == photons_per_pulse(isotropic_noise_power(level, bw, 1.0, 1e-4, 1.5), TAU, 0.6, WL)
            assert lamp[k] == lamp_noise_photons(level, bw, TAU, 0.6, WL, 6.5e-7)

    @pytest.mark.parametrize("level", [math.nan, np.array([1e-9, math.nan]), np.array([1e-9, -1e-12])])
    def test_nan_and_negative_levels_rejected(self, level):
        bw = matched_filter_bandwidth_nm(WL, TAU)
        with pytest.raises(ValueError, match="non-negative"):
            isotropic_noise_power(level, bw, 1.0, 1e-4, 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            photons_per_pulse(level, TAU, 0.6, WL)
        with pytest.raises(ValueError, match="non-negative"):
            lamp_noise_photons(level, bw, TAU, 0.6, WL, 6.5e-7)
        with pytest.raises(ValueError, match="non-negative"):
            NoiseBudget(ambient=level, lamp_bounce=0.0, dark=0.0)
