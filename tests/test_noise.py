"""Noise budget: ambient power, photon conversion, bounce counts, dark counts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from indoorqkd.channel import DetectorParams
from indoorqkd.geometry import Point3, Pose, RoomScenario
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


def detector(pulse_width_s=TAU, efficiency=0.6):
    return DetectorParams(
        efficiency=efficiency, dark_count_rate_hz=1000.0, pulse_width_s=pulse_width_s, wavelength_nm=WL
    )


def room(bandwidth_nm, fov_deg=30.0):
    """The nominal receiver: 1 cm^2 behind an n = 1.5 concentrator, no filter loss."""
    down = Point3(0.0, 0.0, -1.0)
    return RoomScenario(
        room_x_m=4.0, room_y_m=4.0, room_z_m=3.0,
        wall_reflectivity=0.7, floor_reflectivity=0.1,
        lamp=Pose(Point3(2.0, 2.0, 3.0), down), lamp_semi_angle_deg=70.0,
        transmitter=Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0)), tx_semi_angle_deg=30.0,
        receiver=Pose(Point3(2.0, 2.0, 3.0), down), fov_deg=fov_deg,
        detector_area_m2=1e-4, concentrator_index=1.5, filter_transmission=1.0,
        filter_bandwidth_nm=bandwidth_nm,
    )


DET = detector()
BW = matched_filter_bandwidth_nm(DET)
ROOM = room(BW)


class TestMatchedFilter:
    def test_nominal_bandwidth(self):
        bw = matched_filter_bandwidth_nm(DET)
        expected = (880e-9) ** 2 / (TAU * SPEED_OF_LIGHT_M_S) * 1e9
        assert bw == pytest.approx(expected, rel=1e-12)
        assert bw == pytest.approx(0.0258311, rel=1e-4)

    def test_shorter_pulse_wider_filter(self):
        assert matched_filter_bandwidth_nm(detector(1e-11)) == pytest.approx(
            10.0 * matched_filter_bandwidth_nm(DET), rel=1e-12
        )

    def test_invalid_inputs(self):
        # the rules live in DetectorParams, which the filter takes
        with pytest.raises(ValueError, match="wavelength_nm"):
            replace(DET, wavelength_nm=0.0)
        with pytest.raises(ValueError, match="pulse_width_s"):
            replace(DET, pulse_width_s=0.0)


class TestIsotropicNoisePower:
    def test_product_of_factors(self):
        power = isotropic_noise_power(1e-8, ROOM)
        assert power == pytest.approx(1e-8 * BW * 1e-4 * 2.25, rel=1e-12)
        assert power == pytest.approx(5.812e-14, rel=1e-3)

    def test_independent_of_fov(self):
        # the formula reads no acceptance cone at all: widening the cone
        # trades concentrator gain against solid angle exactly
        powers = {isotropic_noise_power(1e-8, room(BW, fov)) for fov in (2.0, 30.0, 90.0)}
        assert powers == {isotropic_noise_power(1e-8, ROOM)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isotropic_noise_power(-1e-8, room(0.025))


class TestPhotonConversion:
    def test_photon_energy_scale(self):
        power = isotropic_noise_power(1e-8, ROOM)
        counts = photons_per_pulse(power, DET)
        energy = PLANCK_J_S * SPEED_OF_LIGHT_M_S / 880e-9
        assert counts == pytest.approx(power * TAU * 0.3 / energy, rel=1e-12)
        assert counts == pytest.approx(7.724215005847860e-06, rel=1e-12)

    def test_half_efficiency_per_polarization_branch(self):
        full = photons_per_pulse(1e-13, DET)
        assert photons_per_pulse(1e-13, detector(efficiency=0.3)) == pytest.approx(full / 2.0)

    def test_lamp_bounce_counts(self):
        integral = 6.5e-7
        counts = lamp_noise_photons(1e-5, ROOM, DET, integral)
        energy = PLANCK_J_S * SPEED_OF_LIGHT_M_S / 880e-9
        assert counts == pytest.approx(1e-5 * BW * TAU * 0.3 / energy * integral, rel=1e-12)

    def test_dark_counts(self):
        assert dark_counts_per_pulse(DET) == pytest.approx(1e-7, rel=1e-12)
        assert dark_counts_per_pulse(replace(DET, dark_count_rate_hz=0.0)) == 0.0


class TestMatchedFilterInvariance:
    @given(st.floats(1e-12, 1e-8))
    def test_ambient_counts_do_not_depend_on_pulse_width(self, tau):
        """With the filter width matched to the pulse, tau cancels exactly."""
        det = detector(tau)
        counts = photons_per_pulse(isotropic_noise_power(1e-8, room(matched_filter_bandwidth_nm(det))), det)
        reference = photons_per_pulse(isotropic_noise_power(1e-8, ROOM), DET)
        assert abs(counts - reference) / reference < 1e-12

    @given(st.floats(1e-12, 1e-8))
    def test_bounce_counts_do_not_depend_on_pulse_width(self, tau):
        det = detector(tau)
        counts = lamp_noise_photons(1e-5, room(matched_filter_bandwidth_nm(det)), det, 6.5e-7)
        reference = lamp_noise_photons(1e-5, ROOM, DET, 6.5e-7)
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
        power = isotropic_noise_power(BLACKBODY_AMBIENT_W_NM_M2, ROOM)
        assert photons_per_pulse(power, DET) < 1e-12


class TestArrayLevels:
    def test_counts_are_elementwise_scalar_counts(self):
        levels = [0.0, 1e-9, 3e-7, 1e-5]
        ambient = photons_per_pulse(isotropic_noise_power(np.array(levels), ROOM), DET)
        lamp = lamp_noise_photons(np.array(levels), ROOM, DET, 6.5e-7)
        for k, level in enumerate(levels):
            assert ambient[k] == photons_per_pulse(isotropic_noise_power(level, ROOM), DET)
            assert lamp[k] == lamp_noise_photons(level, ROOM, DET, 6.5e-7)

    @pytest.mark.parametrize("level", [math.nan, np.array([1e-9, math.nan]), np.array([1e-9, -1e-12])])
    def test_nan_and_negative_levels_rejected(self, level):
        with pytest.raises(ValueError, match="non-negative"):
            isotropic_noise_power(level, ROOM)
        with pytest.raises(ValueError, match="non-negative"):
            photons_per_pulse(level, DET)
        with pytest.raises(ValueError, match="non-negative"):
            lamp_noise_photons(level, ROOM, DET, 6.5e-7)
        with pytest.raises(ValueError, match="non-negative"):
            NoiseBudget(ambient=level, lamp_bounce=0.0, dark=0.0)
