"""Lambertian LOS gain, concentrator cutoff, and the single-bounce patch sum.

The floor-only closed form used as an oracle below: when the acceptance cone
of a ceiling-center receiver looking straight down stays entirely on the
floor, the bounce sum reduces to an integral with an exact antiderivative,

    I(fov) = A (m1+1) rho_floor n^2 T_s (1 - cos(fov)^(m1+5))
             / (pi Z^2 (m1+5) sin(fov)^2)

derived by substituting the co-located lamp/receiver geometry and switching
to polar coordinates on the floor.  It is independent of the patch code.
"""

import math
import warnings

import numpy as np
import pytest

from indoorqkd.channel import (
    ChannelGains,
    DetectorParams,
    ReflectionConvergenceWarning,
    UndefinedModeError,
    concentrator_gain,
    lambert_mode,
    los_dc_gain,
    los_gain_for,
    reflected_gain_convergence,
    total_reflected_gain,
    _cell_gains,
)
from indoorqkd.geometry import (
    LinkGeometry,
    Point3,
    Pose,
    RoomScenario,
)


def nominal_room(fov_deg=30.0, **overrides):
    defaults = dict(
        room_x_m=4.0, room_y_m=4.0, room_z_m=3.0,
        wall_reflectivity=0.7, floor_reflectivity=0.1,
        lamp=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        lamp_semi_angle_deg=70.0, lamp_psd_w_per_nm=1e-5,
        transmitter=Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=30.0,
        receiver=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        fov_deg=fov_deg, detector_area_m2=1e-4, concentrator_index=1.5,
        filter_transmission=1.0, filter_bandwidth_nm=0.0258,
    )
    defaults.update(overrides)
    return RoomScenario(**defaults)


def floor_cone_closed_form(room):
    """Exact bounce integral while the acceptance cone sees only floor."""
    m1 = lambert_mode(room.lamp_semi_angle_deg)
    fov = math.radians(room.fov_deg)
    k = m1 + 5.0
    return (
        room.detector_area_m2 * (m1 + 1.0) * room.floor_reflectivity
        * room.concentrator_index**2 * room.filter_transmission
        * (1.0 - math.cos(fov) ** k)
        / (math.pi * room.room_z_m**2 * k * math.sin(fov) ** 2)
    )


class TestLambertMode:
    def test_sixty_degrees_is_plain_lambertian(self):
        assert lambert_mode(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_narrow_source(self):
        assert lambert_mode(30.0) == pytest.approx(4.81884167930642, rel=1e-12)

    def test_wide_source(self):
        assert lambert_mode(70.0) == pytest.approx(0.646058770348734, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 90.0, 95.0, -10.0])
    def test_undefined_outside_open_interval(self, bad):
        with pytest.raises(UndefinedModeError):
            lambert_mode(bad)


class TestConcentratorGain:
    def test_hemispherical_fov(self):
        assert concentrator_gain(0.0, 1.5, math.pi / 2.0) == pytest.approx(2.25)

    def test_narrow_fov(self):
        g = concentrator_gain(0.0, 1.5, math.radians(11.0))
        assert g == pytest.approx(61.799481052281564, rel=1e-12)

    def test_cone_edge_inclusive(self):
        fov = math.radians(20.0)
        assert concentrator_gain(fov, 1.5, fov) > 0.0

    def test_outside_cone_blocked(self):
        assert concentrator_gain(math.radians(21.0), 1.5, math.radians(20.0)) == 0.0

    def test_invalid_fov(self):
        with pytest.raises(ValueError):
            concentrator_gain(0.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            concentrator_gain(0.0, 1.5, math.pi)


class TestLosGain:
    def test_center_link_matches_hand_formula(self):
        # straight-up link, 3 m, narrow acceptance: every factor is textbook
        room = nominal_room(fov_deg=11.0)
        m = lambert_mode(30.0)
        expected = 1e-4 * (m + 1.0) / (2.0 * math.pi * 9.0) * (1.5**2 / math.sin(math.radians(11.0)) ** 2)
        gain = los_gain_for(room)
        assert gain == pytest.approx(expected, rel=1e-12)
        assert gain == pytest.approx(6.359148859233315e-4, rel=1e-9)

    def test_fov_cutoff_blocks_off_axis_receiver(self):
        room = nominal_room(
            fov_deg=11.0,
            transmitter=Pose(Point3(1.0, 1.0, 0.0), Point3(0.0, 0.0, 1.0)),
        )
        # incidence is about 25 degrees, outside the 11 degree cone
        assert los_gain_for(room) == 0.0
        assert los_gain_for(room, enforce_fov=False) == pytest.approx(
            2.901965721843368e-4, rel=1e-9
        )

    def test_emitter_cannot_shine_backwards(self):
        room = nominal_room(
            transmitter=Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, -1.0)),
        )
        assert los_gain_for(room) == 0.0

    def test_gain_capped_at_unity(self):
        geom = LinkGeometry(distance=0.01, irradiance_angle=0.0, incidence_angle=0.0)
        gain = los_dc_gain(
            geom,
            tx_semi_angle_deg=5.0,
            detector_area_m2=1e-4,
            concentrator_index=1.5,
            fov_deg=2.0,
        )
        assert gain == 1.0

    def test_wider_fov_means_less_gain(self):
        narrow = los_gain_for(nominal_room(fov_deg=5.0))
        wide = los_gain_for(nominal_room(fov_deg=25.0))
        assert narrow > wide


class TestReflectedPatchGain:
    """The bounce integrand for single cells, against the hand formula."""

    def _cell_gain(self, room, center, normal, area, reflectivity):
        m1 = lambert_mode(room.lamp_semi_angle_deg)
        g_in = concentrator_gain(0.0, room.concentrator_index, math.radians(room.fov_deg))
        gains = _cell_gains(
            np.array([center.as_tuple()]), np.array([normal.as_tuple()]),
            np.array([area]), np.array([reflectivity]), room, m1, g_in,
        )
        return float(gains[0])

    def test_in_cone_patch_matches_hand_formula(self):
        room = nominal_room(fov_deg=30.0)
        # floor cell of the 2 patches/m grid nearest (2.25, 2.25)
        center, area = Point3(2.25, 2.25, 0.0), 0.25
        v1 = center.minus(room.lamp.position)
        d1 = v1.norm()
        v2 = room.receiver.position.minus(center)
        d2 = v2.norm()
        cos_phi = -v1.z / d1  # lamp looks straight down
        cos_alpha = -v1.z / d1
        cos_beta = v2.z / d2
        cos_psi = v2.z / d2
        assert math.acos(cos_psi) <= math.radians(30.0)  # sanity: inside cone
        m1 = lambert_mode(70.0)
        g = 1.5**2 / math.sin(math.radians(30.0)) ** 2
        expected = (
            1e-4 * (m1 + 1.0) / (2.0 * math.pi**2 * d1**2 * d2**2)
            * cos_phi**m1 * 0.1 * g * area * cos_alpha * cos_beta * cos_psi
        )
        gain = self._cell_gain(room, center, Point3(0.0, 0.0, 1.0), area, 0.1)
        assert gain == pytest.approx(expected, rel=1e-12)

    def test_patch_coincident_with_receiver_contributes_nothing(self):
        room = nominal_room()
        gain = self._cell_gain(room, room.receiver.position, Point3(0.0, 0.0, 1.0), 0.01, 0.5)
        assert gain == 0.0


class TestTotalReflectedGain:
    @pytest.mark.parametrize("fov", [5.0, 11.0, 30.0])
    def test_matches_closed_form_on_floor_cone(self, fov):
        room = nominal_room(fov_deg=fov)
        numeric = total_reflected_gain(room, 10)
        exact = floor_cone_closed_form(room)
        assert numeric == pytest.approx(exact, rel=5e-3)

    def test_adaptive_refinement_beats_midpoint_rule(self):
        # at 5 degrees the cone floor print is 0.26 m, comparable to the
        # 0.1 m cells; the plain midpoint sum is visibly quantized
        room = nominal_room(fov_deg=5.0)
        exact = floor_cone_closed_form(room)
        refined = total_reflected_gain(room, 10)
        midpoint = total_reflected_gain(room, 10, refine_depth=0)
        assert abs(refined - exact) < abs(midpoint - exact)
        assert refined == pytest.approx(exact, rel=5e-3)

    def test_grid_doubling_stays_within_half_percent(self):
        room = nominal_room(fov_deg=30.0)
        coarse = total_reflected_gain(room, 10)
        fine = total_reflected_gain(room, 20)
        assert abs(fine - coarse) / fine < 5e-3

    def test_linear_in_floor_reflectivity_while_cone_sees_only_floor(self):
        base = total_reflected_gain(nominal_room(fov_deg=30.0), 8)
        doubled = total_reflected_gain(
            nominal_room(fov_deg=30.0, floor_reflectivity=0.2), 8
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)

    def test_walls_enter_at_wide_fov(self):
        room = nominal_room(fov_deg=60.0)
        with_walls = total_reflected_gain(room, 8)
        floor_only = total_reflected_gain(
            nominal_room(fov_deg=60.0, wall_reflectivity=0.0), 8
        )
        assert with_walls > floor_only > 0.0

    def test_collected_light_grows_with_fov_once_gain_is_factored_out(self):
        # the raw sum is NOT monotone in the FOV: the concentrator gain
        # falls faster than the floor footprint grows until the walls come
        # into view; normalizing the n^2/sin^2 factor away leaves the purely
        # geometric collection, which can only grow as the cone opens
        fovs = [5.0, 11.0, 20.0, 30.0, 45.0, 60.0, 80.0]
        normalized = []
        for fov in fovs:
            room = nominal_room(fov_deg=fov)
            gain = room.concentrator_index**2 / math.sin(math.radians(fov)) ** 2
            normalized.append(total_reflected_gain(room, 8) / gain)
        assert all(b > a for a, b in zip(normalized, normalized[1:]))

    def test_dead_surfaces_give_zero(self):
        room = nominal_room(wall_reflectivity=0.0, floor_reflectivity=0.0)
        assert total_reflected_gain(room, 5) == 0.0


class TestConvergenceReporting:
    def test_default_resolution_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reflected_gain_convergence(nominal_room(fov_deg=30.0), 10)
        assert report.converged
        assert report.rel_change < 5e-3

    def test_coarse_grid_warns_with_both_estimates(self):
        # wide cone over 1 m cells: plenty of all-in cells whose midpoint
        # error moves when the grid is doubled (narrow cones are handled
        # entirely by the edge refinement and converge even at 1/m)
        room = nominal_room(fov_deg=30.0)
        with pytest.warns(ReflectionConvergenceWarning):
            report = reflected_gain_convergence(room, 1)
        assert not report.converged
        assert report.value != report.refined_value


class TestValidation:
    def test_detector_params_bounds(self):
        with pytest.raises(ValueError):
            DetectorParams(efficiency=0.0, dark_count_rate_hz=1000.0, pulse_width_s=1e-10)
        with pytest.raises(ValueError):
            DetectorParams(efficiency=0.6, dark_count_rate_hz=-1.0, pulse_width_s=1e-10)

    def test_channel_gains_bounds(self):
        with pytest.raises(ValueError):
            ChannelGains(line_of_sight=1.2, transmittance=0.5, reflected_integral=0.0)
        with pytest.raises(ValueError):
            ChannelGains(line_of_sight=0.5, transmittance=0.5, reflected_integral=-1e-9)
