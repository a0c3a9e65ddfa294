"""Lambertian LOS gain, concentrator cutoff, and the single-bounce patch sum.

The floor-only closed form used as an oracle below
(``montecarlo.floor_cone_closed_form``) is exact while the acceptance cone of
a ceiling-center receiver looking straight down stays entirely on the
floor.  It is independent of the patch code.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from indoorqkd import channel
from indoorqkd.channel import (
    ChannelGains,
    DetectorParams,
    ReflectionConvergenceWarning,
    los_gain_for,
    reflected_gain_convergence,
    total_reflected_gain,
    _cell_gains,
    _lambert_mode,
)
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.geometry import (
    LinkGeometry,
    Point3,
    Pose,
    RoomScenario,
    concentrator_gain,
)
from indoorqkd.montecarlo import floor_cone_closed_form


def nominal_room(fov_deg=30.0, **overrides):
    defaults = dict(
        room_x_m=4.0, room_y_m=4.0, room_z_m=3.0,
        wall_reflectivity=0.7, floor_reflectivity=0.1,
        lamp=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        lamp_semi_angle_deg=70.0,
        transmitter=Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=30.0,
        receiver=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        fov_deg=fov_deg, detector_area_m2=1e-4, concentrator_index=1.5,
        filter_transmission=1.0, filter_bandwidth_nm=0.0258,
    )
    defaults.update(overrides)
    return RoomScenario(**defaults)


class TestLambertMode:
    def test_sixty_degrees_is_plain_lambertian(self):
        assert _lambert_mode(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_narrow_source(self):
        assert _lambert_mode(30.0) == pytest.approx(4.81884167930642, rel=1e-12)

    def test_wide_source(self):
        assert _lambert_mode(70.0) == pytest.approx(0.646058770348734, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 90.0, 95.0, -10.0])
    def test_undefined_outside_open_interval(self, bad):
        # the domain rule lives in RoomScenario, for the lamp and the transmitter
        for field in ("lamp_semi_angle_deg", "tx_semi_angle_deg"):
            with pytest.raises(ValueError, match=f"{field}.*Lambert mode is undefined"):
                nominal_room(**{field: bad})


def incidence_at(monkeypatch, incidence_deg):
    """Make the channel see a 3 m on-axis link arriving at ``incidence_deg``."""
    geom = LinkGeometry(distance=3.0, irradiance_angle=0.0, incidence_angle=math.radians(incidence_deg))
    monkeypatch.setattr(channel, "link_geometry", lambda emitter, collector: geom)


class TestConcentratorGain:
    def test_hemispherical_fov(self):
        assert concentrator_gain(1.5, 90.0) == pytest.approx(2.25)

    def test_narrow_fov(self):
        g = concentrator_gain(1.5, 11.0)
        assert g == pytest.approx(61.799481052281564, rel=1e-12)

    def test_cone_edge_inclusive(self, monkeypatch):
        incidence_at(monkeypatch, 20.0)
        assert los_gain_for(nominal_room(fov_deg=20.0)) > 0.0

    def test_outside_cone_blocked(self, monkeypatch):
        incidence_at(monkeypatch, 21.0)
        assert los_gain_for(nominal_room(fov_deg=20.0)) == 0.0

    def test_invalid_fov(self):
        for fov_deg in (0.0, 180.0):
            with pytest.raises(ValueError, match="fov_deg"):
                nominal_room(fov_deg=fov_deg)

    # n^2 overflows; n^2 fits a float but n^2 / sin^2(1 deg) does not
    @pytest.mark.parametrize("index, fov_deg", [(1e300, 30.0), (1e153, 1.0)])
    def test_gain_that_overflows_rejected(self, index, fov_deg):
        with pytest.raises(ValueError, match=r"concentrator_index must be >= 1 with a finite gain n\^2 / sin\^2"):
            nominal_room(fov_deg=fov_deg, concentrator_index=index)


class TestLosGain:
    def test_center_link_matches_hand_formula(self):
        # straight-up link, 3 m, narrow acceptance: every factor is textbook
        room = nominal_room(fov_deg=11.0)
        m = _lambert_mode(30.0)
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
        # the transmitter sits 1 cm under the receiver
        room = nominal_room(
            fov_deg=2.0,
            tx_semi_angle_deg=5.0,
            transmitter=Pose(Point3(2.0, 2.0, 2.99), Point3(0.0, 0.0, 1.0)),
        )
        assert los_gain_for(room) == 1.0

    def test_wider_fov_means_less_gain(self):
        narrow = los_gain_for(nominal_room(fov_deg=5.0))
        wide = los_gain_for(nominal_room(fov_deg=25.0))
        assert narrow > wide


class TestReflectedPatchGain:
    """The bounce integrand for single cells, against the hand formula."""

    def _cell_gain(self, room, center, normal, area, reflectivity):
        m1 = _lambert_mode(room.lamp_semi_angle_deg)
        g_in = concentrator_gain(room.concentrator_index, room.fov_deg)
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
        m1 = _lambert_mode(70.0)
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


class TestFloorConeClosedForm:
    """The patch sum against the exact floor-cone integral on a fine FOV ladder."""

    @pytest.mark.parametrize(
        "patches_per_meter, rtol",
        [(10, 1e-3), (40, 3e-4)],  # worst measured: 5.9e-4 and 1.9e-4
    )
    def test_lamp_center_two_to_thirty_degrees(self, patches_per_meter, rtol):
        for fov in np.arange(2.0, 30.25, 0.5):
            room = build_setup(Scenario.named("lamp-center"), float(fov), 1e-5).room
            numeric = total_reflected_gain(room, patches_per_meter)
            assert numeric == pytest.approx(floor_cone_closed_form(room), rel=rtol), fov


def pinned_room(kind, fov):
    if kind == "nominal":
        return build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
    if kind == "offset-lamp":
        overrides = {"lamp_x_m": 1.0, "lamp_y_m": 2.5}
        return build_setup(Scenario.named("lamp-center", overrides), fov, 1e-5).room
    # steered-corner: the receiver turned toward the corner transmitter, so
    # its axis has a component along every surface direction
    room = build_setup(Scenario.named("lamp-corner-steered"), fov, 1e-5).room
    return replace(room, receiver=Pose.aimed_at(room.receiver.position, room.transmitter.position))


# total_reflected_gain(pinned_room(kind, fov), patches_per_meter,
# refine_depth=depth) as computed by the world-coordinate refinement that
# preceded the plane-coordinate one.  A single cell whose accept/straddle
# decision flips moves a value by far more than 1e-12.
PINNED_REFLECTED_GAIN = {
    ('nominal', 0.25, 10, None): 6.534743342515902e-07,
    ('nominal', 0.25, 10, 0): 0.0,
    ('nominal', 0.25, 20, None): 6.534743342515902e-07,
    ('nominal', 0.25, 20, 0): 0.0,
    ('nominal', 0.25, 40, None): 6.534743342515902e-07,
    ('nominal', 0.25, 40, 0): 0.0,
    ('nominal', 2.0, 10, None): 6.542768295006273e-07,
    ('nominal', 2.0, 10, 0): 7.591238122009197e-07,
    ('nominal', 2.0, 20, None): 6.542768295006273e-07,
    ('nominal', 2.0, 20, 0): 5.694439434626632e-07,
    ('nominal', 2.0, 40, None): 6.542516195661401e-07,
    ('nominal', 2.0, 40, 0): 6.167572129261619e-07,
    ('nominal', 5.0, 10, None): 6.507226187783001e-07,
    ('nominal', 5.0, 10, 0): 7.20111207283788e-07,
    ('nominal', 5.0, 20, None): 6.505321547982817e-07,
    ('nominal', 5.0, 20, 0): 6.610586691412629e-07,
    ('nominal', 5.0, 40, None): 6.504653113590601e-07,
    ('nominal', 5.0, 40, 0): 6.239955003875064e-07,
    ('nominal', 16.0, 10, None): 6.108602252331606e-07,
    ('nominal', 16.0, 10, 0): 6.093349353046568e-07,
    ('nominal', 16.0, 20, None): 6.106210538996817e-07,
    ('nominal', 16.0, 20, 0): 6.094677157373493e-07,
    ('nominal', 16.0, 40, None): 6.105593947304968e-07,
    ('nominal', 16.0, 40, 0): 6.09457750627888e-07,
    ('nominal', 30.0, 10, None): 5.162105470464231e-07,
    ('nominal', 30.0, 10, 0): 5.140728576462103e-07,
    ('nominal', 30.0, 20, None): 5.160933789962048e-07,
    ('nominal', 30.0, 20, 0): 5.152832356671376e-07,
    ('nominal', 30.0, 40, None): 5.16064218750565e-07,
    ('nominal', 30.0, 40, 0): 5.156760439636889e-07,
    ('nominal', 60.0, 10, None): 1.500543836888292e-06,
    ('nominal', 60.0, 10, 0): 1.480714033211243e-06,
    ('nominal', 60.0, 20, None): 1.5004113215268674e-06,
    ('nominal', 60.0, 20, 0): 1.5060017407722364e-06,
    ('nominal', 60.0, 40, None): 1.5003756619788266e-06,
    ('nominal', 60.0, 40, 0): 1.5008080746945646e-06,
    ('nominal', 90.0, 10, None): 1.8697580326040472e-06,
    ('nominal', 90.0, 10, 0): 1.8695269733687435e-06,
    ('nominal', 90.0, 20, None): 1.8693302635915359e-06,
    ('nominal', 90.0, 20, 0): 1.8692928658409882e-06,
    ('nominal', 90.0, 40, None): 1.8692440422516456e-06,
    ('nominal', 90.0, 40, 0): 1.8692380488099174e-06,
    ('offset-lamp', 0.25, 10, None): 5.155424817441705e-07,
    ('offset-lamp', 0.25, 10, 0): 0.0,
    ('offset-lamp', 0.25, 20, None): 5.155424817441705e-07,
    ('offset-lamp', 0.25, 20, 0): 0.0,
    ('offset-lamp', 0.25, 40, None): 5.155424817441705e-07,
    ('offset-lamp', 0.25, 40, 0): 0.0,
    ('offset-lamp', 2.0, 10, None): 5.164074162108924e-07,
    ('offset-lamp', 2.0, 10, 0): 5.991449548257917e-07,
    ('offset-lamp', 2.0, 20, None): 5.164074162108924e-07,
    ('offset-lamp', 2.0, 20, 0): 4.4942231025144557e-07,
    ('offset-lamp', 2.0, 40, None): 5.163915453930779e-07,
    ('offset-lamp', 2.0, 40, 0): 4.867857293380323e-07,
    ('offset-lamp', 5.0, 10, None): 5.148278490320075e-07,
    ('offset-lamp', 5.0, 10, 0): 5.69960860843176e-07,
    ('offset-lamp', 5.0, 20, None): 5.147073851510883e-07,
    ('offset-lamp', 5.0, 20, 0): 5.230703385162608e-07,
    ('offset-lamp', 5.0, 40, None): 5.146650120255902e-07,
    ('offset-lamp', 5.0, 40, 0): 4.936650246780785e-07,
    ('offset-lamp', 16.0, 10, None): 4.956910461091387e-07,
    ('offset-lamp', 16.0, 10, 0): 4.944841633140175e-07,
    ('offset-lamp', 16.0, 20, None): 4.955277599024636e-07,
    ('offset-lamp', 16.0, 20, 0): 4.94575300668657e-07,
    ('offset-lamp', 16.0, 40, None): 4.954855118975544e-07,
    ('offset-lamp', 16.0, 40, 0): 4.945684286744814e-07,
    ('offset-lamp', 30.0, 10, None): 4.427212771389543e-07,
    ('offset-lamp', 30.0, 10, 0): 4.407370149980857e-07,
    ('offset-lamp', 30.0, 20, None): 4.4262525400370776e-07,
    ('offset-lamp', 30.0, 20, 0): 4.418706332854499e-07,
    ('offset-lamp', 30.0, 40, None): 4.4260123020435217e-07,
    ('offset-lamp', 30.0, 40, 0): 4.4223864688915524e-07,
    ('offset-lamp', 60.0, 10, None): 1.3206428480293892e-06,
    ('offset-lamp', 60.0, 10, 0): 1.3017135968884608e-06,
    ('offset-lamp', 60.0, 20, None): 1.3206610152654839e-06,
    ('offset-lamp', 60.0, 20, 0): 1.3261527549876443e-06,
    ('offset-lamp', 60.0, 40, None): 1.3206639961910137e-06,
    ('offset-lamp', 60.0, 40, 0): 1.3210583346344196e-06,
    ('offset-lamp', 90.0, 10, None): 1.8748076956319995e-06,
    ('offset-lamp', 90.0, 10, 0): 1.8744462106601825e-06,
    ('offset-lamp', 90.0, 20, None): 1.8742569405857411e-06,
    ('offset-lamp', 90.0, 20, 0): 1.8741978106246445e-06,
    ('offset-lamp', 90.0, 40, None): 1.8741511357606446e-06,
    ('offset-lamp', 90.0, 40, 0): 1.8741416345830545e-06,
    ('steered-corner', 0.25, 10, None): 7.394992747424398e-07,
    ('steered-corner', 0.25, 10, 0): 0.0,
    ('steered-corner', 0.25, 20, None): 7.394992747424398e-07,
    ('steered-corner', 0.25, 20, 0): 0.0,
    ('steered-corner', 0.25, 40, None): 7.394992747424398e-07,
    ('steered-corner', 0.25, 40, 0): 6.779657915915591e-07,
    ('steered-corner', 2.0, 10, None): 8.024776983166943e-07,
    ('steered-corner', 2.0, 10, 0): 7.609847828839984e-07,
    ('steered-corner', 2.0, 20, None): 8.026071841764793e-07,
    ('steered-corner', 2.0, 20, 0): 7.952639568405664e-07,
    ('steered-corner', 2.0, 40, None): 8.026574219069483e-07,
    ('steered-corner', 2.0, 40, 0): 8.164110804907062e-07,
    ('steered-corner', 5.0, 10, None): 9.117016135054604e-07,
    ('steered-corner', 5.0, 10, 0): 9.476108732580326e-07,
    ('steered-corner', 5.0, 20, None): 9.119298475727965e-07,
    ('steered-corner', 5.0, 20, 0): 8.962490509609838e-07,
    ('steered-corner', 5.0, 40, None): 9.120011361176893e-07,
    ('steered-corner', 5.0, 40, 0): 9.135764671790459e-07,
    ('steered-corner', 16.0, 10, None): 1.3350049758429243e-06,
    ('steered-corner', 16.0, 10, 0): 1.328524942605447e-06,
    ('steered-corner', 16.0, 20, None): 1.335346536415826e-06,
    ('steered-corner', 16.0, 20, 0): 1.3300370432377234e-06,
    ('steered-corner', 16.0, 40, None): 1.3354363444219932e-06,
    ('steered-corner', 16.0, 40, 0): 1.3385210921515774e-06,
    ('steered-corner', 30.0, 10, None): 1.80175875956253e-06,
    ('steered-corner', 30.0, 10, 0): 1.7992674970493499e-06,
    ('steered-corner', 30.0, 20, None): 1.8018362770441734e-06,
    ('steered-corner', 30.0, 20, 0): 1.8061779622520197e-06,
    ('steered-corner', 30.0, 40, None): 1.8018487141483427e-06,
    ('steered-corner', 30.0, 40, 0): 1.800542103454376e-06,
    ('steered-corner', 60.0, 10, None): 1.8645366928081e-06,
    ('steered-corner', 60.0, 10, 0): 1.8661372544218424e-06,
    ('steered-corner', 60.0, 20, None): 1.863362053504962e-06,
    ('steered-corner', 60.0, 20, 0): 1.8624182631079239e-06,
    ('steered-corner', 60.0, 40, None): 1.8630152047643391e-06,
    ('steered-corner', 60.0, 40, 0): 1.8628274001858857e-06,
    ('steered-corner', 90.0, 10, None): 1.668117877930554e-06,
    ('steered-corner', 90.0, 10, 0): 1.66800296444538e-06,
    ('steered-corner', 90.0, 20, None): 1.666968283942164e-06,
    ('steered-corner', 90.0, 20, 0): 1.66693746756833e-06,
    ('steered-corner', 90.0, 40, None): 1.6666192431039965e-06,
    ('steered-corner', 90.0, 40, 0): 1.6666112782806145e-06,
}


class TestPinnedReflectedGain:
    @pytest.mark.parametrize("kind, fov, patches_per_meter, depth", sorted(PINNED_REFLECTED_GAIN, key=str))
    def test_value_unchanged(self, kind, fov, patches_per_meter, depth):
        value = total_reflected_gain(pinned_room(kind, fov), patches_per_meter, refine_depth=depth)
        expected = PINNED_REFLECTED_GAIN[(kind, fov, patches_per_meter, depth)]
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


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
            DetectorParams(efficiency=0.0, dark_count_rate_hz=1000.0, pulse_width_s=1e-10, wavelength_nm=880.0)
        with pytest.raises(ValueError):
            DetectorParams(efficiency=0.6, dark_count_rate_hz=-1.0, pulse_width_s=1e-10, wavelength_nm=880.0)

    def test_channel_gains_bounds(self):
        with pytest.raises(ValueError):
            ChannelGains(line_of_sight=1.2, transmittance=0.5, reflected_integral=0.0)
        with pytest.raises(ValueError):
            ChannelGains(line_of_sight=0.5, transmittance=0.5, reflected_integral=-1e-9)
