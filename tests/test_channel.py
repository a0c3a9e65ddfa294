"""Lambertian LOS gain, concentrator cutoff, and the single-bounce quadrature.

The floor-only closed form used as an oracle below
(``montecarlo.floor_cone_closed_form``) is exact while the acceptance cone of
a ceiling-center receiver looking straight down stays entirely on the
floor.  It is independent of the quadrature code.  Where walls are in view,
the quadrature is held to the fine patch sums it replaced, pinned in
``tests/data/reflected_gain_pins.json``.  The quadrature's own values, at
several rule orders, are pinned in ``tests/data/quadrature_pins.json``.
"""

import json
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

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
    _ReceiverView,
)
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.geometry import (
    LinkGeometry,
    Point3,
    Pose,
    RoomScenario,
    concentrator_gain,
    lambert_mode,
)
from indoorqkd.montecarlo import estimate_reflected_gain, floor_cone_closed_form


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
        assert lambert_mode(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_narrow_source(self):
        assert lambert_mode(30.0) == pytest.approx(4.81884167930642, rel=1e-12)

    def test_wide_source(self):
        assert lambert_mode(70.0) == pytest.approx(0.646058770348734, rel=1e-12)

    def test_infinite_where_the_cosine_rounds_to_one(self):
        assert lambert_mode(1e-9) == math.inf
        assert math.isfinite(lambert_mode(1e-4))

    @pytest.mark.parametrize("bad", [0.0, 90.0, 95.0, -10.0, 1e-9, 5e-324])
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


class TestRadiance:
    """The bounce integrand at the first surface a ray meets, against the hand formula."""

    def _radiance(self, room, direction):
        omega = np.array(direction.normalized().as_tuple())[:, None, None]
        view = _ReceiverView(room)
        return float(view._radiance(omega)[0, 0]) / view.scale**2  # its units are the scale's

    def test_floor_point_matches_hand_formula(self):
        room = nominal_room(fov_deg=30.0)
        # the ray from the ceiling-center receiver meets the floor at (2.5, 2.25, 0)
        direction = Point3(0.5, 0.25, -3.0)
        center = room.receiver.position.minus(Point3(-0.5, -0.25, 3.0))
        v1 = center.minus(room.lamp.position)
        d1 = v1.norm()
        cos_phi = cos_alpha = -v1.z / d1  # lamp looks straight down at a floor facing up
        m1 = lambert_mode(70.0)
        expected = 0.1 * cos_phi**m1 * cos_alpha / d1**2
        assert self._radiance(room, direction) == pytest.approx(expected, rel=1e-12)

    def test_wall_point_matches_hand_formula(self):
        room = nominal_room(fov_deg=90.0)
        # the ray meets the wall x = 4 at (4, 2, 2)
        v1 = Point3(4.0, 2.0, 2.0).minus(room.lamp.position)
        d1 = v1.norm()
        cos_phi, cos_alpha = -v1.z / d1, v1.x / d1
        expected = 0.7 * cos_phi ** lambert_mode(70.0) * cos_alpha / d1**2
        assert self._radiance(room, Point3(2.0, 0.0, -1.0)) == pytest.approx(expected, rel=1e-12)

    def test_ceiling_reflects_nothing(self):
        room = nominal_room(receiver=Pose(Point3(2.0, 2.0, 1.5), Point3(0.0, 0.0, -1.0)))
        assert self._radiance(room, Point3(0.1, 0.2, 1.0)) == 0.0
        assert self._radiance(room, Point3(0.1, 0.2, -1.0)) > 0.0


class TestTotalReflectedGain:
    @pytest.mark.parametrize("fov", [5.0, 11.0, 30.0])
    def test_matches_closed_form_on_floor_cone(self, fov):
        room = nominal_room(fov_deg=fov)
        numeric = total_reflected_gain(room, 10)
        exact = floor_cone_closed_form(room)
        assert numeric == pytest.approx(exact, rel=5e-3)

    def test_order_doubling_stays_within_half_percent(self):
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

    @pytest.mark.parametrize("kind", ["nominal", "offset-lamp", "steered-corner"])
    def test_fov_array_equals_one_fov_calls_bit_for_bit(self, kind):
        fovs = [0.25, 2.0, 14.999, 15.0, 33.7, 44.0, 60.0, 89.9, 90.0]
        room = pinned_room(kind, 30.0)
        for order in fovs, fovs[::-1], fovs[3:]:
            channel._VIEWS.clear()  # each value computed, not read from the room's memo
            values = total_reflected_gain(room, 10, fov_deg=order)
            assert values.shape == (len(order),)
            for fov, value in zip(order, values.tolist()):
                channel._VIEWS.clear()
                assert value == total_reflected_gain(replace(room, fov_deg=fov), 10), fov
        column = total_reflected_gain(room, 10, fov_deg=np.array(fovs)[:, None])
        assert column.shape == (len(fovs), 1)

    def test_cost_does_not_grow_with_the_room(self):
        def cpu(room):
            channel._VIEWS.clear()  # the view and the integral computed, not read from the memo
            start = time.process_time()
            total_reflected_gain(room, 10)
            return time.process_time() - start

        cpu(nominal_room(fov_deg=60.0))
        small = min(cpu(nominal_room(fov_deg=60.0)) for _ in range(3))
        # 1e5 m is what the room-size cases of the CLI property test draw
        for key, center in (("room_x_m", Point3(5e4, 2.0, 3.0)), ("room_z_m", Point3(2.0, 2.0, 1e5))):
            pose = Pose(center, Point3(0.0, 0.0, -1.0))
            huge = nominal_room(fov_deg=60.0, **{key: 1e5}, lamp=pose, receiver=pose)
            assert total_reflected_gain(huge, 10) > 0.0
            assert min(cpu(huge) for _ in range(3)) < 5.0 * small + 0.01, key

    @pytest.mark.parametrize("order", [2.5, 2.0, math.inf, math.nan, 0, -3, "10"])
    def test_rule_order_is_an_integer_of_at_least_one(self, order):
        room = nominal_room()
        channel._VIEWS.clear()
        for call in total_reflected_gain, reflected_gain_convergence:
            with pytest.raises(ValueError, match="patches_per_meter must be an integer >= 1"):
                call(room, order)
        assert not channel._VIEWS  # refused before the memo is touched

    def test_numpy_integer_orders_share_the_int_table(self):
        room = nominal_room()
        channel._VIEWS.clear()
        value = total_reflected_gain(room, 4)
        [view] = channel._VIEWS.values()
        for order in np.int64(4), np.int32(4), np.uint8(4):
            assert total_reflected_gain(room, order) == value
        assert [(type(k), list(v)) for k, v in view.integrals.items()] == [(int, [30.0])]

    @pytest.mark.parametrize("fovs", [[], np.zeros((0, 1))])
    def test_empty_fov_array_gives_an_empty_array(self, fovs):
        room = nominal_room()
        values = total_reflected_gain(room, 10, fov_deg=fovs)
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert values.shape == np.shape(fovs) == los_gain_for(room, fov_deg=fovs).shape


class TestFloorConeClosedForm:
    """The quadrature against the exact floor-cone integral on a fine FOV ladder."""

    @pytest.mark.parametrize(
        "patches_per_meter, rtol",
        [(10, 1e-3), (40, 3e-4)],  # the bounds the patch sum was held to
    )
    def test_lamp_center_two_to_thirty_degrees(self, patches_per_meter, rtol):
        for fov in np.arange(2.0, 30.25, 0.5):
            room = build_setup(Scenario.named("lamp-center"), float(fov), 1e-5).room
            numeric = total_reflected_gain(room, patches_per_meter)
            assert numeric == pytest.approx(floor_cone_closed_form(room), rel=rtol), fov

    @pytest.mark.parametrize("overrides", [{}, {"room_x_m": 7.0, "room_y_m": 3.0, "room_z_m": 2.5, "lamp_semi_angle_deg": 30.0}])
    def test_quarter_to_thirty_degrees_to_1e_9(self, overrides):
        # the patch sum was 2.2e-3 (nominal) and 5.8e-3 (7 x 3 x 2.5 m) off at 0.25 deg
        scenario = Scenario.named("lamp-center", overrides)
        for fov in np.arange(0.25, 30.01, 0.25):
            room = build_setup(scenario, float(fov), 1e-5).room
            exact = floor_cone_closed_form(room)
            if exact is None:  # the cone reaches a wall of the narrow room
                break
            assert total_reflected_gain(room, 10) == pytest.approx(exact, rel=1e-9, abs=0.0), fov

    # the near walls carry the integral however long the room, and no cut-off may drop them
    @pytest.mark.parametrize("size", [1e13, 1e100, 1e300])
    @pytest.mark.parametrize("key", ["room_x_m", "room_y_m"])
    def test_a_long_room_to_1e_9(self, key, size):
        room = build_setup(Scenario.named("lamp-center", {key: size}), 20.0, 1e-5).room
        assert total_reflected_gain(room, 10) == pytest.approx(floor_cone_closed_form(room), rel=1e-9, abs=0.0)


def test_a_tall_room_against_the_monte_carlo_oracle():
    # the walls are in view at 60 deg, where no closed form holds
    room = build_setup(Scenario.named("lamp-center", {"room_z_m": 1e13}), 60.0, 1e-5).room
    estimate = estimate_reflected_gain(room, samples=2_000_000, seed=1)
    assert abs(total_reflected_gain(room, 10) - estimate.value) <= 5.0 * estimate.std_error


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


PATCH_SUMS = json.loads((Path(__file__).parent / "data" / "reflected_gain_pins.json").read_text())["rooms"]


def patch_sum_room(pin):
    x, y, z = pin["room"]
    return RoomScenario(
        room_x_m=x, room_y_m=y, room_z_m=z,
        wall_reflectivity=pin["wall_reflectivity"], floor_reflectivity=pin["floor_reflectivity"],
        lamp=Pose(Point3(*pin["lamp"]), Point3(0.0, 0.0, -1.0)),
        lamp_semi_angle_deg=pin["lamp_semi_angle_deg"],
        transmitter=Pose(Point3(x / 2.0, y / 2.0, 0.0), Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=30.0,
        receiver=Pose(Point3(*pin["receiver"]), Point3(*pin["receiver_axis"])),
        fov_deg=pin["fov_deg"], detector_area_m2=1e-4, concentrator_index=1.5,
        filter_transmission=1.0, filter_bandwidth_nm=0.0258,
    )


def six_plane_radiance(view, omega):
    """The radiance with the exit plane found as the kernel once found it: the
    distance to each of the six planes the ray faces, and ``np.argmin`` over them."""
    facing = np.tensordot(view.normal, omega, axes=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(facing < 0.0, view.height.reshape((-1,) + (1,) * (omega.ndim - 1)) / facing, np.inf)
    plane = np.argmin(reach, axis=0)
    t = np.take_along_axis(reach, plane[None], axis=0)[0]
    v1 = t * omega - view.lamp.reshape((3,) + (1,) * (omega.ndim - 1))
    d1_sq = v1[0] * v1[0] + v1[1] * v1[1] + v1[2] * v1[2]
    d1 = np.sqrt(d1_sq)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        along = v1[0] * view.lamp_axis[0] + v1[1] * view.lamp_axis[1] + v1[2] * view.lamp_axis[2]
        cos_phi = np.clip(along / d1, 0.0, None)
        radiance = view.lamp_gain[plane] * cos_phi**view.m1 / (d1_sq * d1)
    return np.where(d1 > 1e-12, radiance, 0.0)


def assert_same_bits(room, omega):
    view = _ReceiverView(room)
    got, want = view._radiance(omega), six_plane_radiance(view, omega)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


class TestExitPlaneAgainstSixPlanes:
    """The per-axis exit plane of ``_ReceiverView._radiance`` against the six-plane rule, bit for bit."""

    @pytest.mark.parametrize("kind", ["nominal", "offset-lamp", "steered-corner"])
    def test_seeded_random_directions(self, kind):
        omega = np.random.default_rng(12).normal(size=(3, 400, 12))
        omega /= np.linalg.norm(omega, axis=0)
        assert_same_bits(pinned_room(kind, 30.0), omega)

    def test_axis_parallel_rays(self):
        # Components exactly 0 leave a ray parallel to both planes of an axis; the second
        # receiver sits on the wall x = 0, whose distance along such a ray is 0 / 0.
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0), (0, -1, -1), (-1, 0, 1)]
        omega = np.array(rays, dtype=float).T.copy()
        for room in (nominal_room(), nominal_room(receiver=Pose(Point3(0.0, 1.0, 1.5), Point3(1.0, 0.0, 0.0)))):
            assert_same_bits(room, omega)

    def test_ties_at_corners_and_edges(self):
        # Unnormalized rays from the receiver at (2, 2, 3) toward floor corners, floor-wall
        # edges and wall-wall edges meet their planes at exactly equal distances, so the tie
        # rule picks the plane; the lamp off center gives each plane its own lamp gain.
        lamp = Pose(Point3(1.5, 2.5, 3.0), Point3(0.0, 0.0, -1.0))
        rays = [(-2, -2, -3), (2, 2, -3), (0, -2, -3), (2, 0, -3), (-2, -2, -1), (2, -2, -1)]
        radiance = assert_same_bits(nominal_room(lamp=lamp), np.array(rays, dtype=float).T.copy())
        assert (radiance > 0.0).all()
        # From 1.5 m up toward ceiling-wall edges, lit by a lamp below that faces up.
        low = nominal_room(
            receiver=Pose(Point3(2.0, 2.0, 1.5), Point3(0.0, 0.0, -1.0)), lamp=Pose(Point3(2.0, 2.0, 1.0), Point3(0.0, 0.0, 1.0))
        )
        rays = [(2, 0, 1.5), (0, -2, 1.5), (-2, -2, 1.5)]
        radiance = assert_same_bits(low, np.array(rays, dtype=float).T.copy())
        assert (radiance > 0.0).all()  # the walls win the ties with the ceiling, which reflects nothing

    @pytest.mark.parametrize("index", [i for i, pin in enumerate(PATCH_SUMS) if pin["receiver_axis"][2] != -1.0][:8])
    def test_tilted_receiver_rooms(self, index):
        room = patch_sum_room(PATCH_SUMS[index])
        view = _ReceiverView(room)
        psi, theta = np.meshgrid(np.linspace(0.01, 0.5 * math.pi - 0.01, 40), np.linspace(0.0, 2.0 * math.pi, 60), indexing="ij")
        axis, e1, e2 = (v[:, None, None] for v in view.frame)
        omega = axis * np.cos(psi) + e1 * (np.sin(psi) * np.cos(theta)) + e2 * (np.sin(psi) * np.sin(theta))
        assert_same_bits(room, omega)


class TestOnePassBitInvariants:
    """A pass's ring values and a room's memo of whole psi pieces change no bit."""

    @pytest.mark.parametrize("block", [1, 7, 32, 64])
    def test_ring_values_do_not_depend_on_the_block(self, monkeypatch, block):
        # every block of a pass works in the same array; each node's ring value
        # equals the one computed for that node alone, in an array of its own
        view = _ReceiverView(pinned_room("steered-corner", 30.0))
        ring_integrals, seen = _ReceiverView.ring_integrals, []

        def recording(self, psi, work=None):
            seen.append((psi.copy(), ring_integrals(self, psi, work)))
            return seen[-1][1]

        monkeypatch.setattr(channel, "_PSI_BLOCK", block)
        monkeypatch.setattr(_ReceiverView, "ring_integrals", recording)
        positions, weights = channel._mapped_rule(10)
        view.piece_sums(view.bounds[:-1], view.bounds[1:], positions, weights)
        monkeypatch.undo()
        psi = np.concatenate([p for p, _ in seen])
        assert max(len(p) for p, _ in seen) == block and len(psi) == 10 * (len(view.bounds) - 1)
        alone = np.concatenate([view.ring_integrals(psi[k : k + 1]) for k in range(len(psi))])
        assert alone.view(np.uint64).tolist() == np.concatenate([r for _, r in seen]).view(np.uint64).tolist()

    @pytest.mark.parametrize("kind", ["nominal", "offset-lamp", "steered-corner"])
    def test_warm_memo_equals_cold_one_fov_calls(self, kind):
        room = pinned_room(kind, 30.0)
        channel._VIEWS.clear()
        sweep = np.linspace(2.0, 28.0, 14)
        warm = list(total_reflected_gain(room, 10, fov_deg=sweep))
        [view] = channel._VIEWS.values()
        swept = len(view.whole_pieces[10])
        # probes below the first cut and above it, inside the sweep and beyond it
        probes = [3.3, 14.2, 19.5, 27.1, 33.7, 61.0]
        warm += [total_reflected_gain(room, 10, fov_deg=fov) for fov in probes]
        assert len(view.whole_pieces[10]) > swept  # 33.7 and 61 add whole pieces
        cuts = [15.0, 30.0, 90.0]  # panel knots: no partial piece
        warm += [total_reflected_gain(room, 10, fov_deg=fov) for fov in cuts]
        assert len(view.whole_pieces[10]) == len(view.bounds) - 1
        for fov, value in zip([*sweep.tolist(), *probes, *cuts], warm):
            channel._VIEWS.clear()
            assert np.float64(value).view(np.uint64) == np.float64(total_reflected_gain(replace(room, fov_deg=fov), 10)).view(np.uint64), fov


class TestTurnReduction:
    """``_reduce_turns`` against ``np.nan_to_num(np.mod(x, 2 pi))``, bit for bit."""

    @staticmethod
    def assert_same_bits(x):
        with np.errstate(invalid="ignore"):  # +-inf: both give nan, then 0
            want = np.nan_to_num(np.mod(x, 2.0 * math.pi))
            got = channel._reduce_turns(x.copy())
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_signed_zeros_turns_and_non_finite_values(self):
        turn = 2.0 * math.pi
        edges = np.array([0.0, -0.0, turn, -turn, math.pi, -math.pi, 5e-324, -5e-324, 1e-300, -1e-300])
        x = np.concatenate([edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf), [math.nan, math.inf, -math.inf]])
        self.assert_same_bits(x)
        # a negative zero comes out as np.mod's positive one, a tiny negative as the whole turn
        assert np.signbit(channel._reduce_turns(np.array([-0.0, -turn]))).tolist() == [False, False]
        assert channel._reduce_turns(np.array([-5e-324])).tolist() == [turn]

    def test_seeded_draws(self):
        x = np.random.default_rng(18).uniform(-2.0 * math.pi, 2.0 * math.pi, 100_000)
        x[::7] = math.nan  # most rings miss most edge planes
        self.assert_same_bits(x)
        # in the strided layout the kernel reduces: the crossing columns of its bounds matrix
        bounds = np.random.default_rng(19).uniform(-2.0 * math.pi, 2.0 * math.pi, (32, 37))
        bounds[:, 20:30] = math.nan
        want = np.nan_to_num(np.mod(bounds[:, 13:], 2.0 * math.pi))
        assert channel._reduce_turns(bounds[:, 13:]).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def ring_pin_room(kind):
    """The rooms of ``tests/data/ring_pins.json``: the three pinned rooms, a lamp at the
    receiver off the room's center (the view's lamp is 0), a lamp on the wall x = 0
    looking into the room, a tilted receiver 1.6 m up, and the first two tilted
    receivers of the patch-sum pins."""
    if kind in ("nominal", "offset-lamp", "steered-corner"):
        return pinned_room(kind, 30.0)
    if kind == "lamp-at-receiver":
        pose = Pose(Point3(1.0, 2.5, 3.0), Point3(0.0, 0.0, -1.0))
        return nominal_room(lamp=pose, receiver=pose)
    if kind == "lamp-on-wall":
        return nominal_room(lamp=Pose(Point3(0.0, 2.5, 1.5), Point3(1.0, 0.0, 0.0)))
    if kind == "low-receiver":  # below the ceiling, so every edge plane can cut a ring
        return nominal_room(receiver=Pose(Point3(1.2, 2.9, 1.6), Point3(0.3, -0.2, -0.9).normalized()))
    tilted = [pin for pin in PATCH_SUMS if pin["receiver_axis"][2] != -1.0]
    return patch_sum_room(tilted[{"tilted-a": 0, "tilted-b": 1}[kind]])


def ring_pin_nodes(view):
    """The psi nodes pinned for a view: 24 across (0, pi/2) and, at every interior cut
    (panel knots, corner and edge psi extremes), the cut, its float neighbours and the
    cut times 1 -+ 1e-9, so that rings just inside and just past an edge's tangency count."""
    cuts = view.bounds[1:-1]
    near = [cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, math.pi), cuts * (1.0 - 1e-9), cuts * (1.0 + 1e-9)]
    return np.concatenate([np.linspace(0.004, 0.5 * math.pi - 0.004, 24), *near])


RING_PINS = json.loads((Path(__file__).parent / "data" / "ring_pins.json").read_text())["rooms"]


class TestRingPins:
    """``ring_integrals`` at fixed psi nodes, bit for bit as recorded before its kernel was reworked."""

    @pytest.mark.parametrize("kind", list(RING_PINS))
    def test_ring_values_unchanged(self, kind):
        pin = RING_PINS[kind]
        view = _ReceiverView(ring_pin_room(kind))
        psi = np.array(pin["psi_bits"], dtype=np.uint64).view(np.float64)
        assert psi.view(np.uint64).tolist() == ring_pin_nodes(view).view(np.uint64).tolist()
        assert view.ring_integrals(psi).view(np.uint64).tolist() == pin["value_bits"]

    def test_pinned_rooms_cover_the_kernel_cases(self):
        views = {kind: _ReceiverView(ring_pin_room(kind)) for kind in RING_PINS}
        assert not views["lamp-at-receiver"].lamp.any()
        assert views["lamp-on-wall"].lamp_gain[1] == 0.0  # the lamp lies in the wall x = 0
        # a receiver facing straight down has 6 zero frame coefficients; a tilted one only
        # e1's x, for e1 is the axis times the x helper
        assert np.count_nonzero(views["nominal"].frame == 0.0) == 6
        for kind in "tilted-a", "tilted-b":
            assert np.argwhere(views[kind].frame == 0.0).tolist() == [[1, 0]]


class TestAgainstFinePatchSums:
    @pytest.mark.parametrize("index", range(len(PATCH_SUMS)))
    def test_within_the_patch_sums_own_error(self, index):
        # walls in view: 1e-4 of the 160/m sum, or its own move to 320/m where larger
        pin = PATCH_SUMS[index]
        fine, finer = pin["patch_sum_160"], pin["patch_sum_320"]
        bound = max(1e-4 * fine, abs(finer - fine))
        assert abs(total_reflected_gain(patch_sum_room(pin), 10) - fine) <= bound, pin


# total_reflected_gain(pinned_room(kind, fov), order) as the quadrature computes it
QUADRATURE_PINS = {
    (p["kind"], p["fov_deg"], p["order"]): p["value"]
    for p in json.loads((Path(__file__).parent / "data" / "quadrature_pins.json").read_text())["pins"]
}


class TestPinnedReflectedGain:
    @pytest.mark.parametrize("kind, fov, order", list(QUADRATURE_PINS))
    def test_value_unchanged(self, kind, fov, order):
        value = total_reflected_gain(pinned_room(kind, fov), order)
        assert value == pytest.approx(QUADRATURE_PINS[(kind, fov, order)], rel=1e-12, abs=0.0)


class TestConvergenceReporting:
    def test_default_resolution_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reflected_gain_convergence(nominal_room(fov_deg=30.0), 10)
        assert report.converged
        assert report.rel_change < 5e-3

    def test_low_order_warns_with_both_estimates(self):
        # a one-point rule per piece is far from the two-point one
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
