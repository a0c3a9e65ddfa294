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
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from indoorqkd import channel, geometry
from indoorqkd.channel import (
    ChannelGains,
    DetectorParams,
    los_gain_for,
    reflected_gain_convergence,
    total_reflected_gain,
    _ReceiverView,
)
from indoorqkd.experiments import LAMP_SCENARIOS, Scenario, build_setup
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
        return float(view._radiance(omega, np.empty(5), plane=None)[0, 0]) / view.scale**2  # its units are the scale's

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

    @pytest.mark.parametrize("order", [2.5, 2.0, math.inf, math.nan, 0, -3, "10", None])
    def test_rule_order_is_an_integer_of_at_least_one(self, order):
        room = nominal_room()
        channel._VIEWS.clear()
        for call in total_reflected_gain, reflected_gain_convergence:
            with pytest.raises(ValueError, match="order must be an integer >= 1"):
                call(room, order)
        assert not channel._VIEWS  # refused before the memo is touched
        # the same count rule, in the patch grids and the oracle's ray count
        with pytest.raises(ValueError, match="^patches_per_meter must be an integer >= 1"):
            geometry.wall_and_floor_grids(room, order)
        with pytest.raises(ValueError, match="^samples must be an integer >= 1"):
            estimate_reflected_gain(room, order)

    def test_rule_order_is_at_most_its_bound(self):
        # the dense eigensolve of order 10**12 asked for 7.28 TiB; the convergence check doubles its order
        room = nominal_room()
        channel._VIEWS.clear()
        for call, most in (total_reflected_gain, channel.MAX_ORDER), (reflected_gain_convergence, channel.MAX_ORDER // 2):
            for order in most + 1, np.int64(most + 1), 10**12:
                with pytest.raises(ValueError, match=f"^order must be an integer <= {most:,}, got "):
                    call(room, order)
        assert not channel._VIEWS  # refused before the memo is touched

    def test_numpy_integer_orders_share_the_int_table(self):
        room = nominal_room()
        channel._VIEWS.clear()
        value = total_reflected_gain(room, 4)
        [view] = channel._VIEWS.values()
        for order in np.int64(4), np.int32(4), np.uint8(4):
            assert total_reflected_gain(room, order) == value
        assert [(type(order), rule, list(v)) for (order, rule), v in view.integrals.items()] == [(int, view.theta_rule, [30.0])]

    def test_view_memo_keeps_the_room_in_use(self, monkeypatch):
        monkeypatch.setattr(channel, "_VIEWS", {})
        rooms = [nominal_room(wall_reflectivity=0.5 + i / 1000) for i in range(3)]
        total_reflected_gain(rooms[0], 10)
        [view] = channel._VIEWS.values()
        # the same room at another FOV, transmitter, beam or filter width: the same view, with its integrals
        for same in (
            replace(rooms[0], fov_deg=12.0), replace(rooms[0], tx_semi_angle_deg=5.0), replace(rooms[0], filter_bandwidth_nm=1.0),
            replace(rooms[0], transmitter=Pose.aimed_at(Point3(0.0, 0.0, 0.0), rooms[0].receiver.position)),
        ):
            reflected_gain_convergence(same, 10)
            assert list(channel._VIEWS.values()) == [view] and 30.0 in view.integrals[(10, view.theta_rule)]
        for room in rooms[1:]:  # another room replaces it
            total_reflected_gain(room, 10)
            assert len(channel._VIEWS) == 1 and channel._receiver_view(room) is not view
        assert list(channel._VIEWS) == [channel._room_key(rooms[2])]
        assert channel._receiver_view(rooms[0]) is not view  # built again

    @pytest.mark.parametrize("fovs", [[], np.zeros((0, 1))])
    def test_empty_fov_array_gives_an_empty_array(self, fovs):
        room = nominal_room()
        values = total_reflected_gain(room, 10, fov_deg=fovs)
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert values.shape == np.shape(fovs) == los_gain_for(room, fov_deg=fovs).shape


# Each RoomScenario field set to another value that keeps the nominal room valid.
OTHER_FIELD_VALUES = dict(
    room_x_m=5.0, room_y_m=4.5, room_z_m=3.5, wall_reflectivity=0.5, floor_reflectivity=0.2,
    lamp=Pose(Point3(1.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)), lamp_semi_angle_deg=30.0,
    transmitter=Pose(Point3(1.0, 1.0, 0.0), Point3(0.0, 0.0, 1.0)), tx_semi_angle_deg=10.0,
    receiver=Pose(Point3(2.0, 2.5, 3.0), Point3(0.0, 0.0, -1.0)), fov_deg=12.0,
    detector_area_m2=2e-4, concentrator_index=1.2, filter_transmission=0.9, filter_bandwidth_nm=1.0,
)


class TestRoomKey:
    """The view memo's key: every RoomScenario field the bounce integral reads, none it does not."""

    def test_the_unread_names_are_room_fields(self):
        assert set(channel._UNREAD_FIELDS) <= {f.name for f in fields(RoomScenario)}

    @pytest.mark.parametrize("field", [f.name for f in fields(RoomScenario)])
    def test_a_room_differing_in_one_field(self, monkeypatch, field):
        monkeypatch.setattr(channel, "_VIEWS", {})
        room = nominal_room()
        other = replace(room, **{field: OTHER_FIELD_VALUES[field]})
        assert getattr(other, field) != getattr(room, field)
        total_reflected_gain(room, 4)
        view = channel._receiver_view(room)
        if field in channel._UNREAD_FIELDS:  # the same view, with the integrals already computed
            assert channel._room_key(other) == channel._room_key(room)
            assert channel._receiver_view(other) is view and view.integrals
        else:
            assert channel._room_key(other) != channel._room_key(room)
            assert channel._receiver_view(other) is not view
            assert list(channel._VIEWS) == [channel._room_key(other)]


class TestFloorConeClosedForm:
    """The quadrature against the exact floor-cone integral on a fine FOV ladder."""

    @pytest.mark.parametrize(
        "order, rtol",
        [(10, 1e-3), (40, 3e-4)],  # the bounds the patch sum was held to
    )
    def test_lamp_center_two_to_thirty_degrees(self, order, rtol):
        for fov in np.arange(2.0, 30.25, 0.5):
            room = build_setup(Scenario.named("lamp-center"), float(fov), 1e-5).room
            numeric = total_reflected_gain(room, order)
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


@pytest.mark.parametrize(
    "position, axis, fov",
    [((1.0, 2.5, 0.0), (1.0, 0.0, 1.0), 70.0), ((0.0, 2.0, 1.5), (1.0, 0.0, -1.0), 70.0), ((0.0, 0.0, 1.5), (1.0, 1.0, 0.0), 60.0)],
    ids=["floor", "wall", "edge"],
)
def test_a_receiver_on_a_plane_against_the_monte_carlo_oracle(position, axis, fov):
    # the cone reaches behind the planes that hold the receiver, whose rays leave the room at
    # t = 0: such a plane is seen edge-on and sends nothing, as the oracle weights a hit by the
    # receiver's height over its plane (4 to 38 % over the oracle when it sent its own radiance)
    room = nominal_room(fov, receiver=Pose(Point3(*position), Point3(*axis).normalized()))
    estimate = estimate_reflected_gain(room, samples=2_000_000, seed=3)
    assert abs(total_reflected_gain(room, 10) - estimate.value) <= max(5e-3 * estimate.value, 5.0 * estimate.std_error)


def test_the_view_box_is_closed():
    # 5.3 m is not 5 cells of 1.06 m (5 * (5.3 / 5) is one ulp more): every edge ends on the planes
    view = _ReceiverView(build_setup(Scenario.named("lamp-center", {"room_x_m": 5.3}), 30.0, 1e-5).room)
    planes = [{near, far} for near, far in zip(view.near_height[:, 0].tolist(), view.far_height[:, 0].tolist())]
    on_planes = lambda ends: len(ends) == 12 and all(c in planes[k] for point in ends.tolist() for k, c in enumerate(point))  # noqa: E731
    assert on_planes(view.edge_start) and on_planes(view.edge_end)


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
RING_PINS = json.loads((Path(__file__).parent / "data" / "ring_pins.json").read_text())["rooms"]


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


def six_plane_exit(view, omega):
    """The exit plane of each ray as the kernel once found it, and its distance: the
    distance to each of the six planes the ray faces, and ``np.argmin`` over them."""
    facing = np.tensordot(view.normal, omega, axes=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(facing < 0.0, view.height.reshape((-1,) + (1,) * (omega.ndim - 1)) / facing, np.inf)
    plane = np.argmin(reach, axis=0)
    return plane, np.take_along_axis(reach, plane[None], axis=0)[0]


def exit_planes(view, omega):
    """``_ReceiverView._exit_planes`` of the rays along ``omega`` (3, n)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return view._exit_planes(omega, np.empty(omega.shape), np.empty(omega.shape[1]))


def axis_ray_exit(view):
    """The six-plane rule's exit plane of the view's axis ray."""
    return int(six_plane_exit(view, view.frame[0][:, None])[0][0])


def six_plane_radiance(view, omega):
    """The radiance at the exit plane of ``six_plane_exit``."""
    plane, t = six_plane_exit(view, omega)
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
    got, want = view._radiance(omega, np.empty(5 * omega[0].size), plane=None), six_plane_radiance(view, omega)
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
        # Components exactly 0 leave a ray parallel to both planes of an axis; the receivers
        # on the walls x = 0 and x = 4 and on the ceiling sit on a plane whose distance
        # along such a ray is 0 / 0, and whose height is +-0 for a ray that faces it: the
        # one division by the component must give the six-plane rule's bits there.
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0), (0, -1, -1), (-1, 0, 1)]
        omega = np.array(rays, dtype=float).T.copy()
        receivers = [
            Pose(Point3(0.0, 1.0, 1.5), Point3(1.0, 0.0, 0.0)),
            Pose(Point3(4.0, 1.0, 1.5), Point3(-1.0, 0.0, 0.0)),  # the far wall
            Pose(Point3(1.0, 3.0, 3.0), Point3(0.0, 0.0, -1.0)),  # the ceiling, off the lamp
        ]
        for room in (nominal_room(), *(nominal_room(receiver=pose) for pose in receivers)):
            assert_same_bits(room, omega)
        far_wall, ceiling = (_ReceiverView(nominal_room(receiver=pose)) for pose in receivers[1:])
        assert far_wall.far_height[0, 0] == 0.0 and ceiling.far_height[2, 0] == 0.0

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

    def test_exit_plane_index_on_ties_zero_components_and_receivers_on_planes(self):
        # ``_exit_planes`` picks the six-plane argmin's plane for every ray, and so the cap's plane
        # on the axis ray.  From (2, 2, 3) in the 4 x 4 x 3 room, rays toward floor corners and
        # floor-wall edges meet their planes at exactly equal distances, and from 1.5 m up toward
        # ceiling-wall edges; receivers on the walls x = 0 and x = 4 and on the ceiling, whose plane
        # a ray facing it meets at 0 / 0 or +-0; rays parallel to one or two axes, -0.0 components
        # among them; and seeded rays with zero components
        ties = [(-2, -2, -3), (2, 2, -3), (0, -2, -3), (2, 0, -3), (-2, -2, -1), (2, -2, -1), (2, 0, 1.5), (0, -2, 1.5), (-2, -2, 1.5)]
        parallel = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0), (0, -1, -1), (-1, 0, 1)]
        signed = [(-0.0, 0.0, -1.0), (0.0, -0.0, 1.0), (-0.0, -0.0, -0.0), (-1.0, -0.0, 0.0)]
        rng = np.random.default_rng(44)
        drawn = rng.normal(size=(200, 3)) * (rng.uniform(size=(200, 3)) > 0.3)
        omega = np.array([*ties, *parallel, *signed, *drawn.tolist()], dtype=float).T
        assert omega.shape == (3, 222) and np.signbit(omega[:, 18:22]).any()
        receivers = [
            Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
            Pose(Point3(2.0, 2.0, 1.5), Point3(0.0, 0.0, -1.0)),
            Pose(Point3(0.0, 1.0, 1.5), Point3(1.0, 0.0, 0.0)),
            Pose(Point3(4.0, 1.0, 1.5), Point3(-1.0, 0.0, 0.0)),
            Pose(Point3(1.0, 3.0, 3.0), Point3(-0.0, 0.0, -1.0)),
            Pose(Point3(0.0, 0.0, 0.0), Point3(1.0, 1.0, 1.0).normalized()),
        ]
        for receiver in receivers:
            view = _ReceiverView(nominal_room(receiver=receiver))
            assert exit_planes(view, omega).tolist() == six_plane_exit(view, omega)[0].tolist()
            assert view.cap_plane == axis_ray_exit(view)
        # the floor-wall and ceiling-wall ties above: the floor wins one, the ceiling loses it
        assert exit_planes(_ReceiverView(nominal_room()), omega[:, :4]).tolist() == [0, 0, 0, 0]
        assert exit_planes(_ReceiverView(nominal_room(receiver=receivers[1])), omega[:, 6:9]).tolist() == [2, 3, 1]


class TestOnePassBitInvariants:
    """A pass's ring values and a room's memo of whole psi pieces change no bit."""

    @staticmethod
    def traced_blocks(monkeypatch, view, psi, theta_rule):
        """The ring values of one call, and the rays of each block it traced with the work array it used."""
        radiance, blocks = _ReceiverView._radiance, []

        def recording(self, omega, work, plane):
            blocks.append((omega[0].size, work.base))
            return radiance(self, omega, work, plane)

        with monkeypatch.context() as patch:
            patch.setattr(_ReceiverView, "_radiance", recording)
            return view.ring_integrals(psi, theta_rule, np.cos(psi), np.sin(psi)), blocks

    @pytest.mark.parametrize("kind", list(RING_PINS))
    @pytest.mark.parametrize("block", [1, 7, channel._RAY_BLOCK, 10**9])
    def test_ring_values_do_not_depend_on_the_block(self, monkeypatch, block, kind):
        # the psi nodes of a whole order-10 pass, which a pass traces in one call, in blocks
        # of whole rings that work in one array; each ring's value equals the one computed
        # for that ring alone, in an array of its own, and each block takes the rings that
        # follow it as long as they fit.  A ring that meets no room edge reads its trig from
        # the equal arcs' table, the others compute it: every room but steered-corner has both
        view = _ReceiverView(ring_pin_room(kind))
        positions, weights = channel._mapped_rule(10)
        lo, hi = view.bounds[:-1], view.bounds[1:]
        psi = (lo[:, None] + (hi - lo)[:, None] * positions).ravel()
        count = view._sub_arcs(psi[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None], view.theta_rule[0])[2]
        assert (count != view.theta_rule[0]).any() and (count == view.theta_rule[0]).any() == (kind != "steered-corner")
        alone = [self.traced_blocks(monkeypatch, view, psi[k : k + 1], view.theta_rule) for k in range(len(psi))]
        ring_rays = [blocks[0][0] for _, blocks in alone]
        monkeypatch.setattr(channel, "_RAY_BLOCK", block)
        calls, ring_integrals = [], _ReceiverView.ring_integrals

        def recording(self, psi, theta_rule, cos_psi, sin_psi):
            calls.append(psi)
            return ring_integrals(self, psi, theta_rule, cos_psi, sin_psi)

        with monkeypatch.context() as patch:
            patch.setattr(_ReceiverView, "ring_integrals", recording)
            view.piece_sums(lo, hi, positions, weights, view.theta_rule)
        assert [p.view(np.uint64).tolist() for p in calls] == [psi.view(np.uint64).tolist()]
        values, blocks = self.traced_blocks(monkeypatch, view, psi, view.theta_rule)
        assert values.view(np.uint64).tolist() == np.concatenate([v for v, _ in alone]).view(np.uint64).tolist()
        ring_ends, block_ends = np.cumsum(ring_rays).tolist(), np.cumsum([rays for rays, _ in blocks]).tolist()
        assert set(block_ends) <= set(ring_ends) and block_ends[-1] == ring_ends[-1]  # whole rings, every one
        last_rings = [ring_ends.index(end) for end in block_ends]
        for (rays, _), first_ring, last_ring in zip(blocks, [0] + [k + 1 for k in last_rings], last_rings):
            assert rays <= block or first_ring == last_ring
            assert last_ring + 1 == len(ring_rays) or rays + ring_rays[last_ring + 1] > block
        if block < min(ring_rays):
            assert len(blocks) == len(psi)
        else:
            assert (len(blocks) == 1) == (block >= sum(ring_rays)) and len(blocks) < len(psi)

    @pytest.mark.parametrize("order", [10, 20])
    @pytest.mark.parametrize("block", [1, 7, channel._PIECE_BLOCK, 10**9])
    def test_fov_array_values_do_not_depend_on_the_piece_block(self, monkeypatch, block, order):
        # a FOV-array call lays its psi pieces out at most _PIECE_BLOCK nodes (one piece at
        # least) at a time, the only bound on a pass's arrays when the FOV axis is long: each
        # FOV's value keeps every bit however the pieces are split
        room = build_setup(Scenario.named("lamp-corner", {"lamp_x_m": 1.3}), 30.0, 1e-5).room
        fovs = np.linspace(2.0, 90.0, 45)
        monkeypatch.setattr(channel, "_VIEWS", {})
        expected = total_reflected_gain(room, order, fov_deg=fovs)
        monkeypatch.setattr(channel, "_VIEWS", {})
        monkeypatch.setattr(channel, "_PIECE_BLOCK", block)
        assert total_reflected_gain(room, order, fov_deg=fovs).view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("semi_angle, theta_nodes_factor", [(70.0, 1), (70.0, 2), (30.0, 1), (30.0, 2)])
    def test_work_array_holds_one_ray_block(self, monkeypatch, semi_angle, theta_nodes_factor):
        # under the 4 x 10 rule (wide lamp), the 12 x 12 one (narrow lamp) and each with the
        # theta nodes doubled, a pass's one work array holds 8 floats a ray of one block:
        # never more than 8 x max(_RAY_BLOCK, the largest ring's rays)
        room = replace(pinned_room("steered-corner", 30.0), lamp_semi_angle_deg=semi_angle)
        view = _ReceiverView(room)
        arcs, nodes = view.theta_rule
        assert view.theta_rule == ((4, 10) if semi_angle > 60.0 else (12, 12))
        theta_rule = (arcs, theta_nodes_factor * nodes)
        positions = channel._mapped_rule(20)[0]
        lo, hi = view.bounds[:-1], view.bounds[1:]
        psi = (lo[:, None] + (hi - lo)[:, None] * positions).ravel()
        largest = int(view._sub_arcs(psi[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None], arcs)[2].max()) * theta_rule[1]
        _, blocks = self.traced_blocks(monkeypatch, view, psi, theta_rule)
        assert len(blocks) > 1 and all(work is blocks[0][1] for _, work in blocks)  # one array for the call
        assert blocks[0][1].size == 8 * max(rays for rays, _ in blocks) <= 8 * max(channel._RAY_BLOCK, largest)

    def test_rings_that_meet_no_edge_take_the_equal_arc_route(self, monkeypatch):
        # a ceiling-centre receiver's rings below every edge's psi: one block, no crossing
        # reduced; beside a ring that meets an edge, in one block, each is traced by the
        # general route (theta and its trig computed) to the same bits
        view = _ReceiverView(nominal_room())
        psi = np.linspace(0.01, 0.99, 40) * view.edge_psi[0].min()
        beside = np.append(psi, 0.5 * math.pi)  # a horizontal ring meets the wall edges
        count = view._sub_arcs(beside[:, None], np.cos(beside)[:, None], np.sin(beside)[:, None], view.theta_rule[0])[2]
        assert count[-1] > view.theta_rule[0] and (count[:-1] == view.theta_rule[0]).all()
        reduced, reduce_turns = [], channel._reduce_turns
        monkeypatch.setattr(channel, "_reduce_turns", lambda x: reduced.append(x.size) or reduce_turns(x))
        alone, blocks = self.traced_blocks(monkeypatch, view, psi, view.theta_rule)
        assert reduced == [] and len(blocks) == 1
        mixed, blocks = self.traced_blocks(monkeypatch, view, beside, view.theta_rule)
        assert len(reduced) == 1 and len(blocks) == 1
        assert mixed[:-1].view(np.uint64).tolist() == alone.view(np.uint64).tolist()

    @pytest.mark.parametrize("semi_angle", [70.0, 30.0])
    @pytest.mark.parametrize("theta_nodes_factor", [1, 2])
    def test_knot_table_holds_the_general_routes_trig(self, monkeypatch, semi_angle, theta_nodes_factor):
        # a receiver facing straight down takes omega's x and y as -sin(theta) sin(psi) and
        # -cos(theta) sin(psi), and sin(pi / 2) is 1: the horizontal ring's rays carry its
        # trig unchanged.  With every edge moved to psi 0.3-0.4, the ring at 0.35 meets them
        # all and the horizontal one none, so one block traces both by the general route
        view = _ReceiverView(nominal_room(lamp_semi_angle_deg=semi_angle))
        assert view.omega_terms[:2] == [[(-1.0, 2)], [(-1.0, 1)]] and np.sin(0.5 * math.pi) == 1.0
        arcs, nodes = view.theta_rule
        assert (view.m1 <= channel._THETA_RULES[0][0]) == (semi_angle > 60.0)
        nodes *= theta_nodes_factor
        view.edge_psi = (np.full(len(view.edge_psi[0]), 0.3), np.full(len(view.edge_psi[1]), 0.4))
        psi = np.array([0.35, 0.5 * math.pi])
        count = view._sub_arcs(psi[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None], arcs)[2]
        assert count[0] > arcs and count[1] == arcs
        radiance, rays = _ReceiverView._radiance, []

        def recording(self, omega, work, plane):
            rays.append(omega.copy())
            return radiance(self, omega, work, plane)

        monkeypatch.setattr(_ReceiverView, "_radiance", recording)
        view.ring_integrals(psi, (arcs, nodes), np.cos(psi), np.sin(psi))
        [omega] = rays
        assert omega.shape == (3, count.sum(), nodes)  # laid out by (sub-arc, node): the general route
        trig = -omega[1::-1, count[0] :]  # cos(theta), sin(theta) at the horizontal ring's nodes
        assert trig.view(np.uint64).tolist() == channel._knot_trig(arcs, nodes)[:2].view(np.uint64).tolist()

    def test_a_default_lamp_map_sweep_traces_most_rays_in_equal_arc_blocks(self, monkeypatch):
        # the order-10 pass of the default CLI map's sweep: an equal-arc block lays its rays
        # out by (ring, arc, node), any other by (sub-arc, node)
        from indoorqkd.cli import RunConfig, _axis
        from indoorqkd.experiments import sweep

        config = RunConfig()
        fovs = _axis(config.fov_min_deg, config.fov_max_deg, config.fov_steps, config.fov_scale)
        levels = _axis(config.source_min, config.source_max, config.source_steps, config.source_scale)
        radiance, blocks = _ReceiverView._radiance, []

        def recording(self, omega, work, plane):
            blocks.append(omega.shape)
            return radiance(self, omega, work, plane)

        monkeypatch.setattr(_ReceiverView, "_radiance", recording)
        channel._VIEWS.clear()
        sweep(Scenario.named(config.scenario), fovs, levels, order=config.resolution_patches_per_meter)
        rays = [math.prod(shape[1:]) for shape in blocks]
        equal = sum(n for n, shape in zip(rays, blocks) if len(shape) == 4)
        assert blocks and equal >= 0.9 * sum(rays)

    def test_a_pass_peaks_no_higher_than_with_every_trig_computed(self):
        # one order-40 pass to 60 deg in the offset-lamp room, its rules already built: the
        # knot table is the only array added, and per ray everything stays in the work array.
        # 768,086 B is the peak when every sub-arc's trig was computed (numpy 2.4, x86-64).
        room = pinned_room("offset-lamp", 60.0)
        channel._VIEWS.clear()
        total_reflected_gain(room, 40)
        [view] = channel._VIEWS.values()
        view.integrals.clear()
        view.whole_pieces.clear()
        tracemalloc.start()
        try:
            total_reflected_gain(room, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 768_086

    @pytest.mark.parametrize("kind", ["nominal", "offset-lamp", "steered-corner"])
    def test_warm_memo_equals_cold_one_fov_calls(self, kind):
        room = pinned_room(kind, 30.0)
        channel._VIEWS.clear()
        sweep = np.linspace(2.0, 28.0, 14)
        warm = list(total_reflected_gain(room, 10, fov_deg=sweep))
        [view] = channel._VIEWS.values()
        key = (10, view.theta_rule)
        swept = len(view.whole_pieces[key])
        # probes below the first cut and above it, inside the sweep and beyond it
        probes = [3.3, 14.2, 19.5, 27.1, 33.7, 61.0]
        warm += [total_reflected_gain(room, 10, fov_deg=fov) for fov in probes]
        assert len(view.whole_pieces[key]) > swept  # 33.7 and 61 add whole pieces
        cuts = [15.0, 30.0, 90.0]  # panel knots: no partial piece
        warm += [total_reflected_gain(room, 10, fov_deg=fov) for fov in cuts]
        assert len(view.whole_pieces[key]) == len(view.bounds) - 1
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
        # and in place on a strided view, the crossing columns of a bounds matrix
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


class TestRingPins:
    """``ring_integrals`` at fixed psi nodes, bit for bit as recorded before its kernel was reworked."""

    @pytest.mark.parametrize("kind", list(RING_PINS))
    def test_ring_values_unchanged(self, kind):
        pin = RING_PINS[kind]
        view = _ReceiverView(ring_pin_room(kind))
        psi = np.array(pin["psi_bits"], dtype=np.uint64).view(np.float64)
        assert psi.view(np.uint64).tolist() == ring_pin_nodes(view).view(np.uint64).tolist()
        assert view.ring_integrals(psi, view.theta_rule, np.cos(psi), np.sin(psi)).view(np.uint64).tolist() == pin["value_bits"]

    def test_pinned_rooms_cover_the_kernel_cases(self):
        views = {kind: _ReceiverView(ring_pin_room(kind)) for kind in RING_PINS}
        assert not views["lamp-at-receiver"].lamp.any()
        assert views["lamp-on-wall"].lamp_gain[1] == 0.0  # the lamp lies in the wall x = 0
        # a receiver facing straight down has 6 zero frame coefficients; a tilted one only
        # e1's x, for e1 is the axis times the x helper
        assert np.count_nonzero(views["nominal"].frame == 0.0) == 6
        for kind in "tilted-a", "tilted-b":
            assert np.argwhere(views[kind].frame == 0.0).tolist() == [[1, 0]]


def cap_rooms(kind, count=34):
    """Seeded rooms of the benchmark's lamp draws (sides 3.5-5.5 x 3.5-5.5 x 2.5-3.5 m, a
    ceiling lamp up to 0.75 m off centre) with lamp semi-angles of 5-80 degrees: the receiver
    at the ceiling centre facing down ("ceiling"), tilted there ("tilted"), or lowered to
    1-3.2 m and tilted ("lowered")."""
    rng = np.random.default_rng([43, ("ceiling", "tilted", "lowered").index(kind)])
    rooms = []
    for _ in range(count):
        x, y, z = rng.uniform(3.5, 5.5), rng.uniform(3.5, 5.5), rng.uniform(2.5, 3.5)
        down = Point3(0.0, 0.0, -1.0)
        lamp = Pose(Point3(x / 2.0 + rng.uniform(-0.75, 0.75), y / 2.0 + rng.uniform(-0.75, 0.75), z), down)
        receiver = Pose(Point3(x / 2.0, y / 2.0, z), down)
        if kind == "tilted":
            receiver = Pose(receiver.position, Point3(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), -1.0).normalized())
        elif kind == "lowered":
            position = Point3(rng.uniform(0.5, x - 0.5), rng.uniform(0.5, y - 0.5), rng.uniform(1.0, z - 0.3))
            receiver = Pose(position, Point3(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), -1.0).normalized())
        rooms.append(nominal_room(
            room_x_m=x, room_y_m=y, room_z_m=z, wall_reflectivity=rng.uniform(0.5, 0.85), floor_reflectivity=rng.uniform(0.05, 0.3),
            lamp=lamp, lamp_semi_angle_deg=rng.uniform(5.0, 80.0), receiver=receiver,
            transmitter=Pose(Point3(x / 2.0, y / 2.0, 0.0), Point3(0.0, 0.0, 1.0)),
        ))
    return rooms


class TestFloorCap:
    """A block of rings in the floor cap, 1e-6 rad below every edge's psi, traces every ray to the
    axis ray's plane by one division: the bits of the per-ray rule, which picks that plane too."""

    KINDS = [*RING_PINS, "ceiling", "tilted", "lowered"]

    @staticmethod
    def views(kind):
        return [_ReceiverView(room) for room in ([ring_pin_room(kind)] if kind in RING_PINS else cap_rooms(kind))]

    @staticmethod
    def passes(view, order):
        """The psi nodes of the passes over 23 FOVs from 1 to 89 degrees on a fresh view, laid out
        as ``_reflected_gain`` lays them for one FOV a call, in turn: the whole pieces not yet summed,
        then the FOV's partial one."""
        ends = np.radians(np.linspace(1.0, 89.0, 23))
        first = np.searchsorted(view.bounds, ends, side="right") - 1

        def nodes(have, k):
            partial, added = view.bounds[first[k]] < ends[k], max(0, int(first[k].max()) - have)
            lo = np.concatenate([view.bounds[have : have + added], view.bounds[first[k][partial]]])
            hi = np.concatenate([view.bounds[have + 1 : have + added + 1], ends[k][partial]])
            return (lo[:, None] + (hi - lo)[:, None] * channel._mapped_rule(order)[0]).ravel()

        return [nodes(int(first[:k].max(initial=0)), slice(k, k + 1)) for k in range(len(ends))]

    @staticmethod
    def recorded(monkeypatch, per_ray=False):
        """Each ``_radiance`` call's plane argument, its ray count and (``per_ray``) the per-ray rule's plane of each ray."""
        radiance, calls = _ReceiverView._radiance, []

        def recording(self, omega, work, plane):
            rays = omega.reshape(3, -1)
            calls.append((plane, rays.shape[1], exit_planes(self, rays) if per_ray else None))
            return radiance(self, omega, work, plane)

        monkeypatch.setattr(_ReceiverView, "_radiance", recording)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_cap_changes_no_bit(self, monkeypatch, kind):
        # every ring of the passes at orders 10 and 20 that take the cap's route, with the
        # view's cap and with it switched off; the seeded rooms send 7 % or more of their rays
        # (of FOVs to 89 degrees) by that route
        calls, capped, rays = self.recorded(monkeypatch), 0, 0
        for view in self.views(kind):
            for psi in (psi for order in (10, 20) for psi in self.passes(view, order)):
                calls.clear()
                on = view.ring_integrals(psi, view.theta_rule, np.cos(psi), np.sin(psi))
                capped, rays = capped + sum(n for plane, n, _ in calls if plane is not None), rays + sum(n for _, n, _ in calls)
                if all(plane is None for plane, _, _ in calls):
                    continue
                cap_psi, view.cap_psi = view.cap_psi, -math.inf
                calls.clear()
                off = view.ring_integrals(psi, view.theta_rule, np.cos(psi), np.sin(psi))
                view.cap_psi = cap_psi
                assert all(plane is None for plane, _, _ in calls)
                assert on.view(np.uint64).tolist() == off.view(np.uint64).tolist()
        assert kind in RING_PINS or capped > 0.07 * rays

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_per_ray_rule_picks_the_cap_plane_on_every_cap_ring(self, monkeypatch, kind):
        calls, rings = self.recorded(monkeypatch, per_ray=True), 0
        for view in self.views(kind):
            for order in (10, 20):
                psi = np.concatenate(self.passes(view, order))
                cap = psi[psi < view.cap_psi]
                calls.clear()
                view.ring_integrals(cap, view.theta_rule, np.cos(cap), np.sin(cap))
                rings += len(cap)
                assert sum(n for _, n, _ in calls) == len(cap) * math.prod(view.theta_rule)
                assert all(plane == view.cap_plane and (rule == plane).all() for plane, _, rule in calls)
        assert kind in RING_PINS or rings > 0

    def test_a_ring_inside_the_margin_takes_the_per_ray_route(self, monkeypatch):
        # 5e-7 rad below the nearest edge's psi a ring meets no edge, yet lies inside the
        # 1e-6 margin; 2e-6 below it, it lies in the cap
        view = _ReceiverView(nominal_room())
        edge = view.edge_psi[0].min()
        psi = np.array([edge - 5e-7, edge - 2e-6])
        assert (view._sub_arcs(psi[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None], view.theta_rule[0])[2] == view.theta_rule[0]).all()
        calls, routes = self.recorded(monkeypatch), []
        for ring in psi[:, None]:
            calls.clear()
            view.ring_integrals(ring, view.theta_rule, np.cos(ring), np.sin(ring))
            routes.append(calls[0][0])
        assert routes == [None, 0] and view.cap_plane == 0  # the floor

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_cap_plane_is_the_axis_rays(self, kind):
        for view in self.views(kind):
            assert view.cap_plane == axis_ray_exit(view)

    @pytest.mark.parametrize("axis, plane", [((-1.0, 0.0, -1.0), 0), ((-1.0, 0.0, 1.0), 1), ((-1.0, -1.0, 0.0), 1)])
    def test_a_tie_on_the_axis_ray(self, axis, plane):
        # 1.5 m from the wall x = 0, the floor, the ceiling of the 3 m room and the wall y = 0:
        # an axis at 45 degrees between two of them meets both at one distance, bit for bit
        view = _ReceiverView(nominal_room(receiver=Pose(Point3(1.5, 1.5, 1.5), Point3(*axis).normalized())))
        t = [abs(h / c) for h, c in zip(view.near_height[:, 0].tolist(), view.frame[0].tolist()) if c != 0.0]
        assert t[0] == t[1]
        assert view.cap_plane == axis_ray_exit(view) == plane

    def test_no_cap_where_an_edge_psi_is_nan(self):
        # a receiver in a ceiling corner lies on three edges, whose psi is nan
        view = _ReceiverView(nominal_room(receiver=Pose(Point3(0.0, 0.0, 3.0), Point3(1.0, 1.0, -1.0).normalized())))
        assert math.isnan(view.cap_psi)


class TestAxisFrame:
    """The receiver frame and omega's terms come from a cache by the axis's bits, read-only."""

    def test_rooms_with_one_receiver_axis_share_it(self):
        a = _ReceiverView(nominal_room())
        b = _ReceiverView(nominal_room(room_x_m=5.5, lamp_semi_angle_deg=20.0, receiver=Pose(Point3(1.0, 3.0, 2.0), Point3(0.0, 0.0, -1.0))))
        assert a.frame is b.frame and a.omega_terms is b.omega_terms
        with pytest.raises(ValueError):
            a.frame[0, 0] = 1.0
        assert not a.frame.flags.writeable and a.frame[0].tolist() == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("kind", list(RING_PINS))
    def test_equal_to_the_frame_of_the_axis(self, kind):
        room = ring_pin_room(kind)
        axis = np.array(room.receiver.axis.as_tuple())
        want = np.array([axis, *geometry._frame(axis)])
        assert _ReceiverView(room).frame.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_a_negative_zero_component_gets_its_own_frame(self):
        # -0.0 equals 0.0, yet its frame's zeros have other signs, which a crossing's arctan2 reads
        plain = _ReceiverView(nominal_room())
        signed = _ReceiverView(nominal_room(receiver=Pose(Point3(2.0, 2.0, 3.0), Point3(-0.0, 0.0, -1.0))))
        want = np.array([[-0.0, 0.0, -1.0], *geometry._frame(np.array([-0.0, 0.0, -1.0]))])
        assert signed.frame is not plain.frame
        assert signed.frame.view(np.uint64).tolist() == want.view(np.uint64).tolist() != plain.frame.view(np.uint64).tolist()

    @pytest.mark.parametrize("components", [(0, 0, -1), tuple(np.float32([0.0, 0.0, -1.0]))], ids=["int", "float32"])
    def test_an_int_or_float32_axis_gives_the_float_axis_view(self, components):
        # the cache reads the axis's float64 bits, whatever its components' type, so the frame holds no nan
        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64).tolist()

        views, gains = [], []
        for axis in [Point3(0.0, 0.0, -1.0), Point3(*components)]:
            room = nominal_room(receiver=Pose(Point3(1.0, 2.5, 2.0), axis))
            views.append(_ReceiverView(room))
            channel._VIEWS.clear()  # the two rooms compare equal: each gain from its own view
            gains.append(bits(total_reflected_gain(room, 10, fov_deg=[20.0, 45.0, 80.0])))
        want, got = views
        assert got.frame is want.frame and (got.cap_psi, got.cap_plane) == (want.cap_psi, want.cap_plane)
        for name in ("edge_normal", "edge_start", "edge_end", "edge_psi", "bounds", "lamp_gain", "height"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        assert gains[1] == gains[0]


class TestSubArcCuts:
    """A ring is cut at the crossings of the edges whose psi interval holds it, which is
    everywhere its exit plane can switch, and nowhere else but its equal arcs' knots."""

    @staticmethod
    def sub_arcs(view, psi):
        start, span, count = view._sub_arcs(psi[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None], view.theta_rule[0])
        first = np.concatenate([[0], np.cumsum(count)])
        return [np.sort(np.concatenate([start[a:b, 0], start[a:b, 0] + span[a:b, 0]])) for a, b in zip(first, first[1:])]

    @pytest.mark.parametrize("kind", list(RING_PINS))
    def test_every_exit_plane_switch_lies_on_a_sub_arc_bound(self, kind):
        # the exit plane by the six-plane argmin at 20,000 directions along each pinned ring
        # (rings just inside and just past every tangency among them): between two directions
        # that leave through different planes lies a sub-arc bound
        view = _ReceiverView(ring_pin_room(kind))
        psi = ring_pin_nodes(view)
        theta = np.linspace(0.0, 2.0 * math.pi, 20_001)
        axis, e1, e2 = (v[:, None] for v in view.frame)
        switches = 0
        for ring, bounds in zip(psi.tolist(), self.sub_arcs(view, psi)):
            omega = axis * math.cos(ring) + e1 * (math.sin(ring) * np.cos(theta)) + e2 * (math.sin(ring) * np.sin(theta))
            facing = view.normal @ omega
            with np.errstate(divide="ignore", invalid="ignore"):
                plane = np.argmin(np.where(facing < 0.0, view.height[:, None] / facing, np.inf), axis=0)
            switch = np.flatnonzero(plane[1:] != plane[:-1])
            # the first bound at or past each switch's first direction (2 pi at the latest)
            # comes before its second one
            after = np.searchsorted(bounds, theta[switch] - 1e-9)
            assert (bounds[after] <= theta[switch + 1] + 1e-9).all(), (ring, theta[switch])
            switches += len(switch)
        assert switches > 0

    def test_a_ring_below_every_edge_keeps_its_equal_arcs(self):
        # a ceiling-centre receiver's rings that see only floor meet no edge: the floor
        # edges' planes are past them and the vertical edges' planes, which every ring
        # crosses, hold the edges only past the floor corners
        view = _ReceiverView(nominal_room())
        lo, hi = view.edge_psi
        psi = np.linspace(0.01, 0.99, 7) * lo.min()
        arcs = view.theta_rule[0]
        assert lo.min() == pytest.approx(math.atan2(2.0, 3.0), rel=1e-15)  # the floor edges' nearest points
        for bounds in self.sub_arcs(view, psi):  # each inner knot ends one arc and starts the next
            assert bounds.tolist() == np.repeat(channel._equal_arcs(arcs)[0], [1, *[2] * (arcs - 1), 1]).tolist()
        view.edge_psi = (np.full(len(lo), -math.inf), np.full(len(hi), math.inf))  # every edge met
        assert {len(bounds) // 2 for bounds in self.sub_arcs(view, psi)} == {2 * arcs}

    def test_an_edge_without_a_psi_interval_is_met_by_every_ring(self):
        # a nan interval compares false both ways: it cuts as an interval of every psi
        view = _ReceiverView(pinned_room("steered-corner", 30.0))
        psi = ring_pin_nodes(view)
        lo, hi = view.edge_psi
        assert not np.isnan(lo).any() and (lo <= hi).all()
        masked = self.sub_arcs(view, psi)
        view.edge_psi = (np.full(len(lo), math.nan), np.full(len(hi), math.nan))
        unknown = self.sub_arcs(view, psi)
        view.edge_psi = (np.full(len(lo), -math.inf), np.full(len(hi), math.inf))
        every = self.sub_arcs(view, psi)
        assert all(np.array_equal(a, b) for a, b in zip(unknown, every))
        assert sum(map(len, masked)) < sum(map(len, every))

    @pytest.mark.parametrize(
        "overrides, unknown",
        [
            # a receiver in the ceiling corner (0, 0, 3) is at one end of three edges
            ({"receiver": Pose(Point3(0.0, 0.0, 3.0), Point3(0.0, 0.0, -1.0))}, 3),
            # in units of the 3 m height the ends at x = 1e300 lie past 1e154, where a distance
            # overflows: the four edges along x reach them, and the four at that end lie there
            ({"room_x_m": 1e300, "lamp": Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0))}, 8),
        ],
    )
    def test_an_edge_with_a_point_at_zero_or_overflowing_distance_has_no_interval(self, overrides, unknown):
        lo, hi = _ReceiverView(nominal_room(**overrides)).edge_psi
        assert np.isnan(lo).sum() == np.isnan(hi).sum() == unknown

    def test_intervals_reach_a_few_ulps_past_the_edge_points_psi(self):
        # so that a ring at an edge's tangency counts as meeting it: each interval end near
        # an interior cut (an edge's psi extreme) lies past it, by at most 4 of its ulps
        view = _ReceiverView(pinned_room("offset-lamp", 30.0))
        ends = np.concatenate(view.edge_psi)
        near = 0
        for cut in view.bounds[1:-1].tolist():
            gap = np.abs(ends - cut)[np.isclose(ends, cut, rtol=1e-14, atol=0.0)]
            assert (gap > 0.0).all() and (gap <= 4.0 * np.spacing(cut)).all(), cut
            near += len(gap)
        assert near > 0


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


def theta_rule_rooms(semi_angle):
    """The room set that sizes ``channel._THETA_RULES`` (see its comment): for ``None``
    the five scenarios (their lamps sit at the receiver, so they share one view); for
    a lamp semi-angle, lamps of it 0.5 and 1 m off the receiver at the ceiling centre
    (0.3, 0.7 and 1 m for lamps under 60 degrees) in three directions and three rooms,
    and three tilted axes in the nominal room with the lamp 0.7 m off."""
    if semi_angle is None:
        return {name: build_setup(Scenario.named(name), 30.0, 1e-5).room for name in ("ambient-only-center", "ambient-only-corner", *LAMP_SCENARIOS)}
    down = Point3(0.0, 0.0, -1.0)
    rooms = {}
    for x, y, z in (4.0, 4.0, 3.0), (5.5, 3.5, 2.5), (3.5, 5.5, 3.5):
        center = Pose(Point3(x / 2.0, y / 2.0, z), down)
        for off in (0.5, 1.0) if semi_angle >= 60.0 else (0.3, 0.7, 1.0):
            for turn in 0.0, 45.0, 200.0:
                at = Point3(x / 2.0 + off * math.cos(math.radians(turn)), y / 2.0 + off * math.sin(math.radians(turn)), z)
                rooms[f"{x} x {y} x {z} m, lamp {off} m off at {turn} deg"] = nominal_room(
                    room_x_m=x, room_y_m=y, room_z_m=z, lamp=Pose(at, down), receiver=center, lamp_semi_angle_deg=semi_angle
                )
    tilted = Point3(0.3, -0.2, -0.9).normalized()
    rooms["receiver aimed at the floor corner"] = nominal_room(
        lamp=Pose(Point3(2.7, 2.0, 3.0), down), receiver=Pose.aimed_at(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, 0.0)), lamp_semi_angle_deg=semi_angle
    )
    rooms["low tilted receiver"] = nominal_room(
        lamp=Pose(Point3(1.9, 2.9, 3.0), down), receiver=Pose(Point3(1.2, 2.9, 2.6), tilted), lamp_semi_angle_deg=semi_angle
    )
    rooms["tilted lamp"] = nominal_room(lamp=Pose(Point3(2.7, 2.0, 3.0), tilted), lamp_semi_angle_deg=semi_angle)
    return rooms


# Largest relative change the theta check may show under a view's theta rule: 1e-5 of
# CONVERGENCE_RTOL, the psi order's own change at order 10 for 10-60 degree lamps.
THETA_RULE_RTOL = 1e-5 * channel.CONVERGENCE_RTOL


def theta_change(room, fovs):
    """The convergence report's theta change at each FOV, at order 10."""
    value = total_reflected_gain(room, 10, fov_deg=fovs)
    refined = channel._reflected_gain(room, 10, fovs, theta_nodes_factor=2)
    return np.abs(refined - value) / np.abs(refined)


class TestThetaRule:
    @pytest.mark.parametrize("semi_angle", [None, 70.0, 60.0, 30.0, 10.0, 7.0, 5.0, 2.0])
    def test_theta_change_within_the_bound_over_the_room_set(self, semi_angle):
        # FOVs 2-30 degrees; lamps of 5 degrees or less miss the bound even at the
        # largest rule, so they keep it, and the report shows the change
        changes = {}
        for name, room in theta_rule_rooms(semi_angle).items():
            channel._VIEWS.clear()
            changes[name] = theta_change(room, np.arange(2.0, 30.5, 2.0)).max()
            rule = channel._receiver_view(room).theta_rule
            assert rule == (4, 10) if semi_angle is None or semi_angle >= 60.0 else rule == (12, 12)
        if semi_angle is not None and semi_angle <= 5.0:
            assert max(changes.values()) > THETA_RULE_RTOL
        else:
            assert max(changes.values()) <= THETA_RULE_RTOL, max(changes, key=changes.get)

    def test_rules_stay_within_the_largest_and_below_the_blas_threads(self):
        tops = [top for top, _, _ in channel._THETA_RULES]
        assert tops == sorted(tops) and tops[-1] == math.inf
        for _, arcs, nodes in channel._THETA_RULES:
            assert arcs <= 12 and nodes <= 12 and 2 * nodes < 28  # the check doubles the nodes

    def test_a_coarse_rule_is_reported_in_theta(self, monkeypatch):
        # a 10 degree lamp 0.7 m off under 2 arcs x 2 nodes: the psi doubling barely moves
        # the integral, the theta check does
        monkeypatch.setattr(channel, "_THETA_RULES", ((math.inf, 2, 2),))
        monkeypatch.setattr(channel, "_VIEWS", {})  # views of the coarse rule leave with the test
        room = nominal_room(lamp=Pose(Point3(2.7, 2.0, 3.0), Point3(0.0, 0.0, -1.0)), lamp_semi_angle_deg=10.0)
        report = reflected_gain_convergence(room, 10)
        assert report.theta_rule == (2, 2)
        assert report.theta_rel_change > channel.CONVERGENCE_RTOL >= report.rel_change
        assert report.converged is False

    def test_the_check_never_reuses_a_base_value(self):
        # the theta check's memo key differs from every base key of the view
        room = nominal_room()
        channel._VIEWS.clear()
        report = reflected_gain_convergence(room, 10)
        [view] = channel._VIEWS.values()
        arcs, nodes = view.theta_rule
        assert set(view.integrals) == {(10, (arcs, nodes)), (20, (arcs, nodes)), (10, (arcs, 2 * nodes))}
        assert report.theta_refined_value == view.integrals[(10, (arcs, 2 * nodes))][30.0]
        assert report.value == view.integrals[(10, (arcs, nodes))][30.0]


class TestConvergenceReporting:
    def test_default_resolution_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reflected_gain_convergence(nominal_room(fov_deg=30.0), 10)
        assert report.converged
        assert report.rel_change < 5e-3

    def test_low_order_reports_not_converged_without_a_warning(self):
        # a one-point rule per piece is far from the two-point one; the report says so
        room = nominal_room(fov_deg=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reflected_gain_convergence(room, 1)
        assert report.converged is False
        assert report.rel_change > channel.CONVERGENCE_RTOL
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
