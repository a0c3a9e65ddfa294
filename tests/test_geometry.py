"""Room layout, poses, link angles, and surface tessellation."""

import math

import pytest
from hypothesis import given, strategies as st

from indoorqkd.geometry import (
    DegenerateGeometryError,
    Point3,
    Pose,
    RoomScenario,
    link_geometry,
    wall_and_floor_grids,
)


def nominal_room(**overrides):
    defaults = dict(
        room_x_m=4.0, room_y_m=4.0, room_z_m=3.0,
        wall_reflectivity=0.7, floor_reflectivity=0.1,
        lamp=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        lamp_semi_angle_deg=70.0,
        transmitter=Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=30.0,
        receiver=Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0)),
        fov_deg=30.0, detector_area_m2=1e-4, concentrator_index=1.5,
        filter_transmission=1.0, filter_bandwidth_nm=0.0258,
    )
    defaults.update(overrides)
    return RoomScenario(**defaults)


class TestPoint3:
    def test_arithmetic(self):
        a = Point3(1.0, 2.0, 3.0)
        b = Point3(0.0, 2.0, 1.0)
        assert a.minus(b).as_tuple() == (1.0, 0.0, 2.0)
        assert a.dot(b) == 7.0
        assert Point3(3.0, 4.0, 0.0).norm() == 5.0

    def test_normalized_unit_length(self):
        n = Point3(1.0, 1.0, 1.0).normalized()
        assert n.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("size", [1e155, 1e160, 1e300, 1.7e308])
    def test_a_vector_whose_squares_overflow_normalizes(self, size):
        n = Point3(-0.5 * size, 2.0, 0.25 * size).normalized()
        assert n.as_tuple() == pytest.approx((-2.0 / math.sqrt(5.0), 0.0, 1.0 / math.sqrt(5.0)), abs=1e-15)
        assert n.norm() == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_cannot_normalize(self):
        with pytest.raises(DegenerateGeometryError):
            Point3(0.0, 0.0, 0.0).normalized()


class TestPose:
    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            Pose(Point3(0.0, 0.0, 0.0), Point3(0.0, 0.0, 2.0))

    def test_nan_axis_rejected(self):
        # a nan norm passes a "norm - 1 > tol" rule, and every gain computed
        # through such an axis silently reads 0
        with pytest.raises(ValueError, match="unit vector"):
            Pose(Point3(0.0, 0.0, 0.0), Point3(math.nan, 0.0, 0.0))

    def test_aimed_at_points_toward_target(self):
        pose = Pose.aimed_at(Point3(0.0, 0.0, 0.0), Point3(2.0, 2.0, 3.0))
        expected = Point3(2.0, 2.0, 3.0).normalized()
        assert pose.axis.minus(expected).norm() < 1e-12

    def test_aimed_at_rejects_coincident_target(self):
        with pytest.raises(DegenerateGeometryError):
            Pose.aimed_at(Point3(1.0, 1.0, 1.0), Point3(1.0, 1.0, 1.0))


class TestLinkGeometry:
    def test_straight_up_link(self):
        tx = Pose(Point3(2.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0))
        rx = Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0))
        geom = link_geometry(tx, rx)
        assert geom.distance == pytest.approx(3.0)
        assert geom.irradiance_angle == pytest.approx(0.0, abs=1e-12)
        assert geom.incidence_angle == pytest.approx(0.0, abs=1e-12)

    def test_off_axis_angles(self):
        # ceiling receiver 3 m up, transmitter displaced sqrt(2) m sideways
        tx = Pose(Point3(1.0, 1.0, 0.0), Point3(0.0, 0.0, 1.0))
        rx = Pose(Point3(2.0, 2.0, 3.0), Point3(0.0, 0.0, -1.0))
        geom = link_geometry(tx, rx)
        assert geom.distance == pytest.approx(math.sqrt(11.0))
        expected = math.acos(3.0 / math.sqrt(11.0))
        assert geom.irradiance_angle == pytest.approx(expected, abs=1e-12)
        assert geom.incidence_angle == pytest.approx(expected, abs=1e-12)

    def test_coincident_endpoints_rejected(self):
        pose = Pose(Point3(1.0, 1.0, 1.0), Point3(0.0, 0.0, 1.0))
        with pytest.raises(DegenerateGeometryError):
            link_geometry(pose, pose)

    @given(
        st.floats(0.1, 3.9), st.floats(0.1, 3.9),
        st.floats(0.1, 3.9), st.floats(0.1, 3.9),
    )
    def test_distance_symmetric(self, ax, ay, bx, by):
        a = Pose(Point3(ax, ay, 0.0), Point3(0.0, 0.0, 1.0))
        b = Pose(Point3(bx, by, 2.0), Point3(0.0, 0.0, -1.0))
        d_ab = link_geometry(a, b).distance
        d_ba = link_geometry(b, a).distance
        assert d_ab == pytest.approx(d_ba, rel=1e-12)


class TestRoomScenario:
    def test_nominal_accepted(self):
        nominal_room()

    @pytest.mark.parametrize("bad", [
        dict(room_x_m=0.0),
        dict(wall_reflectivity=1.5),
        dict(floor_reflectivity=-0.1),
        dict(fov_deg=0.0),
        dict(fov_deg=91.0),
        dict(detector_area_m2=0.0),
        dict(concentrator_index=0.9),
        dict(filter_transmission=0.0),
        dict(filter_bandwidth_nm=-1.0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            nominal_room(**bad)

    def test_semi_angles_exclude_ninety_but_fov_includes_it(self):
        for name in ("lamp_semi_angle_deg", "tx_semi_angle_deg"):
            with pytest.raises(ValueError, match="Lambert mode is undefined"):
                nominal_room(**{name: 90.0})
        assert nominal_room(fov_deg=90.0).fov_deg == 90.0

    def test_poses_must_sit_inside_room(self):
        outside = Pose(Point3(5.0, 2.0, 0.0), Point3(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            nominal_room(transmitter=outside)

    def test_hashable_for_caching(self):
        assert hash(nominal_room()) == hash(nominal_room())


class TestTessellation:
    def test_five_reflecting_surfaces(self):
        grids = wall_and_floor_grids(nominal_room(), 10)
        assert len(grids) == 5

    def test_ceiling_not_included(self):
        # every grid normal has a non-negative z component: four walls plus
        # the floor looking up, nothing looking down
        grids = wall_and_floor_grids(nominal_room(), 10)
        assert all(g.normal.z >= 0.0 for g in grids)

    def test_area_conserved_exactly(self):
        room = nominal_room()
        total = sum(g.area() for g in wall_and_floor_grids(room, 7))
        walls = 2.0 * (4.0 * 3.0) + 2.0 * (4.0 * 3.0)
        assert total == pytest.approx(walls + 4.0 * 4.0, rel=1e-12)

    def test_patch_count_matches_resolution(self):
        grids = wall_and_floor_grids(nominal_room(), 10)
        assert sum(g.patch_count() for g in grids) == 40 * 40 + 4 * (40 * 30)

    def test_patch_areas_sum_to_grid_area(self):
        grids = wall_and_floor_grids(nominal_room(), 3)
        cell_area_sum = sum(g.patch_count() * g.cell_u * g.cell_v for g in grids)
        assert cell_area_sum == pytest.approx(64.0, rel=1e-12)

    def test_reflectivity_assignment(self):
        grids = wall_and_floor_grids(nominal_room(), 2)
        floor = [g for g in grids if g.normal.z == 1.0]
        walls = [g for g in grids if g.normal.z == 0.0]
        assert len(floor) == 1 and len(walls) == 4
        assert all(g.reflectivity == 0.1 for g in floor)
        assert all(g.reflectivity == 0.7 for g in walls)

    @given(
        st.floats(1.0, 8.0), st.floats(1.0, 8.0), st.floats(2.0, 4.0),
        st.integers(1, 6),
    )
    def test_area_conservation_property(self, x, y, z, k):
        room = nominal_room(
            room_x_m=x, room_y_m=y, room_z_m=z,
            lamp=Pose(Point3(x / 2, y / 2, z), Point3(0.0, 0.0, -1.0)),
            transmitter=Pose(Point3(x / 2, y / 2, 0.0), Point3(0.0, 0.0, 1.0)),
            receiver=Pose(Point3(x / 2, y / 2, z), Point3(0.0, 0.0, -1.0)),
        )
        total = sum(g.area() for g in wall_and_floor_grids(room, k))
        expected = x * y + 2.0 * x * z + 2.0 * y * z
        assert total == pytest.approx(expected, rel=1e-9)
