"""Room layout, poses, link angles, surface tessellation, and the shared range rule."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from indoorqkd.channel import ChannelGains, DetectorParams, los_gain_for, total_reflected_gain
from indoorqkd.experiments import Scenario, ambient_tolerance, build_setup, evaluate_point, secure_fov_boundary, sweep
from indoorqkd.geometry import (
    _LARGEST_FLOAT,
    DegenerateGeometryError,
    Point3,
    Pose,
    RoomScenario,
    _in_range,
    concentrator_gain,
    lambert_mode,
    link_geometry,
    wall_and_floor_grids,
)
from indoorqkd.keyrate import ProtocolParams, secret_key_rate
from indoorqkd.noise import NoiseBudget, isotropic_noise_power, lamp_noise_photons, photons_per_pulse
from indoorqkd.spectra import _check_distance


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


_SETUP = build_setup(Scenario.named("lamp-center"), 20.0, 1e-5)
_GAINS = dict(line_of_sight=1e-5, transmittance=5e-6, reflected_integral=1e-7)
_COUNTS = dict(ambient=1e-6, lamp_bounce=1e-6, dark=1e-7)
# Each library check of a value that may be an array: (the argument it names, a call
# with that argument set to the given value and every other input valid).
_LIBRARY_CHECKS = {
    **{f"ChannelGains.{f}": (f, lambda v, f=f: ChannelGains(**{**_GAINS, f: v})) for f in _GAINS},
    **{f"NoiseBudget.{f}": (f, lambda v, f=f: NoiseBudget(**{**_COUNTS, f: v})) for f in _COUNTS},
    "isotropic_noise_power": ("ambient_irradiance_w_nm_m2", lambda v: isotropic_noise_power(v, _SETUP.room)),
    "photons_per_pulse": ("power_w", lambda v: photons_per_pulse(v, _SETUP.detector)),
    "lamp_noise_photons.psd": ("lamp_psd_w_per_nm", lambda v: lamp_noise_photons(v, _SETUP.room, _SETUP.detector, 1e-7)),
    "lamp_noise_photons.integral": ("reflected_integral", lambda v: lamp_noise_photons(1e-5, _SETUP.room, _SETUP.detector, v)),
    "secret_key_rate.transmittance": ("transmittance", lambda v: secret_key_rate(_SETUP.protocol, v, 1e-6)),
    "secret_key_rate.noise": ("noise", lambda v: secret_key_rate(_SETUP.protocol, 5e-6, v)),
}


class TestInRange:
    """The one range rule of the values that may be arrays (levels, counts, gains, key-rate fields)."""

    @pytest.mark.parametrize("value", [
        np.array([math.nan, 0.5, 0.5]), np.array([0.5, math.nan, 0.5]), np.array([0.5, 0.5, math.nan]),
        np.array(math.nan), math.nan,
    ])
    def test_nan_anywhere_fails(self, value):
        for hi in (1.0, math.inf, _LARGEST_FLOAT):
            with pytest.raises(ValueError, match="^v must "):
                _in_range("v", value, 0.0, hi)

    def test_negative_zero_passes_at_zero(self):
        assert _in_range("v", -0.0, 0.0, 1.0) == 0.0
        assert _in_range("v", np.array([-0.0, 1.0]), 0.0, 1.0).tolist() == [0.0, 1.0]

    def test_inf_passes_non_negative_and_fails_finite(self):
        assert _in_range("v", math.inf, 0.0, math.inf) == math.inf
        assert _in_range("v", np.array([1.0, math.inf]), 0.0, math.inf).tolist() == [1.0, math.inf]
        for value in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="^v must be non-negative and finite, got "):
                _in_range("v", value, 0.0, _LARGEST_FLOAT)
        assert _in_range("v", _LARGEST_FLOAT, 0.0, _LARGEST_FLOAT) == _LARGEST_FLOAT

    def test_an_int_past_the_float_range_fails_with_its_name(self):
        # under an upper end of inf the int compares in range, but no float holds it
        with pytest.raises(ValueError, match="^ambient must lie in the float range, got an int of 1329 bits$"):
            NoiseBudget(ambient=10**400, lamp_bounce=0.0, dark=0.0)
        for value in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="^v must lie in the float range"):
                _in_range("v", value, -math.inf, math.inf)
        assert _in_range("v", 2**1023, 0.0, math.inf) == 2.0**1023
        # the one-number fields and arguments that have no interval of their own
        for call, argument in [
            (lambert_mode, "semi_angle_deg"),
            (lambda v: concentrator_gain(v, 10.0), "index"),
            (lambda v: DetectorParams(**{**_DETECTOR, "wavelength_nm": v}), "wavelength_nm"),
        ]:
            with pytest.raises(ValueError, match=f"^{argument} must lie in the float range, got an int of 1329 bits$"):
                call(10**400)

    def test_empty_array_passes(self):
        checked = _in_range("v", np.zeros(0), 0.0, 1.0)
        assert checked.dtype == np.float64 and checked.shape == (0,)

    @pytest.mark.parametrize("value", [3, [1, 2], np.array([0.5, 0.25], dtype=np.float32), np.float32(0.5), 0.5, np.float64(0.5)])
    def test_comes_back_as_float64(self, value):
        checked = _in_range("v", value, 0.0, math.inf)
        assert checked.dtype == np.float64
        assert np.array_equal(checked, np.asarray(value, dtype=float))
        if np.ndim(value) == 0:
            assert type(checked) is np.float64

    def test_messages_name_the_rule(self):
        with pytest.raises(ValueError, match=r"^v must lie in \[0, 1\], got 1.5$"):
            _in_range("v", 1.5, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^v must be non-negative, got array\(\[ 1., -1.\]\)$"):
            _in_range("v", np.array([1.0, -1.0]), 0.0, math.inf)

    @pytest.mark.parametrize("check", list(_LIBRARY_CHECKS))
    @pytest.mark.parametrize("bad", [-1.0, math.nan, np.array([0.0, -1.0])], ids=["negative", "nan", "negative-element"])
    def test_every_library_check_names_its_argument(self, check, bad):
        argument, call = _LIBRARY_CHECKS[check]
        call(0.0)
        with pytest.raises(ValueError, match=f"^{argument} must "):
            call(bad)


    def test_text_fails_with_its_name(self):
        # numpy would parse "1e-5" as a number; None fails as a nan does
        lamp = Scenario.named("lamp-center")
        for call, argument in [
            (lambda v: ProtocolParams(v), "mean_photons_per_pulse"),  # a scalar field
            (lambda v: secret_key_rate(_SETUP.protocol, v, 1e-6), "transmittance"),  # a value that may be an array
            (lambda v: build_setup(lamp, 10.0, v), "source_level"),
            # the FOV entry points, each FOV read by the room's rule; a None FOV there is the room's, so it goes in a list
            (lambda v: evaluate_point(lamp, v, 1e-6), "fov_deg"),
            (lambda v: sweep(lamp, np.ravel(v), (1e-6,)), "fov_deg"),
            (lambda v: los_gain_for(_SETUP.room, fov_deg=[v]), "fov_deg"),
            (lambda v: total_reflected_gain(_SETUP.room, fov_deg=[v]), "fov_deg"),
            (lambda v: ambient_tolerance(Scenario.named("ambient-only-center"), fov_floor_deg=v), "fov_deg"),
            (lambda v: secure_fov_boundary(lamp, 1e-5, fov_max_deg=v), "fov_max_deg"),
            # a map's values and flags; known=None alone is no map, so v fills both rows
            (lambda v: secure_fov_boundary(lamp, 1e-5, known=[v, v]), "known"),
        ]:
            for text in ("1e-5", b"4", np.array(["1e-5", "1e-4"]), ["1e-5", 1e-4]):
                with pytest.raises(ValueError, match=f"^{argument} must be a number, not text, got "):
                    call(text)
            with pytest.raises(ValueError, match=f"^{argument} must "):
                call(None)


_DETECTOR = dict(efficiency=0.6, dark_count_rate_hz=1000.0, pulse_width_s=1e-10, wavelength_nm=880.0)
_ORIGIN = Point3(0.0, 0.0, 0.0)


def corner_room(**overrides):
    """The nominal room with every position on the floor edges through the origin,
    so that a room of any positive size holds them."""
    receiver = Point3(0.0, 1.0, 0.0) if "room_x_m" in overrides else Point3(1.0, 0.0, 0.0)
    return nominal_room(
        lamp=Pose(_ORIGIN, Point3(0.0, 0.0, 1.0)), transmitter=Pose(_ORIGIN, Point3(0.0, 0.0, 1.0)),
        receiver=Pose(receiver, Point3(0.0, 0.0, 1.0)), **overrides,
    )


# Each field whose rule is an interval: (the name its message gives, the interval as
# (lo, lo excluded, hi, hi excluded), a call with the field set to the given value and
# every other input valid).  An excluded inf bound reads "finite".
_FIELD_RULES = {
    **{f"RoomScenario.{f}": (f, (0.0, True, math.inf, True), lambda v, f=f: corner_room(**{f: v}))
       for f in ("room_x_m", "room_y_m", "room_z_m", "detector_area_m2", "filter_bandwidth_nm")},
    **{f"RoomScenario.{f}": (f, (0.0, False, 1.0, False), lambda v, f=f: nominal_room(**{f: v}))
       for f in ("wall_reflectivity", "floor_reflectivity")},
    "RoomScenario.filter_transmission": ("filter_transmission", (0.0, True, 1.0, False), lambda v: nominal_room(filter_transmission=v)),
    "RoomScenario.fov_deg": ("fov_deg", (0.0, True, 90.0, False), lambda v: nominal_room(fov_deg=v)),
    "concentrator_gain.fov_deg": ("fov_deg", (0.0, True, 90.0, False), lambda v: concentrator_gain(1.0, v)),
    "DetectorParams.efficiency": ("detector efficiency", (0.0, True, 1.0, False), lambda v: DetectorParams(**{**_DETECTOR, "efficiency": v})),
    "DetectorParams.dark_count_rate_hz": (
        "dark_count_rate_hz", (0.0, False, math.inf, True), lambda v: DetectorParams(**{**_DETECTOR, "dark_count_rate_hz": v})),
    "DetectorParams.pulse_width_s": ("pulse_width_s", (0.0, True, math.inf, True), lambda v: DetectorParams(**{**_DETECTOR, "pulse_width_s": v})),
    "ProtocolParams.mean_photons_per_pulse": ("mean_photons_per_pulse", (0.0, False, math.inf, True), lambda v: ProtocolParams(v)),
    "ProtocolParams.sift_factor": ("sift_factor", (0.0, True, 1.0, False), lambda v: ProtocolParams(0.5, sift_factor=v)),
    "ProtocolParams.error_correction_inefficiency": (
        "error_correction_inefficiency", (1.0, False, math.inf, True), lambda v: ProtocolParams(0.5, error_correction_inefficiency=v)),
    "ProtocolParams.misalignment_error": ("misalignment_error", (0.0, False, 0.5, False), lambda v: ProtocolParams(0.5, misalignment_error=v)),
    "spectra.distance_m": ("distance_m", (0.0, True, math.inf, True), _check_distance),
}

_ROOM = nominal_room()
_PROTOCOL = dict(mean_photons_per_pulse=0.5, sift_factor=1.0, error_correction_inefficiency=1.16, misalignment_error=0.0)
# Every field or argument that holds one number: (a valid value, a call with it set to the given value).
_SCALAR_FIELDS = {
    **{f"RoomScenario.{f}": (getattr(_ROOM, f), lambda v, f=f: nominal_room(**{f: v})) for f in (
        "room_x_m", "room_y_m", "room_z_m", "wall_reflectivity", "floor_reflectivity", "lamp_semi_angle_deg", "tx_semi_angle_deg",
        "fov_deg", "detector_area_m2", "concentrator_index", "filter_transmission", "filter_bandwidth_nm")},
    **{f"DetectorParams.{f}": (v, lambda v, f=f: DetectorParams(**{**_DETECTOR, f: v})) for f, v in _DETECTOR.items()},
    **{f"ProtocolParams.{f}": (v, lambda v, f=f: ProtocolParams(**{**_PROTOCOL, f: v})) for f, v in _PROTOCOL.items()},
    "spectra.distance_m": (1.0, _check_distance),
    "concentrator_gain.index": (1.5, lambda v: concentrator_gain(v, 30.0)),
    "concentrator_gain.fov_deg": (30.0, lambda v: concentrator_gain(1.5, v)),
    "lambert_mode.semi_angle_deg": (70.0, lambert_mode),
}


# Values that are no real number: text, None, a complex number (even with no imaginary part) and another object.
_NOT_NUMBERS = ("4", None, 4 + 0j, {})


def rule_text(lo, lo_excluded, hi, hi_excluded) -> str:
    if hi == math.inf:
        return {(0.0, False): "be non-negative and finite", (0.0, True): "be positive and finite", (1.0, False): "be >= 1 and finite"}[lo, lo_excluded]
    return f"lie in {'(' if lo_excluded else '['}{lo:g}, {hi:g}]"


class TestFieldRules:
    """Each setup field whose rule is an interval, checked by the one range rule."""

    @pytest.mark.parametrize("field", list(_FIELD_RULES))
    def test_each_value_passes_or_fails_as_its_interval_says(self, field):
        name, (lo, lo_excluded, hi, hi_excluded), call = _FIELD_RULES[field]
        bounds = (lo, hi if hi < math.inf else _LARGEST_FLOAT)
        values = [b for bound in bounds for b in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))]
        values += [0.0, -0.0, math.nan, math.inf, -math.inf, 0, 1, 3]
        for value in values:
            above = lo < value if lo_excluded else lo <= value
            below = value < hi if hi_excluded else value <= hi
            if above and below:
                try:
                    call(value)
                except ValueError as exc:  # a later rule alone may refuse it: the FOV's finite concentrator gain
                    assert name == "fov_deg" and str(exc).startswith("fov_deg must be wide enough"), (value, exc)
            else:
                expected = f"{name} must {rule_text(lo, lo_excluded, hi, hi_excluded)}, got {value!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    call(value)

    @pytest.mark.parametrize("field", list(_FIELD_RULES))
    def test_text_and_none_fail(self, field):
        name, _, call = _FIELD_RULES[field]
        for value in _NOT_NUMBERS:
            with pytest.raises(ValueError, match=f"^{name} must be a (number, not text|real number), got "):
                call(value)

    @pytest.mark.parametrize("shape", [(1,), (2,), (2, 2), (3,)])
    @pytest.mark.parametrize("field", list(_SCALAR_FIELDS))
    def test_an_array_fails_naming_the_field(self, field, shape):
        value, call = _SCALAR_FIELDS[field]
        call(value)  # every element is valid on its own
        expected = f"{field.rpartition('.')[2]} must be one number, not an array of shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            call(np.full(shape, value))

    @pytest.mark.parametrize("value", _NOT_NUMBERS, ids=["text", "None", "complex", "dict"])
    @pytest.mark.parametrize("field", list(_SCALAR_FIELDS))
    def test_a_non_number_fails_naming_the_field(self, field, value):
        _, call = _SCALAR_FIELDS[field]
        # \b: the detector's efficiency is named "detector efficiency" by its interval rule, which reads it first
        with pytest.raises(ValueError, match=rf"\b{field.rpartition('.')[2]} must be a (number, not text|real number), got "):
            call(value)


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
