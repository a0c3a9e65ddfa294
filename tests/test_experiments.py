"""Named scenarios, sweep grids, and the secure-region boundary searches."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indoorqkd.experiments import (
    AMBIENT_SCENARIOS,
    LAMP_SCENARIOS,
    NOMINAL,
    SCENARIOS,
    _AMBIENT_LADDER_DECADES,
    _BOUNDARY_PRECISION_DEG,
    _FOV_LADDER_DEG,
    _TOLERANCE_PRECISION_DECADES,
    Scenario,
    ambient_tolerance,
    build_setup,
    evaluate_point,
    path_loss_profile,
    secure_fov_boundary,
    sweep,
)
from indoorqkd import channel
from indoorqkd.geometry import Point3

# Sweep values recorded when every grid point was its own evaluate_point call
# (two ambient-only 12 x 9 grids and two lamp 7 x 5 grids at 10 patches/m).
PINNED_SWEEPS = json.loads((Path(__file__).parent / "data" / "pinned_sweeps.json").read_text())


# Keys whose domain includes 0 (a lamp on a wall, a dark room, no source).
ZERO_IS_VALID = {
    "wall_reflectivity", "floor_reflectivity", "lamp_x_m", "lamp_y_m",
    "ambient_irradiance_w_nm_m2", "dark_count_rate_hz",
    "mean_photons_per_pulse", "misalignment_error",
}


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestScenarioTable:
    def test_five_scenarios(self):
        assert len(SCENARIOS) == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Scenario.named("lamp-hallway")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            Scenario.named("lamp-center", {"room_width": 4.0})

    def test_center_transmitter_under_receiver(self):
        setup = build_setup(Scenario.named("lamp-center"), 30.0, 1e-5)
        assert setup.room.transmitter.position.as_tuple() == (2.0, 2.0, 0.0)
        assert setup.room.transmitter.axis.as_tuple() == (0.0, 0.0, 1.0)
        assert setup.room.tx_semi_angle_deg == 30.0

    def test_corner_transmitter_at_origin(self):
        setup = build_setup(Scenario.named("lamp-corner"), 30.0, 1e-5)
        assert setup.room.transmitter.position.as_tuple() == (0.0, 0.0, 0.0)
        assert setup.room.transmitter.axis.as_tuple() == (0.0, 0.0, 1.0)

    def test_steered_corner_aims_at_receiver_with_narrow_beam(self):
        setup = build_setup(Scenario.named("lamp-corner-steered"), 30.0, 1e-5)
        axis = setup.room.transmitter.axis
        expected = Point3(2.0, 2.0, 3.0).normalized()
        assert axis.minus(expected).norm() < 1e-12
        assert setup.room.tx_semi_angle_deg == 5.0

    def test_receiver_and_lamp_colocated_at_ceiling_center(self):
        setup = build_setup(Scenario.named("lamp-center"), 30.0, 1e-5)
        assert setup.room.receiver.position.as_tuple() == (2.0, 2.0, 3.0)
        assert setup.room.lamp.position.as_tuple() == (2.0, 2.0, 3.0)
        assert setup.room.receiver.axis.as_tuple() == (0.0, 0.0, -1.0)

    def test_ambient_scenarios_run_with_lamp_off(self):
        setup = build_setup(Scenario.named("ambient-only-center"), 30.0, 1e-8)
        assert setup.lamp_psd_w_per_nm == 0.0
        assert setup.ambient_irradiance_w_nm_m2 == 1e-8

    def test_lamp_scenarios_sweep_the_psd(self):
        setup = build_setup(Scenario.named("lamp-corner", {"ambient_irradiance_w_nm_m2": 2e-9}), 30.0, 3e-6)
        assert setup.lamp_psd_w_per_nm == 3e-6
        assert setup.ambient_irradiance_w_nm_m2 == 2e-9

    def test_levels_keep_the_shape_of_the_source_levels(self):
        levels = np.array([[0.0, 1e-6], [1e-5, 1e-4]])
        for name in ("lamp-center", "ambient-only-center"):
            setup = build_setup(Scenario.named(name), 30.0, levels)
            assert setup.lamp_psd_w_per_nm.shape == setup.ambient_irradiance_w_nm_m2.shape == (2, 2)

    def test_ambient_scenarios_ignore_the_ambient_override(self):
        # they sweep the irradiance; lamp scenarios read the override and check it
        setup = build_setup(Scenario.named("ambient-only-center", {"ambient_irradiance_w_nm_m2": -1.0}), 30.0, 1e-8)
        assert setup.ambient_irradiance_w_nm_m2 == 1e-8

    def test_overrides_reach_the_room(self):
        scenario = Scenario.named("lamp-center", {"wall_reflectivity": 0.4})
        setup = build_setup(scenario, 30.0, 1e-5)
        assert setup.room.wall_reflectivity == 0.4

    def test_matched_filter_bandwidth_default(self):
        setup = build_setup(Scenario.named("lamp-center"), 30.0, 1e-5)
        assert setup.room.filter_bandwidth_nm == pytest.approx(0.0258311, rel=1e-4)


class TestEvaluatePoint:
    def test_dark_room_still_makes_key(self):
        # only dark counts oppose the signal
        for name in ("lamp-center", "lamp-corner"):
            point = evaluate_point(Scenario.named(name), 30.0, 0.0)
            assert point.report.rate > 0.0

    def test_noise_budget_split_by_origin(self):
        lamp_point = evaluate_point(Scenario.named("lamp-center"), 11.0, 1e-5)
        assert lamp_point.budget.ambient == 0.0
        assert lamp_point.budget.lamp_bounce > 0.0
        assert lamp_point.budget.dark == pytest.approx(1e-7, rel=1e-12)

        ambient_point = evaluate_point(Scenario.named("ambient-only-center"), 11.0, 1e-8)
        assert ambient_point.budget.lamp_bounce == 0.0
        assert ambient_point.budget.ambient > 0.0

    def test_deterministic_to_the_bit(self):
        a = evaluate_point(Scenario.named("lamp-center"), 13.0, 2e-6)
        b = evaluate_point(Scenario.named("lamp-center"), 13.0, 2e-6)
        assert a.report.rate == b.report.rate
        for field in GAIN_FIELDS:
            assert bits(getattr(a.gains, field)) == bits(getattr(b.gains, field)), field

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(Scenario.named("lamp-center"), 11.0, -1e-6)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("key", sorted(NOMINAL))
    def test_non_finite_override_names_its_field(self, key, value):
        # the library alone (no CLI parse step) must stop a non-finite,
        # zero or negative value outside the key's domain with a ValueError
        # that names the field it lands in: each rule fires from the setup
        # dataclass that carries the value
        field = {"detector_efficiency": "efficiency", "lamp_x_m": "lamp", "lamp_y_m": "lamp"}.get(key, key)
        for name in ("lamp-center", "lamp-corner-steered"):
            scenario = Scenario.named(name, {key: value})
            if value == 0.0 and key in ZERO_IS_VALID:
                build_setup(scenario, 10.0, 1e-5)
                continue
            with pytest.raises(ValueError, match=field):
                build_setup(scenario, 10.0, 1e-5)
            with pytest.raises(ValueError, match=field):
                evaluate_point(scenario, 10.0, 1e-5)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_source_level_rejected(self, level):
        with pytest.raises(ValueError, match="source_level"):
            build_setup(Scenario.named("lamp-center"), 10.0, level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
    def test_bad_level_in_an_array_rejected(self, bad):
        levels = np.array([1e-6, bad, 1e-5])
        for name in ("lamp-center", "ambient-only-center"):
            with pytest.raises(ValueError, match="source_level"):
                evaluate_point(Scenario.named(name), 10.0, levels)
            with pytest.raises(ValueError, match="source_level"):
                sweep(Scenario.named(name), (5.0, 10.0), (1e-6, bad))

    @pytest.mark.parametrize("name", ["lamp-center", "lamp-corner-steered", "ambient-only-corner"])
    def test_level_array_equals_scalar_points_bit_for_bit(self, name):
        levels = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4)
        row = evaluate_point(Scenario.named(name), 12.0, np.array(levels))
        assert row.gains.line_of_sight == evaluate_point(Scenario.named(name), 12.0, 0.0).gains.line_of_sight
        for j, level in enumerate(levels):
            point = evaluate_point(Scenario.named(name), 12.0, level)
            for field in ("y1", "q1", "e1", "q_mu", "e_mu", "rate", "unclamped_rate"):
                assert bits(getattr(row.report, field)[j]) == bits(getattr(point.report, field)), field
            assert row.report.degenerate[j] == point.report.degenerate
            for field in ("ambient", "lamp_bounce", "total"):
                assert bits(getattr(row.budget, field)[j]) == bits(getattr(point.budget, field)), field

    def test_signal_cutoff_mode_kills_corner_link(self):
        # the corner sits 43 degrees off the receiver axis; with the
        # physical cutoff enabled no signal survives an 11 degree cone
        point = evaluate_point(
            Scenario.named("lamp-corner"), 11.0, 1e-6, signal_fov_cutoff=True
        )
        assert point.gains.line_of_sight == 0.0
        assert point.report.rate == 0.0


GAIN_FIELDS = ("line_of_sight", "transmittance", "reflected_integral")
BUDGET_FIELDS = ("ambient", "lamp_bounce", "dark", "total")
REPORT_FIELDS = ("y1", "q1", "e1", "q_mu", "e_mu", "rate", "unclamped_rate", "degenerate")


class TestFovArray:
    """A FOV array, alone or in a sweep, is one scalar evaluation per (FOV, level)."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(SCENARIOS),
        cutoff=st.booleans(),
        fovs=st.lists(st.floats(0.25, 90.0), min_size=1, max_size=4),
        exponents=st.lists(st.floats(-10.0, -3.0), min_size=0, max_size=3),
    )
    # the LOS cap of 1 fires at 0.25 deg over lamp-center
    @example(name="lamp-center", cutoff=False, fovs=[0.25, 0.5, 12.0], exponents=[-6.0])
    @example(name="lamp-center", cutoff=True, fovs=[0.25, 30.0], exponents=[-5.0])
    # the corner link arrives 43 deg off axis, so the cutoff zeroes the narrower cones
    @example(name="lamp-corner", cutoff=True, fovs=[5.0, 42.0, 44.0, 90.0], exponents=[-7.0, -5.0])
    @example(name="ambient-only-corner", cutoff=True, fovs=[11.0, 60.0], exponents=[-9.0])
    def test_grid_equals_scalar_points_bit_for_bit(self, name, cutoff, fovs, exponents):
        scenario = Scenario.named(name)
        levels = [0.0] + [10.0**e for e in exponents]
        options = dict(patches_per_meter=3, signal_fov_cutoff=cutoff)
        grids = (
            evaluate_point(scenario, np.array(fovs)[:, None], np.array(levels), **options),
            sweep(scenario, tuple(fovs), tuple(levels), **options),
        )
        shape = (len(fovs), len(levels))
        for grid in grids:
            assert grid.report.rate.shape == shape
        for i, fov in enumerate(fovs):
            for j, level in enumerate(levels):
                point = evaluate_point(scenario, fov, level, **options)
                # a scalar call at level 0 leaves the integral at 0; its lamp count is 0 either way
                gain_fields = GAIN_FIELDS if level > 0.0 or name in AMBIENT_SCENARIOS else GAIN_FIELDS[:2]
                for grid in grids:
                    for part, fields in (("gains", gain_fields), ("budget", BUDGET_FIELDS), ("report", REPORT_FIELDS)):
                        for field in fields:
                            value = np.broadcast_to(getattr(getattr(grid, part), field), shape)[i, j]
                            assert bits(value) == bits(getattr(getattr(point, part), field)), (part, field, fov, level)

    def test_fovs_and_levels_broadcast(self):
        scenario = Scenario.named("lamp-center")
        pairs = evaluate_point(scenario, np.array([8.0, 12.0]), np.array([1e-6, 1e-5]))
        assert pairs.report.rate.shape == (2,)
        for k, (fov, level) in enumerate(((8.0, 1e-6), (12.0, 1e-5))):
            assert bits(pairs.report.rate[k]) == bits(evaluate_point(scenario, fov, level).report.rate)
        with pytest.raises(ValueError, match="broadcast"):
            evaluate_point(scenario, np.array([8.0, 12.0, 16.0]), np.array([1e-6, 1e-5]))

    def test_sweep_fields_have_the_map_shape(self):
        for name in ("ambient-only-center", "lamp-corner"):
            point = sweep(Scenario.named(name), (5.0, 10.0, 15.0), (0.0, 1e-6))
            assert point.gains.line_of_sight.shape == (3, 1)
            for field in ("ambient", "lamp_bounce", "total"):
                assert getattr(point.budget, field).shape == (3, 2), (name, field)
            for field in REPORT_FIELDS:
                assert getattr(point.report, field).shape == (3, 2), (name, field)

    def test_cap_and_cutoff_fire(self):
        capped = evaluate_point(Scenario.named("lamp-center"), np.array([0.25, 12.0]), 1e-6)
        assert capped.gains.line_of_sight[0] == 1.0 > capped.gains.line_of_sight[1]
        cut = evaluate_point(Scenario.named("lamp-corner"), np.array([42.0, 44.0]), 1e-6, signal_fov_cutoff=True)
        assert cut.gains.line_of_sight[0] == 0.0 < cut.gains.line_of_sight[1]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 90.0001, 1e-300])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_bad_fov_anywhere_raises_the_room_rule(self, bad, at):
        scenario = Scenario.named("lamp-center")
        with pytest.raises(ValueError) as expected:
            build_setup(scenario, bad, 0.0)
        fovs = [10.0, 20.0]
        fovs.insert(at, bad)
        calls = (
            lambda: evaluate_point(scenario, np.array(fovs)[:, None], np.array([1e-6, 1e-5])),
            lambda: sweep(scenario, tuple(fovs), (1e-6, 1e-5)),
            lambda: path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, tuple(fovs)),
        )
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)


class TestIntegralCache:
    def test_one_integral_per_fov_whatever_the_levels(self, quadrature_passes):
        # the memo key holds no spectral level and no FOV: other PSDs and another
        # ambient irradiance reuse a sweep's integrals, FOV by FOV
        fovs = (6.0, 12.0, 24.0)
        sweep(Scenario.named("lamp-center"), fovs, (1e-7, 1e-6, 1e-5, 1e-4))
        lit = Scenario.named("lamp-center", {"ambient_irradiance_w_nm_m2": 1e-8})
        evaluate_point(lit, np.array(fovs)[:, None], np.array([3e-6, 3e-5]))
        for fov in fovs:
            evaluate_point(lit, fov, 2e-5)
        evaluate_point(lit, np.array([12.0, 7.0, 12.0, 7.0]), 2e-5)
        evaluate_point(lit, 24.0, 2e-5, patches_per_meter=20)
        # one pass per array, the new FOV once, and another order on its own
        assert [p[:2] for p in quadrature_passes] == [(10, [6.0, 12.0, 24.0]), (10, [7.0]), (20, [24.0])]
        # the first pass at an order sums the whole pieces below 24 degrees, 7 degrees needs none
        assert quadrature_passes[0][2] == quadrature_passes[2][2] != [] and quadrature_passes[1][2] == []
        assert len(channel._VIEWS) == 1

    def test_the_three_lamp_scenarios_share_one_entry(self, quadrature_passes):
        # the integral does not depend on the transmitter, so the three lamp
        # rooms, which differ only in it, share their integrals
        points = [sweep(Scenario.named(name), (4.0, 20.0), (1e-6,)) for name in LAMP_SCENARIOS]
        assert len(channel._VIEWS) == 1
        assert [p[:2] for p in quadrature_passes] == [(10, [4.0, 20.0])]
        for point in points[1:]:
            assert bits(point.gains.reflected_integral) == bits(points[0].gains.reflected_integral)


class TestArrayValuedResults:
    def test_equality_and_hash_do_not_raise(self):
        a = sweep(Scenario.named("lamp-center"), (8.0,), (1e-6, 1e-5))
        b = sweep(Scenario.named("lamp-center"), (8.0,), (1e-6, 1e-5))
        pairs = [(a, b)] + [(getattr(a, name), getattr(b, name)) for name in ("gains", "report", "budget")]
        for x, y in pairs:
            assert x == x
            assert x != y  # distinct objects; compare their fields for values
            assert hash(x) == hash(x)
            hash(y)


class TestSweep:
    def test_grid_shape_matches_axes(self):
        grid = sweep(Scenario.named("lamp-center"), (5.0, 10.0, 15.0), (1e-6, 1e-5))
        assert grid.report.rate.shape == (3, 2)
        assert grid.gains.line_of_sight.shape == (3, 1)

    def test_single_cell_grid_equals_point_evaluation(self):
        grid = sweep(Scenario.named("lamp-center"), (9.0,), (1e-5,))
        point = evaluate_point(Scenario.named("lamp-center"), 9.0, 1e-5)
        assert grid.report.rate[0, 0] == point.report.rate

    def test_rate_non_increasing_along_source_axis(self):
        levels = (1e-7, 1e-6, 1e-5, 1e-4)
        grid = sweep(Scenario.named("lamp-center"), (8.0,), levels)
        rates = grid.report.rate[0].tolist()
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(Scenario.named("lamp-center"), (), (1e-5,))
        with pytest.raises(ValueError):
            sweep(Scenario.named("lamp-center"), np.array([5.0]), np.array([]))

    @pytest.mark.parametrize("name", ["ambient-only-center", "lamp-center"])
    def test_numpy_axes_equal_tuple_axes(self, name):
        fovs, levels = np.array([5.0, 10.0]), np.array([1e-9, 1e-8])
        from_arrays = sweep(Scenario.named(name), fovs, levels)
        from_tuples = sweep(Scenario.named(name), tuple(fovs.tolist()), tuple(levels.tolist()))
        assert from_arrays.scenario == from_tuples.scenario
        for part, fields in (
            ("", ("fov_deg", "source_level")),
            ("gains", GAIN_FIELDS),
            ("budget", BUDGET_FIELDS),
            ("report", REPORT_FIELDS),
        ):
            for field in fields:
                a, b = (getattr(getattr(p, part) if part else p, field) for p in (from_arrays, from_tuples))
                assert bits(a) == bits(b) and np.shape(a) == np.shape(b), (part, field)


class TestPinnedSweep:
    @pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
    def test_values_unchanged(self, name):
        pinned = PINNED_SWEEPS[name]
        grid = sweep(
            Scenario.named(name), tuple(pinned["fov_deg"]), tuple(pinned["source_level"]),
            patches_per_meter=10,
        )
        shape = grid.report.rate.shape
        got = {
            "rate": grid.report.rate,
            "noise_total": np.broadcast_to(grid.budget.total, shape),  # ambient runs: (n_src,)
            "e_mu": grid.report.e_mu,
        }
        for key, values in got.items():
            np.testing.assert_allclose(values, pinned[key], rtol=1e-12, atol=0.0, err_msg=key)


class TestSecureFovBoundary:
    def test_dark_room_boundary_is_max_fov(self):
        assert secure_fov_boundary(Scenario.named("lamp-center"), 0.0) == 90.0

    def test_boundary_monotone_in_source_strength(self):
        dim = secure_fov_boundary(Scenario.named("lamp-center"), 1e-6)
        bright = secure_fov_boundary(Scenario.named("lamp-center"), 1e-5)
        assert dim >= bright

    def test_blinding_light_returns_none(self):
        assert secure_fov_boundary(Scenario.named("lamp-center"), 10.0) is None

    def test_boundary_edge_is_secure_side(self):
        boundary = secure_fov_boundary(Scenario.named("lamp-center"), 1e-5)
        at_boundary = evaluate_point(Scenario.named("lamp-center"), boundary, 1e-5)
        assert at_boundary.report.secure
        past = evaluate_point(Scenario.named("lamp-center"), boundary + 0.2, 1e-5)
        assert not past.report.secure


class TestAmbientTolerance:
    def test_only_ambient_scenarios_accepted(self):
        with pytest.raises(ValueError):
            ambient_tolerance(Scenario.named("lamp-center"))

    def test_corner_tolerates_less_than_center(self):
        center = ambient_tolerance(Scenario.named("ambient-only-center"))
        corner = ambient_tolerance(Scenario.named("ambient-only-corner"))
        assert 0.0 < corner < center

    def test_tolerance_edge_is_secure(self):
        # the bisection stops within 0.01 decades of the crossing, on its secure side
        tol = ambient_tolerance(Scenario.named("ambient-only-center"))
        secure = evaluate_point(Scenario.named("ambient-only-center"), 10.0, tol)
        blinded = evaluate_point(Scenario.named("ambient-only-center"), 10.0, tol * 10**0.01)
        assert secure.report.secure
        assert not blinded.report.secure

    def test_capped_tolerance_is_verified_secure(self):
        # so narrow a filter leaves 100 W/nm/m^2 secure; the search stops
        # there and must return that checked level, not the next decade
        scenario = Scenario.named("ambient-only-center", {"filter_bandwidth_nm": 1e-12})
        tol = ambient_tolerance(scenario)
        assert evaluate_point(scenario, 10.0, tol).report.rate > 0.0

    def test_none_when_not_even_the_dark_room_is_secure(self):
        # misalignment 0.5 leaves every click a coin flip, so no level is secure
        scenario = Scenario.named("ambient-only-center", {"misalignment_error": 0.5})
        assert not evaluate_point(scenario, 10.0, 0.0).report.secure
        assert ambient_tolerance(scenario) is None

    def test_fractional_fov_floor_never_probes_below_it(self):
        scenario = Scenario.named("ambient-only-center")
        tol = ambient_tolerance(scenario, fov_floor_deg=0.5)
        assert evaluate_point(scenario, 0.5, tol).report.secure

    # Ranges where the rate at 1e-9 W/nm/m^2 is positive at the floor in
    # about two draws of five, and then nearly always falls to 0 before 90 deg.
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(AMBIENT_SCENARIOS),
        room=st.tuples(st.floats(2.0, 8.0), st.floats(2.0, 8.0), st.floats(2.0, 5.0)),
        mu=st.floats(0.05, 1.0),
        misalignment=st.floats(0.0, 0.05),
        inefficiency=st.floats(1.0, 1.5),
        sift=st.sampled_from([0.5, 1.0]),
        efficiency=st.floats(0.2, 1.0),
        dark_hz=st.floats(0.0, 1e4),
        index=st.floats(1.0, 2.5),
        floor=st.floats(0.25, 30.0),
    )
    # the nominal room: secure at the floor, blinded well before 90 deg
    @example(
        name="ambient-only-center", room=(4.0, 4.0, 3.0), mu=0.5, misalignment=0.0, inefficiency=1.16,
        sift=1.0, efficiency=0.6, dark_hz=1000.0, index=1.5, floor=2.0,
    )
    def test_rate_never_grows_with_the_fov(
        self, name, room, mu, misalignment, inefficiency, sift, efficiency, dark_hz, index, floor
    ):
        # Why the tolerance is taken at the FOV floor: with an isotropic
        # background the ambient count does not depend on the FOV, and the
        # transmittance only falls as the cone opens, so no wider FOV does better.
        overrides = {
            "room_x_m": room[0], "room_y_m": room[1], "room_z_m": room[2],
            "mean_photons_per_pulse": mu, "misalignment_error": misalignment,
            "error_correction_inefficiency": inefficiency, "sift_factor": sift,
            "detector_efficiency": efficiency, "dark_count_rate_hz": dark_hz,
            "concentrator_index": index,
        }
        fovs = np.linspace(floor, 90.0, 24)
        rates = evaluate_point(Scenario.named(name, overrides), fovs, 1e-9).report.rate
        assert (np.diff(rates) <= 0.0).all(), rates


def scalar_walk(secure, ladder, precision):
    """The searches as they ran before the ladder became one array: one
    scalar probe per rung up to the first insecure one, then the bisection."""
    lo = None
    for rung in ladder:
        if not secure(rung):
            break
        lo = rung
    else:
        return lo
    if lo is None:
        return None
    hi = rung
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return lo


def seeded_rooms(seed, count):
    rng = np.random.default_rng(seed)
    rooms = []
    for _ in range(count):
        x, y, z = rng.uniform(3.0, 7.0), rng.uniform(3.0, 7.0), rng.uniform(2.5, 4.0)
        rooms.append({
            "room_x_m": x, "room_y_m": y, "room_z_m": z,
            "wall_reflectivity": rng.uniform(0.3, 0.9), "floor_reflectivity": rng.uniform(0.05, 0.5),
            "lamp_x_m": x / 2.0 + rng.uniform(-1.0, 1.0), "lamp_y_m": y / 2.0 + rng.uniform(-1.0, 1.0),
        })
    return rooms


class TestSearchesAgainstScalarWalk:
    """The ladder evaluated as one array finds what the scalar walk found, to the bit."""

    @pytest.mark.parametrize("name", LAMP_SCENARIOS)
    @pytest.mark.parametrize("room", [{}] + seeded_rooms(21, 2))
    def test_boundary(self, name, room):
        scenario = Scenario.named(name, room)
        # 0 leaves every FOV secure in lamp-center, 10 W/nm none; 30 and 45.5 are no rungs
        for level in (0.0, 1e-6, 1e-5, 1e-3, 10.0):
            for fov_max in (30.0, 45.5, 90.0):
                ladder = [f for f in _FOV_LADDER_DEG if f < fov_max] + [fov_max]
                probe = lambda fov: evaluate_point(scenario, fov, level).report.secure  # noqa: E731
                expected = scalar_walk(probe, ladder, _BOUNDARY_PRECISION_DEG)
                boundary = secure_fov_boundary(scenario, level, fov_max_deg=fov_max)
                assert bits(np.nan if boundary is None else boundary) == bits(np.nan if expected is None else expected)

    @pytest.mark.parametrize("name", AMBIENT_SCENARIOS)
    @pytest.mark.parametrize(
        "overrides",
        # a room of each kind, the tolerance capped at 100 W/nm/m^2, none secure, only the dark room secure
        seeded_rooms(22, 2) + [{"filter_bandwidth_nm": 1e-12}, {"misalignment_error": 0.5}, {"dark_count_rate_hz": 392968.75}],
    )
    def test_ambient_tolerance(self, name, overrides):
        scenario = Scenario.named(name, overrides)
        for floor in (2.0, 10.0, 33.3):
            probe = lambda level: evaluate_point(scenario, floor, level).report.secure  # noqa: E731
            decades = scalar_walk(lambda d: probe(10.0**d), _AMBIENT_LADDER_DECADES, _TOLERANCE_PRECISION_DECADES)
            expected = 10.0**decades if decades is not None else (0.0 if probe(0.0) else None)
            tolerance = ambient_tolerance(scenario, fov_floor_deg=floor)
            assert bits(np.nan if tolerance is None else tolerance) == bits(np.nan if expected is None else expected)

    def test_the_outcomes_the_cases_reach(self):
        lamp = Scenario.named("lamp-center")
        assert [secure_fov_boundary(lamp, 0.0, fov_max_deg=f) for f in (30.0, 45.5)] == [30.0, 45.5]
        assert secure_fov_boundary(lamp, 10.0, fov_max_deg=45.5) is None
        assert ambient_tolerance(Scenario.named("ambient-only-center", {"filter_bandwidth_nm": 1e-12}), fov_floor_deg=2.0) == 100.0
        assert ambient_tolerance(Scenario.named("ambient-only-center", {"misalignment_error": 0.5}), fov_floor_deg=2.0) is None
        assert ambient_tolerance(Scenario.named("ambient-only-corner", {"dark_count_rate_hz": 392968.75}), fov_floor_deg=2.0) == 0.0


class TestPathLossProfile:
    def test_loss_grows_with_fov(self):
        fovs = tuple(float(f) for f in range(10, 26))
        losses = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, fovs)
        assert len(losses) == len(fovs)
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_aligned_narrow_source_beats_corner(self):
        fovs = (10.0, 15.0, 20.0, 25.0)
        corner = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, fovs)
        center = path_loss_profile(Point3(2.0, 2.0, 0.0), 7.0, fovs)
        assert all(c < k for c, k in zip(center, corner))

    def test_loss_is_positive_decibels(self):
        losses = path_loss_profile(Point3(1.0, 1.0, 0.0), 30.0, (15.0,))
        assert losses[0] > 0.0

    def test_every_override_key_applies(self):
        nominal = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, (10.0,))
        assert nominal[0] == pytest.approx(41.9455, abs=1e-4)
        # a higher ceiling lengthens the corner link but steepens it toward
        # the beam axis, which wins; a larger area collects more
        taller = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, (10.0,), {"room_z_m": 6.0})
        assert taller[0] < nominal[0] - 1.0
        bigger = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, (10.0,), {"detector_area_m2": 2e-4})
        assert bigger[0] == pytest.approx(nominal[0] - 10.0 * math.log10(2.0), rel=1e-12)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="room_zz"):
            path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, (10.0,), {"room_zz": 6.0})


class TestScenarioHygiene:
    def test_ambient_names_and_lamp_names_partition(self):
        assert set(AMBIENT_SCENARIOS).isdisjoint(
            set(SCENARIOS) - set(AMBIENT_SCENARIOS)
        )
        assert set(AMBIENT_SCENARIOS) <= set(SCENARIOS)

    def test_scenarios_hashable(self):
        a = Scenario.named("lamp-center", {"wall_reflectivity": 0.5})
        b = Scenario.named("lamp-center", {"wall_reflectivity": 0.5})
        assert hash(a) == hash(b)
        assert a == b
