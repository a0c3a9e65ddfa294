"""Named scenarios, sweep grids, and the secure-region boundary searches."""

import math

import pytest

from indoorqkd.experiments import (
    AMBIENT_SCENARIOS,
    SCENARIOS,
    Scenario,
    ambient_tolerance,
    build_setup,
    evaluate_point,
    path_loss_profile,
    secure_fov_boundary,
    sweep,
)
from indoorqkd.geometry import Point3


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
        assert setup.room.lamp_psd_w_per_nm == 0.0
        assert setup.room.ambient_irradiance_w_nm_m2 == 1e-8

    def test_lamp_scenarios_sweep_the_psd(self):
        setup = build_setup(Scenario.named("lamp-corner"), 30.0, 3e-6)
        assert setup.room.lamp_psd_w_per_nm == 3e-6
        assert setup.room.ambient_irradiance_w_nm_m2 == 0.0

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
        assert a.gains == b.gains

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(Scenario.named("lamp-center"), 11.0, -1e-6)

    def test_signal_cutoff_mode_kills_corner_link(self):
        # the corner sits 43 degrees off the receiver axis; with the
        # physical cutoff enabled no signal survives an 11 degree cone
        point = evaluate_point(
            Scenario.named("lamp-corner"), 11.0, 1e-6, signal_fov_cutoff=True
        )
        assert point.gains.line_of_sight == 0.0
        assert point.report.rate == 0.0


class TestSweep:
    def test_grid_shape_matches_axes(self):
        grid = sweep(Scenario.named("lamp-center"), (5.0, 10.0, 15.0), (1e-6, 1e-5))
        assert len(grid.points) == 3
        assert all(len(row) == 2 for row in grid.points)

    def test_single_cell_grid_equals_point_evaluation(self):
        grid = sweep(Scenario.named("lamp-center"), (9.0,), (1e-5,))
        point = evaluate_point(Scenario.named("lamp-center"), 9.0, 1e-5)
        assert grid.points[0][0].report.rate == point.report.rate

    def test_rate_non_increasing_along_source_axis(self):
        levels = (1e-7, 1e-6, 1e-5, 1e-4)
        grid = sweep(Scenario.named("lamp-center"), (8.0,), levels)
        rates = [p.report.rate for p in grid.points[0]]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(Scenario.named("lamp-center"), (), (1e-5,))


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
        tol = ambient_tolerance(Scenario.named("ambient-only-center"))
        secure = evaluate_point(Scenario.named("ambient-only-center"), 10.0, tol * 0.9)
        blinded = evaluate_point(Scenario.named("ambient-only-center"), 10.0, tol * 10.0)
        assert secure.report.secure
        assert not blinded.report.secure

    def test_capped_tolerance_is_verified_secure(self):
        # so narrow a filter leaves 100 W/nm/m^2 secure; the search stops
        # there and must return that checked level, not the next decade
        scenario = Scenario.named("ambient-only-center", {"filter_bandwidth_nm": 1e-12})
        tol = ambient_tolerance(scenario)
        assert evaluate_point(scenario, 10.0, tol).report.rate > 0.0

    def test_fractional_fov_floor_never_probes_below_it(self):
        scenario = Scenario.named("ambient-only-center")
        tol = ambient_tolerance(scenario, fov_floor_deg=0.5, fov_ceiling_deg=3.0)
        assert evaluate_point(scenario, 0.5, tol).report.secure


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
