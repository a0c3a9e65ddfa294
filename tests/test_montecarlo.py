"""Ray-sampling and closed-form cross-checks of the deterministic bounce integral."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import pytest

from indoorqkd import montecarlo
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.channel import total_reflected_gain
from indoorqkd.geometry import Point3, Pose
from indoorqkd.montecarlo import estimate_reflected_gain, floor_cone_closed_form


def room_at(fov_deg):
    return build_setup(Scenario.named("lamp-center"), fov_deg, 1e-5).room


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        room = room_at(20.0)
        a = estimate_reflected_gain(room, samples=50_000, seed=3)
        b = estimate_reflected_gain(room, samples=50_000, seed=3)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_different_seed_different_estimate(self):
        room = room_at(20.0)
        a = estimate_reflected_gain(room, samples=50_000, seed=3)
        b = estimate_reflected_gain(room, samples=50_000, seed=4)
        assert a.value != b.value

    def test_sample_count_recorded(self):
        est = estimate_reflected_gain(room_at(20.0), samples=10_000, seed=0)
        assert est.samples == 10_000
        assert est.std_error > 0.0


class TestAgreementWithPatchSum:
    @pytest.mark.parametrize("fov", [15.0, 30.0])
    def test_within_sampling_error_band(self, fov):
        room = room_at(fov)
        deterministic = total_reflected_gain(room, 10)
        est = estimate_reflected_gain(room, samples=400_000, seed=11)
        # five standard errors: a real disagreement, not sampling luck
        assert abs(est.value - deterministic) < 5.0 * est.std_error

    def test_estimate_scales_with_reflectivity(self):
        room = room_at(30.0)
        darker = replace(room, floor_reflectivity=0.05)
        bright = estimate_reflected_gain(room, samples=200_000, seed=5)
        dark = estimate_reflected_gain(darker, samples=200_000, seed=5)
        # cone sees only floor at 30 degrees: halving reflectivity halves it
        assert dark.value == pytest.approx(bright.value / 2.0, rel=1e-9)


class TestFloorConeClosedForm:
    def test_independent_of_the_channel_module(self):
        tree = ast.parse(Path(montecarlo.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert "geometry" in imported
        assert not any("channel" in name for name in imported)

    def test_hand_value_at_twenty_degrees(self):
        # m1 for a 70 degree semi-angle, Z = 3 m, the nominal receiver
        m1 = -math.log(2.0) / math.log(math.cos(math.radians(70.0)))
        fov, k = math.radians(20.0), m1 + 5.0
        expected = (
            1e-4 * (m1 + 1.0) * 0.1 * 1.5**2 * (1.0 - math.cos(fov) ** k)
            / (math.pi * 9.0 * k * math.sin(fov) ** 2)
        )
        assert floor_cone_closed_form(room_at(20.0)) == pytest.approx(expected, rel=1e-12)

    def test_none_once_the_cone_reaches_the_walls(self):
        # 3 m * tan(fov) passes the 2 m to the nearest wall at 33.7 degrees
        assert floor_cone_closed_form(room_at(33.0)) is not None
        assert floor_cone_closed_form(room_at(34.0)) is None

    def test_none_for_a_lamp_beside_the_receiver(self):
        room = room_at(20.0)
        moved = replace(room, lamp=Pose(Point3(1.0, 2.0, 3.0), room.lamp.axis))
        assert floor_cone_closed_form(moved) is None


class TestArguments:
    @pytest.mark.parametrize("name, value", [
        ("chunk_size", 0), ("chunk_size", -1), ("chunk_size", 2.5),
        ("samples", 0), ("samples", -3), ("samples", 1e6),
    ])
    def test_non_positive_or_non_integer_counts_rejected(self, name, value):
        kwargs = {"samples": 10, "chunk_size": 4, name: value}
        with pytest.raises(ValueError, match=name):
            estimate_reflected_gain(room_at(20.0), **kwargs)


def pinned_room(kind, fov):
    if kind == "steered-tilted":
        room = build_setup(Scenario.named("lamp-corner-steered"), fov, 1e-5).room
        return replace(room, receiver=Pose.aimed_at(room.receiver.position, room.transmitter.position))
    overrides = {
        "center": {},
        "offset-lamp": {"lamp_x_m": 1.0, "lamp_y_m": 2.5},
        "wall-lamp": {"lamp_x_m": 0.0},  # on the x = 0 plane
        "reflectivities": {"wall_reflectivity": 0.7, "floor_reflectivity": 0.13},
    }
    return build_setup(Scenario.named("lamp-center", overrides[kind]), fov, 1e-5).room


# (value, std_error) of estimate_reflected_gain(pinned_room(kind, fov),
# samples, seed, chunk_size) as computed by the five-plane-pass sampler that
# preceded the slab pass.  A ray whose hit surface or cone test flips moves
# an estimate by far more than 1e-12.
PINNED_ESTIMATES = {
    ('center', 5.0, 500000, 7, 2000000): (6.520139143669395e-07, 1.1606646681620362e-08),
    ('center', 11.0, 500000, 7, 2000000): (6.258864941820381e-07, 5.059912857220041e-09),
    ('center', 30.0, 500000, 7, 2000000): (5.142688205806483e-07, 1.4330764517245573e-09),
    ('center', 60.0, 500000, 7, 2000000): (1.49739886037122e-06, 2.316993681428602e-09),
    ('center', 90.0, 500000, 7, 2000000): (1.8672014532882845e-06, 1.6347768984794365e-09),
    ('offset-lamp', 45.0, 500000, 7, 2000000): (7.41579044697611e-07, 1.8795279231912176e-09),
    ('wall-lamp', 60.0, 500000, 7, 2000000): (7.536119799084027e-07, 1.6643718065507817e-09),
    ('steered-tilted', 30.0, 500000, 7, 2000000): (1.7982118745204887e-06, 7.161175838136634e-09),
    ('reflectivities', 60.0, 500000, 7, 2000000): (1.5631851797576052e-06, 2.27979294548171e-09),
    ('center', 15.0, 400000, 11, 2000000): (6.19426115926662e-07, 4.031500506266768e-09),
    ('center', 20.0, 700001, 11, 300007): (5.88976906948722e-07, 2.146890118360975e-09),
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("kind, fov, samples, seed, chunk_size", sorted(PINNED_ESTIMATES, key=str))
    def test_estimate_unchanged(self, kind, fov, samples, seed, chunk_size):
        est = estimate_reflected_gain(pinned_room(kind, fov), samples=samples, seed=seed, chunk_size=chunk_size)
        value, std_error = PINNED_ESTIMATES[(kind, fov, samples, seed, chunk_size)]
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)
