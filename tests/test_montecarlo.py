"""Ray-sampling and closed-form cross-checks of the deterministic bounce integral."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
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

    def test_the_names_it_takes_from_the_package_are_named_in_its_texts(self):
        # the oracle's claim to check the quadrature rests on what the two share: the room
        # type, the Lambert mode and the two frame helpers the receiver view uses too
        tree = ast.parse(Path(montecarlo.__file__).read_text())
        taken = {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("indoorqkd"))
            for alias in node.names
        }
        assert taken == {("geometry", "RoomScenario"), ("geometry", "lambert_mode"), ("geometry", "_frame"), ("geometry", "_cross"), ("geometry", "_count")}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for name in "_frame", "_cross":
            assert f"``geometry.{name}``" in montecarlo.__doc__ and f"`geometry.{name}`" in readme

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
        ("samples", 0), ("samples", -3), ("samples", 1e6),
        # None would draw an estimate no call repeats
        ("seed", -1), ("seed", 1.5), ("seed", "a"), ("seed", None),
        # past Python's int-to-text limit, so the message cannot echo its digits
        pytest.param("seed", -10**5000, id="seed-an-int-of-16610-bits"),
    ])
    def test_non_positive_or_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            estimate_reflected_gain(room_at(20.0), **{"samples": 3, name: value})

    @pytest.mark.parametrize("samples, shown", [(2**63, str(2**63)), (np.uint64(2**64 - 1), f"np.uint64({2**64 - 1})"), (10**400, str(10**400))])
    def test_counts_past_the_most_rejected(self, samples, shown):
        # numpy's multinomial reads the count as a 64-bit int; 10**400 once ran without end
        message = f"samples must be an integer <= 9,223,372,036,854,775,807, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_reflected_gain(room_at(20.0), samples)

    @pytest.mark.parametrize("samples", [3, 20_000])
    def test_numpy_integer_counts_give_the_int_estimate(self, samples):
        expected = estimate_reflected_gain(room_at(20.0), samples, seed=11)
        for count in np.int64(samples), np.uint32(samples):
            assert estimate_reflected_gain(room_at(20.0), count, seed=11) == expected
            assert estimate_reflected_gain(room_at(20.0), samples, seed=type(count)(11)) == expected


# The lamp tilted 25 degrees towards +x, and 40 degrees towards -y.
TILTED_LAMP_AXES = {
    "lamp-tilted-xz": Point3(math.sin(math.radians(25.0)), 0.0, -math.cos(math.radians(25.0))),
    "lamp-tilted-yz": Point3(0.0, -math.sin(math.radians(40.0)), -math.cos(math.radians(40.0))),
}


def pinned_room(kind, fov):
    if kind == "steered-tilted":
        room = build_setup(Scenario.named("lamp-corner-steered"), fov, 1e-5).room
        return replace(room, receiver=Pose.aimed_at(room.receiver.position, room.transmitter.position))
    if kind in TILTED_LAMP_AXES:  # a lamp frame with some zero components
        room = build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
        return replace(room, lamp=Pose(room.lamp.position, TILTED_LAMP_AXES[kind]))
    if kind == "wall-receiver":  # on the x = 0 plane, so no reflecting plane is any distance from it
        room = build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
        return replace(room, receiver=Pose(Point3(0.0, 2.0, 3.0), room.receiver.axis))
    if kind == "tilted-receiver":  # the lamp 0.7 m off, the receiver tilted 20 degrees towards it and 10 across
        room = build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), fov, 1e-5).room
        return replace(room, receiver=Pose(room.receiver.position, Point3(-0.34, 0.17, -1.0).normalized()))
    if kind == "near-wall-receiver":  # 0.4 m from the x = 0 wall, the lamp 0.2 m off along it
        room = build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
        return replace(room, receiver=Pose(Point3(0.4, 2.0, 3.0), room.receiver.axis), lamp=Pose(Point3(0.4, 2.2, 3.0), room.lamp.axis))
    overrides = {
        "center": {},
        "offset-lamp": {"lamp_x_m": 1.0, "lamp_y_m": 2.5},
        "lamp-1.3": {"lamp_x_m": 1.3},  # 0.7 m from the receiver, 2 m from the nearest wall
        "wall-lamp": {"lamp_x_m": 0.0},  # on the x = 0 plane
        "reflectivities": {"wall_reflectivity": 0.7, "floor_reflectivity": 0.13},
        "narrow-lamp": {"lamp_semi_angle_deg": 2.0},
        "mm-room": {"room_x_m": 1e-3, "room_y_m": 1e-3, "room_z_m": 1e-3},
        "wide-room": {"room_x_m": 1e6, "room_y_m": 1e6},
    }
    return build_setup(Scenario.named("lamp-center", overrides[kind]), fov, 1e-5).room


# (value, std_error) of estimate_reflected_gain(pinned_room(kind, fov),
# samples, seed), recorded by the sampler that draws each cell's ray count
# in one multinomial and then only the rays in the cells.  The rooms are
# those that pinned the earlier samplers, odd counts among them.  A ray
# whose hit surface or cone test flips moves an estimate by far more than
# 1e-12.
PINNED_ESTIMATES = {
    ('center', 5.0, 500000, 7): (6.489874968630166e-07, 1.1580677831623573e-08),
    ('center', 11.0, 500000, 7): (6.327989422518974e-07, 5.08745435561325e-09),
    ('center', 30.0, 500000, 7): (5.159088499069053e-07, 1.435770257238462e-09),
    ('center', 60.0, 500000, 7): (1.5003232270227572e-06, 2.3197397557906092e-09),
    ('center', 90.0, 500000, 7): (1.8692935682000387e-06, 1.6338446866555632e-09),
    ('offset-lamp', 45.0, 500000, 7): (7.404105887006776e-07, 1.8784246324249213e-09),
    ('wall-lamp', 60.0, 500000, 7): (7.576490767375023e-07, 1.6722920339425134e-09),
    ('steered-tilted', 30.0, 500000, 7): (1.7971028903342953e-06, 7.166761009546824e-09),
    ('reflectivities', 60.0, 500000, 7): (1.5659835843476002e-06, 2.2825109076901287e-09),
    ('center', 15.0, 400000, 11): (6.127241625165689e-07, 4.011075894739382e-09),
    ('center', 20.0, 700001, 11): (5.857849215148978e-07, 2.14144355720618e-09),
    ('lamp-tilted-xz', 30.0, 500000, 7): (4.846741806879723e-07, 1.4031732726231129e-09),
    ('lamp-tilted-yz', 60.0, 500000, 7): (1.1848677016326052e-06, 2.219671766759354e-09),
    ('center', 20.0, 200000, 5): (5.904982600828317e-07, 4.019911338556424e-09),
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("kind, fov, samples, seed", sorted(PINNED_ESTIMATES, key=str))
    def test_estimate_unchanged(self, kind, fov, samples, seed):
        est = estimate_reflected_gain(pinned_room(kind, fov), samples=samples, seed=seed)
        value, std_error = PINNED_ESTIMATES[(kind, fov, samples, seed)]
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


# (value, std_error) of estimate_reflected_gain(pinned_room(kind, fov),
# samples, seed) as the uint64 bits of the two floats, recorded by the
# sampler that draws only the rays in the cells and takes each azimuth
# from one tan and each cos(phi) from exp and log.  The rooms span the
# bounds' cases: floor-only cones, a lamp 0.7 m from the receiver (the
# asin term) and axes that differ (the axis angle), where the threshold
# drops rays; a receiver on a wall, a 2 degree lamp whose threshold
# underflows and a 90 degree cone, where it drops none; rooms 1e-3 m and
# 1e6 m wide; five rooms where the sector table drops rays the threshold
# keeps; and a cone that meets a wall 0.4 m from the receiver, whose
# threshold takes s_min from that wall.
EXACT_BITS = {
    ('center', 5.0, 300000, 19): (0x3ea5717693fad4f3, 0x3e4fdc543e44a72b),
    ('center', 10.0, 300000, 19): (0x3ea52e7d97cab587, 0x3e3f22c48928e3b5),
    ('center', 30.0, 300000, 19): (0x3ea1444ad586938b, 0x3e1fd0f0b9e6c8e7),
    ('lamp-1.3', 10.0, 300000, 19): (0x3ea338d1706e5efc, 0x3e3db2471a7c98ca),
    ('lamp-1.3', 55.0, 300000, 19): (0x3eb4dd55ff84b6b1, 0x3e296fd9aba21a27),
    ('wall-receiver', 30.0, 300000, 19): (0x3e8cf4f8a92344a1, 0x3e15b2c6a027cd33),
    ('narrow-lamp', 60.0, 300000, 19): (0x3eb1bd198e2b2f8a, 0x3d9de8f7112f89cf),
    ('center', 90.0, 300000, 19): (0x3ebf4aaacbc29723, 0x3e222261fc9430c5),
    ('mm-room', 20.0, 300000, 19): (0x40150c54353f59e1, 0x3f9e1ed956216728),
    ('wide-room', 20.0, 300000, 19): (0x3ea39e48f4db9bbc, 0x3e2c1307acc6af72),
    ('steered-tilted', 10.0, 300000, 19): (0x3eb28b0611106c2d, 0x3e513c93b0153bd6),
    ('lamp-tilted-xz', 15.0, 300000, 19): (0x3ea3570d60e4f821, 0x3e3353f3881e8131),
    ('lamp-1.3', 7.0, 300000, 19): (0x3ea383d754deeaa9, 0x3e459b21e72643fc),
    ('lamp-1.3', 15.0, 300000, 19): (0x3ea2db4d289cb582, 0x3e3317f81f7ae0a4),
    ('steered-tilted', 20.0, 300000, 19): (0x3eb8fb86cf16a558, 0x3e480bfbf6e9051f),
    ('tilted-receiver', 10.0, 300000, 19): (0x3ea390c916439524, 0x3e3b2428b053e64e),
    ('near-wall-receiver', 5.0, 300000, 19): (0x3ea5a48984d0da5b, 0x3e5001260900e2ec),
    ('near-wall-receiver', 20.0, 300000, 19): (0x3eb448f5404c4419, 0x3e484fef1d1b33fe),
}


def float_bits(x):
    return int(np.float64(x).view(np.uint64))


def threshold(room):
    m1 = montecarlo.lambert_mode(room.lamp_semi_angle_deg)
    return montecarlo._cone_threshold(montecarlo._Scene(room, m1), m1)


def estimate_bits(room, samples, seed):
    est = estimate_reflected_gain(room, samples=samples, seed=seed)
    return float_bits(est.value), float_bits(est.std_error)


class TestExactBits:
    @pytest.mark.parametrize("kind, fov, samples, seed", sorted(EXACT_BITS, key=str))
    def test_estimate_bits_unchanged(self, kind, fov, samples, seed):
        assert estimate_bits(pinned_room(kind, fov), samples, seed) == EXACT_BITS[kind, fov, samples, seed]

    @pytest.mark.parametrize("kind, fov, bounded", [
        ("center", 5.0, True), ("lamp-1.3", 55.0, True), ("steered-tilted", 10.0, True),
        ("mm-room", 20.0, True), ("wide-room", 20.0, True),
        ("wall-receiver", 30.0, False), ("narrow-lamp", 60.0, False), ("center", 90.0, False),
    ])
    def test_pinned_rooms_cover_both_sides_of_the_bound(self, kind, fov, bounded):
        room = pinned_room(kind, fov)
        assert (threshold(room) > 0.0) == bounded


def random_rooms(count, seed):
    """Rooms from 1e-2 to 1e2 m with the lamp near the receiver and both axes tilted, so most bound their rays."""
    rng = np.random.default_rng(seed)
    base = room_at(20.0)
    rooms = []
    for _ in range(count):
        x, y, z = 10.0 ** rng.uniform(-2.0, 2.0, 3)
        receiver = Point3(x * rng.uniform(0.2, 0.8), y * rng.uniform(0.2, 0.8), z * rng.uniform(0.5, 1.0))
        reach = min(receiver.x, x - receiver.x, receiver.y, y - receiver.y, receiver.z)
        offset = reach * rng.uniform(0.0, 0.6) * rng.standard_normal(3) / math.sqrt(3.0)
        lamp = Point3(*np.clip(np.array(receiver.as_tuple()) + offset, 0.0, (x, y, z)))
        lamp_axis, receiver_axis = (Point3(*rng.uniform(-0.3, 0.3, 2), -1.0).normalized() for _ in range(2))
        rooms.append(replace(
            base, room_x_m=x, room_y_m=y, room_z_m=z,
            lamp=Pose(lamp, lamp_axis), receiver=Pose(receiver, receiver_axis),
            transmitter=Pose(Point3(x / 2.0, y / 2.0, 0.0), base.transmitter.axis),
            fov_deg=float(rng.uniform(1.0, 45.0)), lamp_semi_angle_deg=float(rng.uniform(5.0, 85.0)),
        ))
    return rooms


RANDOM_ROOMS = random_rooms(12, seed=2024)


def cells(room):
    m1 = montecarlo.lambert_mode(room.lamp_semi_angle_deg)
    return montecarlo._cells(montecarlo._Scene(room, m1), m1)


def in_cell(cell, u, v):
    """Whether each (u, v) pair lies in the cell, as the sampler's map u_lo + w u_width (w in [0, 1)) can place it."""
    u_lo, u_width, v_lo, v_width = cell
    return (u >= u_lo) & (u <= u_lo + u_width) & (v >= v_lo) & (v <= v_lo + v_width)


def sector_bounds(table):
    """Per azimuth sector, the (lo, hi) of the cos(phi) draws in its cell, (inf, -inf) where none; each cell spans whole sectors."""
    lo, hi = np.full(montecarlo._SECTORS, np.inf), np.full(montecarlo._SECTORS, -np.inf)
    for u_lo, u_width, v_lo, v_width in table:
        sectors = slice(round(v_lo * montecarlo._SECTORS), round((v_lo + v_width) * montecarlo._SECTORS))
        lo[sectors], hi[sectors] = u_lo, u_lo + u_width
    return lo, hi


# Every case that pinned an estimate, and rooms of random shapes.
BOUND_CASES = [
    *(pytest.param(pinned_room(kind, fov), samples, seed, id=f"{kind}-{fov}-{samples}-{seed}")
      for kind, fov, samples, seed in sorted(EXACT_BITS, key=str)),
    *(pytest.param(pinned_room(kind, fov), samples, seed, id=f"pinned-{kind}-{fov}-{samples}-{seed}")
      for kind, fov, samples, seed in sorted(PINNED_ESTIMATES, key=str)),
    *(pytest.param(room, 200_000, 3, id=f"random-{i}") for i, room in enumerate(RANDOM_ROOMS)),
]
# Rooms whose threshold drops rays, with whether a sector table drops more.
THRESHOLD_ROOMS = [
    *(pytest.param(pinned_room(kind, fov), 1_000_000, 5, banded, id=f"{kind}-{fov}-banded-{banded}") for kind, fov, banded in (
        ("center", 5.0, False), ("center", 30.0, False), ("lamp-1.3", 10.0, True), ("lamp-1.3", 55.0, False),
        ("steered-tilted", 10.0, True), ("steered-tilted", 40.0, False), ("lamp-tilted-xz", 15.0, True),
        ("lamp-tilted-yz", 30.0, True), ("mm-room", 20.0, False), ("wide-room", 20.0, False),
        ("tilted-receiver", 10.0, True), ("near-wall-receiver", 5.0, True), ("near-wall-receiver", 20.0, False),
    )),
    *(pytest.param(room, 1_000_000, 5, banded, id=f"random-{i}-banded-{banded}")
      for i, (room, banded) in enumerate(zip(RANDOM_ROOMS[:6], (True, False, False, True, True, False)))),
]


class TestConeBound:
    @pytest.mark.parametrize("room, samples, seed, banded", [
        *(pytest.param(*case.values, None, id=case.id) for case in BOUND_CASES), *THRESHOLD_ROOMS,
    ])
    def test_no_ray_outside_the_cells_lands_in_the_cone(self, room, samples, seed, banded):
        # Draw as many uniform (u, v) pairs as the case's estimate stands
        # for and trace those in no cell: each would give a positive
        # contribution if it landed in the cone, and the sampler never
        # draws them.
        table, u_min = cells(room), threshold(room)
        m1 = montecarlo.lambert_mode(room.lamp_semi_angle_deg)
        scene = montecarlo._Scene(room, m1)
        rng = np.random.default_rng(seed)
        lo, hi = sector_bounds(table)
        chunk = 1 << 16
        work = np.empty((montecarlo._WORK_ROWS, chunk))
        below = outside = landed = 0
        for start in range(0, samples, chunk):
            u, v = rng.random((2, min(chunk, samples - start)))
            sector = (v * montecarlo._SECTORS).astype(np.intp)
            out = (u < lo.take(sector)) | (u > hi.take(sector))
            below += np.count_nonzero(u < u_min)
            outside += np.count_nonzero(out & (u >= u_min))
            n = np.count_nonzero(out)
            work[0, :n], work[1, :n] = u[out], v[out]
            landed += montecarlo._trace(scene, work[:, :n])[0].size
        assert landed == 0
        if banded is not None:
            assert u_min > 0.0
            assert any(v_width < 1.0 for *_, v_width in table) == banded
            assert estimate_reflected_gain(room, samples=samples, seed=seed).value > 0.0
            assert below > 0
            assert outside > 0 or not banded

    @pytest.mark.parametrize("room, samples, seed", BOUND_CASES)
    def test_no_bound_agrees_within_five_standard_errors(self, monkeypatch, room, samples, seed):
        # with the threshold at 0 the one cell is the whole square, and every ray is drawn and traced
        bounded = estimate_reflected_gain(room, samples=samples, seed=seed)
        monkeypatch.setattr(montecarlo, "_cone_threshold", lambda scene, m1: 0.0)
        assert cells(room) == [(0.0, 1.0, 0.0, 1.0)]
        unbounded = estimate_reflected_gain(room, samples=samples, seed=seed)
        assert unbounded.samples == bounded.samples == samples
        assert abs(unbounded.value - bounded.value) <= 5.0 * math.hypot(unbounded.std_error, bounded.std_error)

    def test_random_rooms_mostly_bound_their_rays(self):
        thresholds = [threshold(room) for room in RANDOM_ROOMS]
        assert sum(u > 0.0 for u in thresholds) >= 8, thresholds

    @pytest.mark.parametrize("kind, fov, shape", [
        ("lamp-1.3", 10.0, "banded"), ("center", 5.0, "threshold-only"), ("center", 90.0, "unbounded"),
    ])
    def test_estimates_spread_as_their_standard_error_says(self, kind, fov, shape):
        room = pinned_room(kind, fov)
        table = cells(room)
        assert shape == ("unbounded" if table == [(0.0, 1.0, 0.0, 1.0)] else "threshold-only" if len(table) == 1 else "banded")
        estimates = [estimate_reflected_gain(room, samples=50_000, seed=seed) for seed in range(40)]
        spread = np.std([e.value for e in estimates], ddof=1)
        assert 0.7 <= spread / np.median([e.std_error for e in estimates]) <= 1.4

    @pytest.mark.parametrize("fov", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("offset", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("direction", [(-1.0, 0.0), (0.6, 0.8)])
    def test_traced_rays_at_most_twice_the_landed(self, monkeypatch, fov, offset, direction):
        # a down-facing receiver at the ceiling centre, the lamp beside it
        overrides = {"lamp_x_m": 2.0 + offset * direction[0], "lamp_y_m": 2.0 + offset * direction[1]}
        room = build_setup(Scenario.named("lamp-center", overrides), fov, 1e-5).room
        counts = {"traced": 0, "landed": 0}
        trace = montecarlo._trace

        def counting(scene, work):
            landed, contrib = trace(scene, work)
            counts["traced"] += work.shape[1]
            counts["landed"] += landed.size
            return landed, contrib

        monkeypatch.setattr(montecarlo, "_trace", counting)
        estimate_reflected_gain(room, samples=200_000, seed=13)
        assert counts["landed"] > 0
        assert counts["traced"] <= 2 * counts["landed"], counts


class TestStreamingKernel:
    @pytest.mark.parametrize("block", [montecarlo._BLOCK, 97])
    @pytest.mark.parametrize("samples", [5, 3 * montecarlo._BLOCK + 1, 20_000])
    @pytest.mark.parametrize("kind, fov", [("lamp-1.3", 10.0), ("center", 90.0)], ids=["banded", "unbounded"])
    def test_batches_hold_the_kept_rays_in_their_cells(self, monkeypatch, kind, fov, samples, block):
        # the multinomial's counts, drawn first from the seed's stream, are the rays traced,
        # cell after cell, in batches of up to the block (97 cuts the banded room's cells)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        room = pinned_room(kind, fov)
        table = cells(room)
        assert (len(table) > 1) == (kind == "lamp-1.3")
        shares = [u_width * v_width for _, u_width, _, v_width in table]
        counts = np.random.default_rng(29).multinomial(samples, [*shares, max(1.0 - sum(shares), 0.0)])[:-1]
        batches = []
        trace = montecarlo._trace

        def recording(scene, work):
            batches.append(work[:2].copy())
            return trace(scene, work)

        monkeypatch.setattr(montecarlo, "_trace", recording)
        estimate_reflected_gain(room, samples=samples, seed=29)
        assert all(batch.shape[1] == block for batch in batches[:-1])
        assert all(0 < batch.shape[1] <= block for batch in batches)
        u, v = np.concatenate(batches, axis=1) if batches else np.empty((2, 0))
        assert u.size == counts.sum()
        for cell, start, end in zip(table, np.cumsum(counts) - counts, np.cumsum(counts)):
            assert np.all(in_cell(cell, u[start:end], v[start:end]))

    def test_azimuth_agrees_with_cos_and_sin_of_two_pi_u(self):
        eighths = np.arange(8) / 8.0
        u = np.concatenate([
            np.random.default_rng(8).random(1_000_000),
            eighths, np.nextafter(eighths, 1.0), np.nextafter(eighths[1:], 0.0), [np.nextafter(1.0, 0.0)],
        ])
        cos_az, sin_az = montecarlo._unit_circle(u, np.empty((7, u.size)))
        # the components are at most 1, so an ulp of 1 bounds the error of both
        ulp = np.spacing(1.0)
        assert np.max(np.abs(cos_az - np.cos(2.0 * np.pi * u))) <= 4.0 * ulp
        assert np.max(np.abs(sin_az - np.sin(2.0 * np.pi * u))) <= 4.0 * ulp
        cos_zero, sin_zero = montecarlo._unit_circle(np.zeros(1), np.empty((7, 1)))
        assert (cos_zero[0], sin_zero[0]) == (1.0, 0.0)

    def test_landing_faces_give_the_where_formulas_bits(self):
        # Rays from a lamp at (1.5, 2.5, 3) in a 4 x 5 m room, each aimed at a
        # point whose planes lie at t = 1 exactly, so edges and corners tie.
        lamp, sides = np.array([1.5, 2.5, 3.0]), (4.0, 5.0)
        aimed = [  # (target point, the face the old formula picks)
            ((2.0, 3.0, 0.0), 0), ((0.0, 3.0, 1.0), 1), ((4.0, 2.0, 1.0), 2), ((1.0, 0.0, 2.0), 3), ((2.0, 5.0, 0.5), 4),
            ((0.0, 1.0, 0.0), 0), ((4.0, 3.0, 0.0), 0), ((1.0, 0.0, 0.0), 0), ((2.0, 5.0, 0.0), 0),  # floor-wall edges
            ((0.0, 0.0, 1.0), 1), ((0.0, 5.0, 2.0), 1), ((4.0, 0.0, 1.0), 2), ((4.0, 5.0, 2.0), 2),  # x-y corners
            ((0.0, 0.0, 0.0), 0), ((4.0, 5.0, 0.0), 0),  # floor corners
        ]
        directions = [np.array(target) - lamp for target, _ in aimed]
        signed_zeros = [  # directions with +-0 components
            ((0.0, -0.0, -1.0), 0), ((-0.0, 0.0, -1.0), 0), ((1.0, -0.0, -0.0), 2), ((-1.0, 0.0, 0.0), 1),
            ((-0.0, 1.0, -0.0), 4), ((0.0, -1.0, 0.0), 3), ((-0.0, -0.0, -2.0), 0),
        ]
        directions += [np.array(d) for d, _ in signed_zeros]
        rng = np.random.default_rng(53)
        directions += list(rng.standard_normal((500, 3)))
        d = np.array(directions).T
        with np.errstate(divide="ignore"):
            t_floor = np.where(np.signbit(d[2]), -lamp[2], math.inf) / d[2]
            t_x, t_y = (np.where(np.signbit(d[i]), -lamp[i], sides[i] - lamp[i]) / d[i] for i in (0, 1))
        t = np.minimum(np.minimum(t_floor, t_x), t_y)
        d2, cos_psi = rng.uniform(0.01, 9.0, t.size), rng.uniform(0.0, 1.0, t.size)
        weights = np.array([3.1e-7, 5.3e-6, 7.9e-6, 1.1e-5, 2.3e-6])
        # the sampler's formula before its faces were int8s in the work array
        face = np.where(t_floor == t, 0, np.where(t_x == t, 1 + (d[0] > 0.0), 3 + (d[1] > 0.0)))
        reference = weights.take(face) * cos_psi / (math.pi * d2 * d2 * d2)
        assert face[: len(aimed) + len(signed_zeros)].tolist() == [f for _, f in aimed + signed_zeros]
        assert set(face.tolist()) == {0, 1, 2, 3, 4}
        rows = [row.copy() for row in (t, t_floor, t_x, d[0], d[1], d2, cos_psi)]
        contrib = montecarlo._collect(weights, *rows, free=np.empty((2, t.size)))
        assert contrib.view(np.uint64).tolist() == reference.view(np.uint64).tolist()

    def test_a_second_call_faults_in_no_block_memory_after_a_lamp_map(self, tmp_path):
        # The trace's temporaries live in one array per call: none goes back
        # to the system after a batch, to be faulted in again by the next,
        # whatever heap a lamp map leaves behind.  A fresh process, so the
        # heap is the one the map leaves.
        script = (
            "import contextlib, io, json, resource, sys\n"
            "from indoorqkd.cli import main\n"
            "from indoorqkd.experiments import Scenario, build_setup\n"
            "from indoorqkd.montecarlo import estimate_reflected_gain\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main([sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "faults = {}\n"
            "for name, overrides, fov in (('offset-55', {'lamp_x_m': 1.3}, 55.0), ('floor-7', {}, 7.0), ('floor-20', {}, 20.0)):\n"
            "    room = build_setup(Scenario.named('lamp-center', overrides), fov, 1e-5).room\n"
            "    for call in range(2):\n"
            "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "        estimate_reflected_gain(room, samples=1_000_000, seed=7)\n"
            "        faults[name, call] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(json.dumps({f'{name} call {call}': count for (name, call), count in faults.items()}))\n"
        )
        config = tmp_path / "map.ini"
        config.write_text("[experiments]\nscenario = lamp-center\nfov_steps = 5\nsource_steps = 3\n")
        src = Path(montecarlo.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")], capture_output=True, text=True, env=env, check=True,
        )
        faults = json.loads(done.stdout)
        # a trace with a numpy temporary per step took about 615 on the 20 degree cone
        assert all(faults[f"{name} call 1"] <= 500 for name in ("offset-55", "floor-7", "floor-20")), faults

    def test_peak_memory_does_not_grow_with_samples(self):
        room = room_at(30.0)
        estimate_reflected_gain(room, samples=1_000, seed=1)  # one-off allocations of a first call
        peaks = {}
        for samples in (100_000, 1_000_000, 2_000_000):
            tracemalloc.start()
            try:
                estimate_reflected_gain(room, samples=samples, seed=1)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a few dozen batch temporaries, the same for every call; one array of 1e6 rays is 8 MB
        assert max(peaks.values()) < 4e6, peaks
        assert max(peaks.values()) < 1.5 * min(peaks.values()), peaks

    @pytest.mark.parametrize("overrides, fov", [({"lamp_x_m": 1.3}, 55.0), ({}, 20.0)], ids=["offset-55", "floor-20"])
    def test_peak_memory_is_the_work_array_and_two_rows(self, overrides, fov):
        # every batch temporary but the landed rays' indices lives in the work array
        room = build_setup(Scenario.named("lamp-center", overrides), fov, 1e-5).room
        estimate_reflected_gain(room, samples=1_000, seed=1)  # one-off allocations of a first call
        tracemalloc.start()
        try:
            estimate_reflected_gain(room, samples=1_000_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = montecarlo._BLOCK * np.dtype(np.float64).itemsize
        assert peak <= (montecarlo._WORK_ROWS + 2) * row, (peak, montecarlo._WORK_ROWS * row)
