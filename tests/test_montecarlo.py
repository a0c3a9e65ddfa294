"""Ray-sampling and closed-form cross-checks of the deterministic bounce integral."""

import ast
import json
import math
import os
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
# samples, seed) with montecarlo._CHUNK set to chunk_size.  The first
# eleven were computed by the five-plane-pass sampler that preceded the slab
# pass; the tilted lamps and the chunk of 3,001 rays (below the block size,
# not dividing the samples) by the chunk-array sampler that preceded the
# streaming one.  A ray whose hit surface or cone test flips moves an
# estimate by far more than 1e-12.
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
    ('lamp-tilted-xz', 30.0, 500000, 7, 2000000): (4.843803067488717e-07, 1.4023399134694008e-09),
    ('lamp-tilted-yz', 60.0, 500000, 7, 2000000): (1.182214788757559e-06, 2.2147539290048934e-09),
    ('center', 20.0, 200000, 5, 3001): (5.959148663927163e-07, 4.036465437184083e-09),
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("kind, fov, samples, seed, chunk_size", sorted(PINNED_ESTIMATES, key=str))
    def test_estimate_unchanged(self, monkeypatch, kind, fov, samples, seed, chunk_size):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
        est = estimate_reflected_gain(pinned_room(kind, fov), samples=samples, seed=seed)
        value, std_error = PINNED_ESTIMATES[(kind, fov, samples, seed, chunk_size)]
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


# (value, std_error) of estimate_reflected_gain(pinned_room(kind, fov),
# samples, seed) as the uint64 bits of the two floats, recorded by the
# sampler that traced every ray before the cone bound skipped any.  The
# rooms span the bound's cases: floor-only cones, a lamp 0.7 m from the
# receiver (the asin term) and axes that differ (the axis angle), where it
# skips rays; a receiver on a wall, a 2 degree lamp whose threshold
# underflows and a 90 degree cone, where it skips none; and rooms 1e-3 m
# and 1e6 m wide.  The last six were recorded by the sampler that bounded
# with the threshold alone, before the sector table and the packed batches:
# five rooms where the table drops rays the threshold keeps, and a cone
# that meets a wall 0.4 m from the receiver, whose threshold takes s_min
# from that wall.
EXACT_BITS = {
    ('center', 5.0, 300000, 19): (0x3ea5ccfd1af1ba15, 0x3e500f879bf0fcc3),
    ('center', 10.0, 300000, 19): (0x3ea5b10bf0c4eb3d, 0x3e3f7f33ba51109a),
    ('center', 30.0, 300000, 19): (0x3ea144c345cb6020, 0x3e1fd2f984eea46a),
    ('lamp-1.3', 10.0, 300000, 19): (0x3ea366e80b09af9d, 0x3e3dd57b353a6dc3),
    ('lamp-1.3', 55.0, 300000, 19): (0x3eb4e2166371a658, 0x3e2976ac199af160),
    ('wall-receiver', 30.0, 300000, 19): (0x3e8c76a54694963c, 0x3e1581d5de1bb4a5),
    ('narrow-lamp', 60.0, 300000, 19): (0x3eb1bd1ee6ddf247, 0x3d9dc5d8d7a953b0),
    ('center', 90.0, 300000, 19): (0x3ebf5d3f777e5107, 0x3e221ef31795f60d),
    ('mm-room', 20.0, 300000, 19): (0x40152466fb00bfe6, 0x3f9e2f1fdb82beea),
    ('wide-room', 20.0, 300000, 19): (0x3ea3b4b97c2f3141, 0x3e2c2233b5b30f5d),
    ('steered-tilted', 10.0, 300000, 19): (0x3eb296d3aea7f540, 0x3e514bc034808ea5),
    ('lamp-tilted-xz', 15.0, 300000, 19): (0x3ea3289fc97d21e0, 0x3e333d4b57b3f4fd),
    ('lamp-1.3', 7.0, 300000, 19): (0x3ea3b239ebf877a1, 0x3e45b43220233543),
    ('lamp-1.3', 15.0, 300000, 19): (0x3ea2ccb934a38d07, 0x3e3311b33b735a10),
    ('steered-tilted', 20.0, 300000, 19): (0x3eb8d730b882b471, 0x3e47ec6c10169cf6),
    ('tilted-receiver', 10.0, 300000, 19): (0x3ea3ce05688397a3, 0x3e3b4f0facb3b740),
    ('near-wall-receiver', 5.0, 300000, 19): (0x3ea5eb291d8c6de0, 0x3e501ab4d3c91799),
    ('near-wall-receiver', 20.0, 300000, 19): (0x3eb4b974ac9b175b, 0x3e48dd9275e14c27),
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


class TestConeBound:
    @pytest.mark.parametrize("room, samples, seed, chunk_size", [
        *(pytest.param(pinned_room(kind, fov), samples, seed, 2_000_000, id=f"{kind}-{fov}-{samples}-{seed}")
          for kind, fov, samples, seed in sorted(EXACT_BITS, key=str)),
        *(pytest.param(pinned_room(kind, fov), samples, seed, chunk, id=f"{kind}-{fov}-{samples}-{seed}-{chunk}")
          for kind, fov, samples, seed, chunk in sorted(PINNED_ESTIMATES, key=str)),
        *(pytest.param(room, 200_000, 3, 70_001, id=f"random-{i}") for i, room in enumerate(RANDOM_ROOMS)),
    ])
    def test_no_bound_gives_the_same_bits(self, monkeypatch, room, samples, seed, chunk_size):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
        bounded = estimate_bits(room, samples, seed)
        monkeypatch.setattr(montecarlo, "_cone_threshold", lambda scene, m1: 0.0)
        assert estimate_bits(room, samples, seed) == bounded

    def test_random_rooms_mostly_bound_their_rays(self):
        thresholds = [threshold(room) for room in RANDOM_ROOMS]
        assert sum(u > 0.0 for u in thresholds) >= 8, thresholds

    @pytest.mark.parametrize("room, banded", [
        *(pytest.param(pinned_room(kind, fov), banded, id=f"{kind}-{fov}") for kind, fov, banded in (
            ("center", 5.0, False), ("center", 30.0, False), ("lamp-1.3", 10.0, True), ("lamp-1.3", 55.0, False),
            ("steered-tilted", 10.0, True), ("steered-tilted", 40.0, False), ("lamp-tilted-xz", 15.0, True),
            ("lamp-tilted-yz", 30.0, True), ("mm-room", 20.0, False), ("wide-room", 20.0, False),
            ("tilted-receiver", 10.0, True), ("near-wall-receiver", 5.0, True), ("near-wall-receiver", 20.0, False),
        )),
        *(pytest.param(room, banded, id=f"random-{i}")
          for i, (room, banded) in enumerate(zip(RANDOM_ROOMS[:6], (True, False, False, True, True, False)))),
    ])
    def test_no_ray_below_the_threshold_lands_in_the_cone(self, monkeypatch, room, banded):
        # Trace 1e6 rays unfiltered, passing on only those the bounds drop:
        # those whose draw lies below the threshold, and those above it but
        # outside their azimuth sector's band.  Each gives a positive
        # contribution if it lands in the cone, so the estimate over them is
        # exactly 0 if none does.
        u_min = threshold(room)
        assert u_min > 0.0
        m1 = montecarlo.lambert_mode(room.lamp_semi_angle_deg)
        bands = montecarlo._sector_bands(montecarlo._Scene(room, m1), m1, u_min)
        assert (bands is not None) == banded
        samples = 1_000_000
        assert estimate_reflected_gain(room, samples=samples, seed=5).value > 0.0
        drawn = montecarlo._uniform_blocks
        below, outside = [], []

        def blocks_dropped(seed, samples):
            for cos_draws, azim_draws in drawn(seed, samples):
                dropped = cos_draws < u_min
                below.append(np.count_nonzero(dropped))
                if bands is not None:
                    sector = (azim_draws * montecarlo._SECTORS).astype(np.intp)
                    out_of_band = ~dropped & ((cos_draws < bands[0][sector]) | (cos_draws > bands[1][sector]))
                    outside.append(np.count_nonzero(out_of_band))
                    dropped |= out_of_band
                yield cos_draws[dropped], azim_draws[dropped]

        monkeypatch.setattr(montecarlo, "_uniform_blocks", blocks_dropped)
        monkeypatch.setattr(montecarlo, "_cone_threshold", lambda scene, m1: 0.0)
        assert estimate_reflected_gain(room, samples=samples, seed=5).value == 0.0
        assert sum(below) > 0
        assert sum(outside) > 0 or not banded

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
    @pytest.mark.parametrize("samples, chunk_size", [
        (20_000, 2_000_000), (3 * montecarlo._BLOCK, 2_000_000), (50_001, 20_000), (10_007, 3_001), (5, 2),
    ])
    def test_blocks_read_the_chunked_draws(self, monkeypatch, samples, chunk_size):
        # each chunk of n rays draws n cos(phi) uniforms, then n azimuth
        # uniforms; a later chunk starts where the one before left the stream
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
        rng = np.random.default_rng(29)
        expected = []
        for start in range(0, samples, chunk_size):
            n = min(chunk_size, samples - start)
            expected.append((rng.random(n), rng.random(n)))
        blocks = [(c.copy(), a.copy()) for c, a in montecarlo._uniform_blocks(29, samples)]
        assert all(c.size == a.size <= montecarlo._BLOCK for c, a in blocks)
        for read, drawn in zip(zip(*blocks), zip(*expected)):
            assert np.array_equal(np.concatenate(read), np.concatenate(drawn))

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

    def test_peak_memory_does_not_grow_with_samples_or_chunk(self, monkeypatch):
        room = room_at(30.0)
        estimate_reflected_gain(room, samples=1_000, seed=1)  # one-off allocations of a first call
        peaks = {}
        for samples, chunk_size in ((1_000_000, 2_000_000), (1_000_000, 1_000_000), (100_000, 2_000_000), (2_000_000, 700_001)):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
            tracemalloc.start()
            try:
                estimate_reflected_gain(room, samples=samples, seed=1)
                peaks[samples, chunk_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a few dozen block temporaries, the same for every call; one array of 1e6 rays is 8 MB
        assert max(peaks.values()) < 4e6, peaks
        assert max(peaks.values()) < 1.5 * min(peaks.values()), peaks
