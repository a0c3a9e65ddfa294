"""Seeded inputs for the benchmark workloads.

Nothing here imports indoorqkd: the generator only decides what a client
asks for, so the same seed gives the same ops whatever the library does.
Every op draws its own room (dimensions, reflectivities, lamp offset) from
the seed, so no op can be answered from another op's reflected-integral
cache.

Ops come in cycles of ``CYCLE_OPS`` ops.  The slot of an op in its cycle
fixes its kind (scenario, resolution, cone placement), so every cycle holds
the same mix of op kinds; only the rooms, and on ``lamp-map`` which kind
reads a spectrum file, differ between cycles.  A run is a whole number of
cycles, so every run holds the same mix.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

LAMP_SCENARIOS = ("lamp-center", "lamp-corner", "lamp-corner-steered")
AMBIENT_SCENARIOS = ("ambient-only-center", "ambient-only-corner")

# Source axes whose geometric middle puts the nominal room's secure-FOV
# frontier near 16 degrees, inside the 2-30 degree FOV axis.
LAMP_SOURCE_RANGE = {
    "lamp-center": (1e-7, 1e-4),
    "lamp-corner": (1e-8, 1e-5),
    "lamp-corner-steered": (1e-6, 1e-3),
}
AMBIENT_SOURCE_RANGE = {
    "ambient-only-center": (1e-9, 1e-5),
    "ambient-only-corner": (1e-10, 1e-6),
}
# Bundled spectra: (file name, kind, distance the irradiance was taken at).
SPECTRA = (
    ("cool_white_led.csv", "source-psd", 1.0),
    ("warm_white_led.csv", "source-psd", 1.0),
    ("cool_white_led_irradiance_50cm.csv", "irradiance", 0.5),
)
FOV_AXIS_DEG = (2.0, 30.0)
MC_RAYS = 1_000_000
MC_PATCHES_PER_METER = 40
MC_SMALL_RAYS = 20_000
AMBIENT_GRID_STEPS = 90
# Each cycle holds every kind twice, in antithetic rooms.  lamp-map: 3
# scenarios x 3 resolutions; the others: 2 scenarios (or cone placements).
CYCLE_OPS = {"lamp-map": 18, "ambient-map": 4, "mc-oracle": 4}
# The CLI's default resolution twice, a finer one once: with two groups of
# op times that far apart, an even split would put the median op between
# the groups, where it hangs on the one slowest and one fastest op.
LAMP_RESOLUTIONS = (10, 10, 20)


@dataclass(frozen=True)
class Room:
    x: float
    y: float
    z: float
    wall: float
    floor: float
    lamp_x: float | None  # None keeps the lamp at the ceiling center
    lamp_y: float | None

    def overrides(self) -> dict[str, float | None]:
        return {
            "room_x_m": self.x,
            "room_y_m": self.y,
            "room_z_m": self.z,
            "wall_reflectivity": self.wall,
            "floor_reflectivity": self.floor,
            "lamp_x_m": self.lamp_x,
            "lamp_y_m": self.lamp_y,
        }


@dataclass(frozen=True)
class MapOp:
    """One CLI run: an INI config plus the output checks it must pass."""

    index: int
    scenario: str
    room: Room
    source_min: float
    source_max: float
    source_steps: int
    fov_steps: int
    resolution: int
    spectrum: tuple[str, str, float] | None = None

    def ini(self, spectrum_path: str | None = None) -> str:
        """Config text; ``spectrum_path`` locates ``spectrum`` on disk."""
        room = {k: ("center" if v is None else repr(v)) for k, v in self.room.overrides().items()}
        lines = ["[geometry]"]
        lines += [f"{k} = {v}" for k, v in room.items()]
        lines += [
            "[experiments]",
            f"scenario = {self.scenario}",
            f"fov_min_deg = {FOV_AXIS_DEG[0]!r}",
            f"fov_max_deg = {FOV_AXIS_DEG[1]!r}",
            f"fov_steps = {self.fov_steps}",
            "fov_scale = linear",
            f"source_min = {self.source_min!r}",
            f"source_max = {self.source_max!r}",
            f"source_steps = {self.source_steps}",
            "source_scale = log",
            "[cli]",
            f"resolution_patches_per_meter = {self.resolution}",
        ]
        if self.spectrum is not None:
            _, kind, distance = self.spectrum
            lines += [
                "[noise]",
                f"lamp_spectrum_file = {spectrum_path}",
                f"lamp_spectrum_kind = {kind}",
                f"lamp_spectrum_distance_m = {distance!r}",
            ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class McOp:
    """One Monte-Carlo estimate of the bounce gain plus the patch sum."""

    index: int
    room: Room
    fov_deg: float
    mc_seed: int
    floor_only: bool  # lamp at the receiver, cone on floor only
    rays: int = MC_RAYS


class _Draws:
    """Uniform draws for one op.

    The two ops of one kind in a cycle share their random numbers
    antithetically: where one draws u the other draws 1 - u.  Such a pair
    holds one larger and one smaller room, which steadies per-run figures
    across seeds, and the two rooms still differ.
    """

    def __init__(self, seed: int, workload: str, index: int):
        kinds = CYCLE_OPS[workload] // 2
        self.cycle, slot = divmod(index, CYCLE_OPS[workload])
        self.kind = slot % kinds
        self.shared = random.Random(f"{seed}/{workload}/{self.cycle}/{self.kind}")
        self.mirror = slot >= kinds
        self.rng = random.Random(f"{seed}/{workload}/{index}")

    def uniform(self, lo: float, hi: float) -> float:
        u = self.shared.random()
        return lo + (hi - lo) * (1.0 - u if self.mirror else u)


def _room(rng: _Draws, lamp_offset: bool = True) -> Room:
    x = rng.uniform(3.5, 5.5)
    y = rng.uniform(3.5, 5.5)
    z = rng.uniform(2.5, 3.5)
    wall = rng.uniform(0.5, 0.85)
    floor = rng.uniform(0.05, 0.3)
    if lamp_offset:
        lamp_x = x / 2.0 + rng.uniform(-0.75, 0.75)
        lamp_y = y / 2.0 + rng.uniform(-0.75, 0.75)
    else:
        lamp_x = lamp_y = None
    return Room(x, y, z, wall, floor, lamp_x, lamp_y)


def _shifted(lo: float, hi: float, rng: _Draws) -> tuple[float, float]:
    factor = 10.0 ** rng.uniform(-0.3, 0.3)
    return lo * factor, hi * factor


def lamp_map_op(seed: int, index: int) -> MapOp:
    rng = _Draws(seed, "lamp-map", index)
    scenario = LAMP_SCENARIOS[rng.kind // len(LAMP_RESOLUTIONS)]
    lo, hi = _shifted(*LAMP_SOURCE_RANGE[scenario], rng)
    # One kind of each cycle reads a bundled spectrum; which one, and which
    # file, rotates from cycle to cycle.
    spectrum = SPECTRA[rng.cycle % len(SPECTRA)] if rng.kind == rng.cycle % (CYCLE_OPS["lamp-map"] // 2) else None
    return MapOp(
        index=index,
        scenario=scenario,
        room=_room(rng),
        source_min=lo,
        source_max=hi,
        source_steps=13,
        fov_steps=29,
        resolution=LAMP_RESOLUTIONS[rng.kind % len(LAMP_RESOLUTIONS)],
        spectrum=spectrum,
    )


def ambient_map_op(seed: int, index: int) -> MapOp:
    rng = _Draws(seed, "ambient-map", index)
    scenario = AMBIENT_SCENARIOS[rng.kind]
    lo, hi = _shifted(*AMBIENT_SOURCE_RANGE[scenario], rng)
    return MapOp(
        index=index,
        scenario=scenario,
        room=_room(rng),
        source_min=lo,
        source_max=hi,
        source_steps=AMBIENT_GRID_STEPS,
        fov_steps=AMBIENT_GRID_STEPS,
        resolution=10,
    )


def mc_oracle_op(seed: int, index: int) -> McOp:
    rng = _Draws(seed, "mc-oracle", index)
    floor_only = rng.kind == 0
    room = _room(rng, lamp_offset=not floor_only)
    if floor_only:
        # Widest cone from the ceiling center that still lands on the floor.
        edge = math.degrees(math.atan(min(room.x, room.y) / 2.0 / room.z))
        fov = rng.uniform(5.0, 0.95 * edge)
    else:
        fov = rng.uniform(5.0, 60.0)
    return McOp(
        index=index,
        room=room,
        fov_deg=fov,
        mc_seed=rng.rng.randrange(2**32),
        floor_only=floor_only,
    )


def small_op(workload: str, seed: int, start: int) -> MapOp | McOp:
    """A small op of the workload's kind, the first request of cold start ``start``.

    Each cold start of a run gets its own room, none a timed op's, so the
    median over cold starts does not hang on one room.
    """
    op = GENERATORS[workload](seed, -2 - start)
    if isinstance(op, McOp):
        return dataclasses.replace(op, rays=MC_SMALL_RAYS)
    return dataclasses.replace(op, fov_steps=5, source_steps=3, resolution=10)


GENERATORS = {
    "lamp-map": lamp_map_op,
    "ambient-map": ambient_map_op,
    "mc-oracle": mc_oracle_op,
}
