"""Independent oracles for the single-bounce lamp-to-receiver gain.

Both are validation paths for the deterministic quadrature in the channel
module and share none of its machinery but the Lambert mode.  The Monte-Carlo
estimate samples rays from the lamp's Lambertian lobe, traces them to their
first wall or floor hit, and folds the last bounce into the receiver in
analytically (next-event estimation); the expectation of the per-ray
contribution equals the same double integral the quadrature approximates.
The floor-cone closed form is that integral done exactly, for the one
geometry where it has an antiderivative.

The sampler streams its draws: rays are drawn and traced in blocks whose
temporaries stay in cache, and no array grows with the sample count or the
chunk.  The azimuth is reduced to a quarter turn plus an angle in
[-pi/4, pi/4] before its one sin call, and terms whose coefficient is
exactly zero (most of them for a lamp or receiver facing straight down) are
skipped.  A seed fixes the same rays as drawing each chunk's arrays whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import RoomScenario, lambert_mode

__all__ = ["McEstimate", "estimate_reflected_gain", "floor_cone_closed_form"]

# Rays traced per block.  Each block temporary then holds 64 kB, under glibc's
# 128 kB mmap threshold, so the heap hands the same memory back to the next
# block instead of the system faulting it in again.  Median minor faults per
# 1e6-ray call on 8 perfbench mc-oracle rooms: 0-7 at 2^13, 30-4,000 at 2^14
# and 4,600-10,500 at 2^15 (2-core x86 Xeon, numpy 2.4).
_BLOCK = 1 << 13
# A plane closer to the lamp than this along the ray is the one it sits on.
_T_MIN = 1e-12
# cos and sin of q quarter turns, for the quadrant q = rint(4u) in 0..4 of an azimuth 2 pi u.
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0, 0.0])


@dataclass(frozen=True, slots=True)
class McEstimate:
    value: float
    std_error: float
    samples: int


def estimate_reflected_gain(
    room: RoomScenario,
    samples: int = 10_000_000,
    seed: int = 0,
    chunk_size: int = 2_000_000,
) -> McEstimate:
    """Seeded Monte-Carlo value of the summed bounce gain.

    Directions leave the lamp with probability density proportional to
    cos(phi)^m1 (sampled by inverting 1 - cos(phi)^(m1+1)), so the lobe
    factor and the first cosine of the bounce integrand are absorbed into
    the sampling measure and each ray only carries the reflect-and-collect
    term of its hit point.  Each chunk of ``chunk_size`` rays draws cos(phi)
    and then the azimuth; the rays are traced in blocks of ``_BLOCK`` as the
    draws are read (see ``_uniform_blocks``).
    """
    for name, value in (("samples", samples), ("chunk_size", chunk_size)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    m1 = lambert_mode(room.lamp_semi_angle_deg)
    fov_rad = math.radians(room.fov_deg)
    sin_fov = math.sin(fov_rad)
    g_in = room.concentrator_index**2 / (sin_fov * sin_fov)
    cos_fov = math.cos(fov_rad)
    t_s, area = room.filter_transmission, room.detector_area_m2
    floor_gain = room.floor_reflectivity * t_s * area * g_in
    wall_gain = room.wall_reflectivity * t_s * area * g_in

    px, py, pz = room.lamp.position.as_tuple()
    rx, ry, rz = room.receiver.position.as_tuple()
    floor_weight = floor_gain * rz
    # The wall a ray hits on an axis is the far one when its component there
    # is positive; the weights are the gain times the receiver's distance.
    x_weights = np.array([wall_gain * rx, wall_gain * (room.room_x_m - rx)])
    y_weights = np.array([wall_gain * ry, wall_gain * (room.room_y_m - ry)])
    ax, ay, az = room.receiver.axis.as_tuple()
    lamp_axis = np.array(room.lamp.axis.as_tuple())
    e1, e2 = _frame(lamp_axis)

    def trace(cos_phi: np.ndarray, azim: np.ndarray) -> np.ndarray:
        """Contributions of the rays that land in the receiver's cone (the others give 0)."""
        cos_phi **= 1.0 / (m1 + 1.0)
        sin_phi = np.sqrt(1.0 - cos_phi * cos_phi)
        cos_az, sin_az = _unit_circle(azim)
        s_cos = sin_phi * cos_az
        s_sin = sin_phi * sin_az
        dx, dy, dz = (_combine((cos_phi, lamp_axis[i]), (s_cos, e1[i]), (s_sin, e2[i])) for i in range(3))

        # Distance to the first floor or wall hit, one pass per axis (slab
        # test for the axis-aligned room).  The ceiling carries the lamp and
        # reflects nothing, so it sits at z = inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_floor = _plane_distance(dz, pz, math.inf)
            t_x = _plane_distance(dx, px, room.room_x_m)
            t_y = _plane_distance(dy, py, room.room_y_m)
            t = np.minimum(np.minimum(t_floor, t_x), t_y)

            vx = rx - (px + t * dx)
            vy = ry - (py + t * dy)
            vz = rz - (pz + t * dz)
            d2 = np.sqrt(vx * vx + vy * vy + vz * vz)
            cos_psi = _combine((vx, -ax), (vy, -ay), (vz, -az))
            cos_psi /= d2

        # The collect term for the rays that hit and land in the receiver's
        # cone, not within 1e-12 m of it.  Its cos(beta) is h / d2, with h the
        # receiver's distance from the plane hit, so each plane has one
        # weight: its gain times h.
        k = np.flatnonzero((cos_psi >= cos_fov) & (d2 > 1e-12) & (t < np.inf))
        t = t[k]
        weight = np.where(
            t_floor[k] == t,  # ties go to the floor, then to an x wall
            floor_weight,
            np.where(t_x[k] == t, x_weights.take(dx[k] > 0.0), y_weights.take(dy[k] > 0.0)),
        )
        d2 = d2[k]
        return weight * cos_psi[k] / (math.pi * d2 * d2 * d2)

    total = 0.0
    total_sq = 0.0
    for cos_draws, azim_draws in _uniform_blocks(seed, samples, chunk_size):
        contrib = trace(cos_draws, azim_draws)
        total += float(np.sum(contrib))
        total_sq += float(np.sum(contrib * contrib))

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return McEstimate(value=mean, std_error=math.sqrt(var / samples), samples=samples)


def _uniform_blocks(seed: int, samples: int, chunk_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The draws of ``np.random.default_rng(seed)`` as (cos(phi), azimuth) uniforms, block by block.

    Each chunk of n rays takes n uniforms for cos(phi) and then n for the
    azimuth, as ``rng.random(n); rng.random(n)`` would, and leaves the stream
    where those calls leave it.  A copy of the bit generator advanced by n
    reads the azimuths alongside the cos(phi) draws, so no chunk-sized array
    is made.
    """
    bits = np.random.default_rng(seed).bit_generator
    done = 0
    while done < samples:
        n = min(chunk_size, samples - done)
        azim_bits = type(bits)()
        azim_bits.state = bits.state
        azim_bits.advance(n)
        cos_rng, azim_rng = np.random.Generator(bits), np.random.Generator(azim_bits)
        for start in range(0, n, _BLOCK):
            size = min(_BLOCK, n - start)
            yield cos_rng.random(size), azim_rng.random(size)
        bits = azim_bits
        done += n


def _unit_circle(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi u for u in [0, 1), from one sin call on [-pi/4, pi/4].

    With q = rint(4u), 4u - q in [-1/2, 1/2] is exact, and 2 pi u is q
    quarter turns plus a = (4u - q) pi/2.  cos(a) = sqrt(1 - sin(a)^2) is at
    least 0.707, so the root loses nothing; the quarter turns swap and negate
    the pair exactly.
    """
    quarters = u * 4.0
    q = np.rint(quarters)
    sin_a = np.sin((quarters - q) * (math.pi / 2.0))
    cos_a = np.sqrt(1.0 - sin_a * sin_a)
    q = q.astype(np.intp)
    turn_cos, turn_sin = _QUARTER_COS.take(q), _QUARTER_SIN.take(q)
    return turn_cos * cos_a - turn_sin * sin_a, turn_sin * cos_a + turn_cos * sin_a


def _combine(*terms: tuple[np.ndarray, float]) -> np.ndarray:
    """The sum of ``array * coefficient`` over the terms, in order.

    Terms whose coefficient is exactly zero are skipped: they would add only a
    signed zero.  Axis-aligned lamps and receivers have mostly zero components.
    At least one coefficient is not zero.
    """
    total = None
    for array, coefficient in terms:
        if coefficient != 0.0:
            term = array * coefficient
            total = term if total is None else np.add(total, term, out=total)
    return total


def _plane_distance(d: np.ndarray, p: float, length: float) -> np.ndarray:
    """Distance along each ray from the lamp at ``p`` to the plane at 0 or at ``length`` it heads for.

    The sign bit of the ray's component ``d`` picks the plane, so a ray
    parallel to both (d = +-0) gets inf.  A plane the lamp sits on does not
    count (inf).  That takes a test only for a lamp within 2 ``_T_MIN`` of a
    plane: from farther away every distance exceeds ``_T_MIN``, since
    |d| <= 1.
    """
    t = np.array([length - p, -p]).take(np.signbit(d))
    t /= d
    if min(p, length - p) <= 2.0 * _T_MIN:
        t[~(t > _T_MIN)] = np.inf  # nan too: 0 / 0 for a lamp on the plane
    return t


def floor_cone_closed_form(room: RoomScenario) -> float | None:
    """Exact bounce integral while the receiver's acceptance cone sees only floor.

    For a lamp and a receiver at one point facing straight down, height Z
    over the floor, substituting that geometry and switching to polar
    coordinates on the floor give (Kahn & Barry, Proc. IEEE 85(2), 1997)

        I(fov) = A (m1+1) rho_floor n^2 T_s (1 - cos(fov)^(m1+5))
                 / (pi Z^2 (m1+5) sin(fov)^2).

    Returns None for any other geometry, and when the cone spills onto the
    walls.
    """
    down = (0.0, 0.0, -1.0)
    lamp, rx = room.lamp, room.receiver
    if lamp.position != rx.position or lamp.axis.as_tuple() != down or rx.axis.as_tuple() != down:
        return None
    x, y, z = rx.position.as_tuple()
    fov = math.radians(room.fov_deg)
    if z * math.tan(fov) > min(x, room.room_x_m - x, y, room.room_y_m - y):
        return None  # the cone spills onto the walls
    m1 = lambert_mode(room.lamp_semi_angle_deg)
    k = m1 + 5.0
    return (
        room.detector_area_m2 * (m1 + 1.0) * room.floor_reflectivity
        * room.concentrator_index**2 * room.filter_transmission
        * (1.0 - math.cos(fov) ** k) / (math.pi * z * z * k * math.sin(fov) ** 2)
    )


def _frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Any orthonormal pair completing ``axis`` to a right-handed frame."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2
