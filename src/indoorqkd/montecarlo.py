"""Independent oracles for the single-bounce lamp-to-receiver gain.

Both are validation paths for the deterministic quadrature in the channel
module and share none of its machinery but the Lambert mode.  The Monte-Carlo
estimate samples rays from the lamp's Lambertian lobe, traces them to their
first wall or floor hit, and folds the last bounce into the receiver in
analytically (next-event estimation); the expectation of the per-ray
contribution equals the same double integral the quadrature approximates.
The floor-cone closed form is that integral done exactly, for the one
geometry where it has an antiderivative.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import RoomScenario, lambert_mode

__all__ = ["McEstimate", "estimate_reflected_gain", "floor_cone_closed_form"]

# Rays traced per vectorised pass.  Each temporary then holds 256 kB, so the
# passes run in cache and peak memory does not grow with the draw chunk
# (1e6 rays on a Xeon with 2 MB of L2 per core: 0.10-0.14 s CPU at 2^15,
# 0.18-0.26 s at 2^17 and 2^18).
_BLOCK = 1 << 15
# A plane closer to the lamp than this along the ray is the one it sits on.
_T_MIN = 1e-12


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
    and then the azimuth; the rays are traced in blocks of ``_BLOCK``.
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
    ax, ay, az = room.receiver.axis.as_tuple()
    lamp_axis = np.array(room.lamp.axis.as_tuple())
    e1, e2 = _frame(lamp_axis)

    def trace(cos_phi: np.ndarray, azim: np.ndarray, out: np.ndarray) -> None:
        sin_phi = np.sqrt(np.clip(1.0 - cos_phi * cos_phi, 0.0, None))
        s_cos = sin_phi * np.cos(azim)
        s_sin = sin_phi * np.sin(azim)
        dx, dy, dz = (cos_phi * lamp_axis[i] + s_cos * e1[i] + s_sin * e2[i] for i in range(3))

        # Distance to the first floor or wall hit, one pass per axis (slab
        # test for the axis-aligned room).  A plane behind the ray, parallel
        # to it or holding the lamp gets inf.  The lamp lies inside the room,
        # so -pz / dz is not positive for dz >= 0: the floor counts for
        # dz < 0 only.  The ceiling carries the lamp and reflects nothing.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_floor = -pz / dz
            t_x = np.maximum(-px / dx, (room.room_x_m - px) / dx)
            t_y = np.maximum(-py / dy, (room.room_y_m - py) / dy)
            for t_axis in (t_floor, t_x, t_y):
                t_axis[~(t_axis > _T_MIN)] = np.inf
            t = np.minimum(np.minimum(t_floor, t_x), t_y)

            vx = rx - (px + t * dx)
            vy = ry - (py + t * dy)
            vz = rz - (pz + t * dz)
            d2 = np.sqrt(vx * vx + vy * vy + vz * vz)
            d2 = np.where(d2 > 1e-12, d2, 1.0)
            cos_psi = -(vx * ax + vy * ay + vz * az) / d2

        # The collect term for the rays that hit and land in the receiver's cone.
        k = np.flatnonzero((cos_psi >= cos_fov) & (t < np.inf))
        t, vx, vy, vz, d2, cos_psi = t[k], vx[k], vy[k], vz[k], d2[k], cos_psi[k]
        on_floor = t_floor[k] == t  # ties go to the floor, then to an x wall
        on_x = ~on_floor & (t_x[k] == t)
        # (receiver - hit) along the surface's inward normal: +z on the floor,
        # against the ray's travel along the axis of the wall it hit.
        v_normal = np.where(on_floor, vz, np.where(on_x, -np.sign(dx[k]) * vx, -np.sign(dy[k]) * vy))
        cos_beta = np.clip(v_normal / d2, 0.0, None)
        gain = np.where(on_floor, floor_gain, wall_gain)
        out[k] = gain * cos_beta * cos_psi / (math.pi * d2 * d2)

    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        n = min(chunk_size, samples - done)
        cos_phi = rng.random(n)
        cos_phi **= 1.0 / (m1 + 1.0)
        azim = rng.random(n)
        azim *= 2.0 * math.pi
        contrib = np.zeros(n)
        for start in range(0, n, _BLOCK):
            block = slice(start, start + _BLOCK)
            trace(cos_phi[block], azim[block], contrib[block])
        total += float(np.sum(contrib))
        total_sq += float(np.sum(contrib * contrib))
        done += n

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return McEstimate(value=mean, std_error=math.sqrt(var / samples), samples=samples)


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
