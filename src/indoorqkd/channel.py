"""Optical channel gains: Lambertian line of sight and single-bounce reflections.

The line-of-sight DC gain of a generalized Lambertian emitter of mode m is

    H = A (m + 1) / (2 pi d^2) * cos(phi)^m * T_s * g(psi) * cos(psi)

with g the ideal non-imaging concentrator gain n^2 / sin^2(fov) inside the
acceptance cone and zero outside.  Reflected light is modeled with one
diffuse bounce off the walls or floor; the room surfaces are tessellated
into midpoint patches and summed.  Patches cut by the edge of the receiver's
acceptance cone are subdivided adaptively, otherwise the hard cutoff in
g(psi) would leave the sum stuck at the patch size instead of converging.
The cone test probes each patch's center and corners in its surface's own
plane coordinates, so a refinement level is a few passes over two flat arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import RoomScenario, concentrator_gain, link_geometry, wall_and_floor_grids

__all__ = [
    "ReflectionConvergenceWarning",
    "DetectorParams",
    "ChannelGains",
    "ConvergenceReport",
    "los_gain_for",
    "total_reflected_gain",
    "reflected_gain_convergence",
]

DEFAULT_PATCHES_PER_METER = 10
# Adaptive splitting at the acceptance-cone edge stops once sub-cells shrink
# to about a millimeter; finer cuts cost time without moving the sum.
_REFINE_TARGET_M = 1e-3
_MAX_REFINE_DEPTH = 10


class ReflectionConvergenceWarning(UserWarning):
    """The patch sum moved more than the tolerance when the grid was doubled."""


@dataclass(frozen=True, slots=True)
class DetectorParams:
    """Single-photon detector figures shared by signal and noise paths,
    with the wavelength it detects."""

    efficiency: float
    dark_count_rate_hz: float
    pulse_width_s: float
    wavelength_nm: float

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"detector efficiency must lie in (0, 1], got {self.efficiency!r}")
        if not 0.0 <= self.dark_count_rate_hz < math.inf:
            raise ValueError(f"dark_count_rate_hz must be non-negative and finite, got {self.dark_count_rate_hz!r}")
        if not 0.0 < self.pulse_width_s < math.inf:
            raise ValueError(f"pulse_width_s must be positive and finite, got {self.pulse_width_s!r}")
        if not 0.0 < self.wavelength_nm < math.inf:
            raise ValueError(f"wavelength_nm must be positive and finite, got {self.wavelength_nm!r}")


# eq=False: fields may be arrays, whose == has no truth value; compare fields.
@dataclass(frozen=True, slots=True, eq=False)
class ChannelGains:
    """Channel-level summary fed to the noise and key-rate stages: scalars
    for one field of view, arrays with one element per FOV for several."""

    line_of_sight: float | np.ndarray
    transmittance: float | np.ndarray
    reflected_integral: float | np.ndarray

    def __post_init__(self) -> None:
        if not _within(self.line_of_sight, 0.0, 1.0):
            raise ValueError("line_of_sight gain must lie in [0, 1]")
        if not _within(self.transmittance, 0.0, 1.0):
            raise ValueError("transmittance must lie in [0, 1]")
        if not _within(self.reflected_integral, 0.0, math.inf):
            raise ValueError("reflected_integral must be non-negative")


def _within(value: float | np.ndarray, lo: float, hi: float) -> bool:
    """lo <= value <= hi, for a number or for every element of an array (nan fails)."""
    return bool(((value >= lo) & (value <= hi)).all()) if isinstance(value, np.ndarray) else lo <= value <= hi


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    value: float
    refined_value: float
    rel_change: float
    converged: bool
    patches_per_meter: int


def _lambert_mode(semi_angle_deg: float) -> float:
    """Lambert mode number m = -ln 2 / ln cos(semi-angle at half power),
    for a semi-angle in (0, 90) degrees, as RoomScenario has checked."""
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


def los_gain_for(
    room: RoomScenario, *, enforce_fov: bool = True, fov_deg: float | Sequence[float] | None = None
) -> float | np.ndarray:
    """Line-of-sight DC gain of the room's Lambertian transmitter toward its receiver.

    With ``enforce_fov`` the gain is zero when the incidence angle falls
    outside the acceptance cone (the test is inclusive at the cone edge),
    which is the physical concentrator behavior.  Feasibility sweeps over
    receivers assumed to stay coupled to the (single, known) source
    direction disable the cutoff and keep the concentrator factor
    n^2 / sin^2(fov); see the experiments module.

    ``fov_deg`` puts one FOV or an array, each held to ``concentrator_gain``'s
    rule, in place of the room's; the gain takes its shape, and each element
    is the one-FOV gain, bit for bit.
    """
    fovs = np.asarray(room.fov_deg if fov_deg is None else fov_deg, dtype=float)
    fov_list = fovs.ravel().tolist()
    g = [concentrator_gain(room.concentrator_index, f) for f in fov_list]
    geom = link_geometry(room.transmitter, room.receiver)
    m = _lambert_mode(room.tx_semi_angle_deg)
    cos_phi = math.cos(geom.irradiance_angle)
    cos_psi = math.cos(geom.incidence_angle)
    if cos_phi <= 0.0 or cos_psi <= 0.0:  # behind the emitter or the receiver plane
        return 0.0 if fovs.ndim == 0 else np.zeros(fovs.shape)
    prefix = room.detector_area_m2 * (m + 1.0) / (2.0 * math.pi * geom.distance**2) * cos_phi**m * room.filter_transmission
    # Outside the cone the concentrator passes nothing.  An ideal concentrator formula can
    # exceed unity at tiny acceptance angles; a gain is still a transmittance, so cap it.
    cut = [enforce_fov and geom.incidence_angle > math.radians(f) for f in fov_list]
    gains = [0.0 if out else min(prefix * g_f * cos_psi, 1.0) for out, g_f in zip(cut, g)]
    return gains[0] if fovs.ndim == 0 else np.reshape(gains, fovs.shape)


def _cell_gains(
    centers: np.ndarray,
    normals: np.ndarray,
    areas: np.ndarray,
    refl: np.ndarray,
    room: RoomScenario,
    m1: float,
    g_in: float,
) -> np.ndarray:
    """Single-bounce gain of each cell already inside the acceptance cone.

    Implements

        H = A (m1 + 1) / (2 pi^2 d1^2 d2^2) * cos(phi)^m1 * rho * T_s
            * g_in * dA * cos(alpha) * cos(beta) * cos(psi)

    per cell.  All cosines clamp at zero: surfaces do not receive or emit
    behind themselves.  A cell coincident with the lamp or the receiver
    contributes zero.
    """
    lamp_pos = np.array(room.lamp.position.as_tuple())
    lamp_axis = np.array(room.lamp.axis.as_tuple())
    rx_pos = np.array(room.receiver.position.as_tuple())
    rx_axis = np.array(room.receiver.axis.as_tuple())

    v1 = centers - lamp_pos
    d1 = np.linalg.norm(v1, axis=1)
    v2 = rx_pos - centers
    d2 = np.linalg.norm(v2, axis=1)
    ok = (d1 > 1e-12) & (d2 > 1e-12)
    d1 = np.where(ok, d1, 1.0)
    d2 = np.where(ok, d2, 1.0)

    cos_phi = np.clip(np.einsum("ij,j->i", v1, lamp_axis) / d1, 0.0, None)
    cos_alpha = np.clip(-np.einsum("ij,ij->i", v1, normals) / d1, 0.0, None)
    cos_beta = np.clip(np.einsum("ij,ij->i", v2, normals) / d2, 0.0, None)
    cos_psi = np.clip(-np.einsum("ij,j->i", v2, rx_axis) / d2, 0.0, None)

    pref = room.detector_area_m2 * (m1 + 1.0) / (2.0 * math.pi**2) * room.filter_transmission * g_in
    gains = (
        pref
        * refl
        * areas
        * cos_phi**m1
        * cos_alpha
        * cos_beta
        * cos_psi
        / (d1 * d1 * d2 * d2)
    )
    return np.where(ok, gains, 0.0)


def total_reflected_gain(
    room: RoomScenario,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    *,
    refine_depth: int | None = None,
) -> float:
    """Sum of single-bounce gains over the tessellated walls and floor.

    ``refine_depth`` levels of 4-way splitting are applied to cells whose
    center and corners straddle the acceptance-cone edge (depth picked
    automatically from the cell size when None; 0 disables refinement and
    reproduces the plain midpoint sum over the base tessellation).

    The five probes of a cell are tested in its grid's plane coordinates.
    With the receiver at (u0, v0) and signed height h over the plane, and
    its axis split into (a_u, a_v, a_n) along u_dir, v_dir and the normal,
    the incidence cosine at (u, v) is

        -(du a_u + dv a_v + h a_n) / sqrt(du^2 + dv^2 + h^2),  du = u0 - u,  dv = v0 - v.

    A level is two flat arrays of cell centers plus one half-size per axis;
    only accepted cells become 3-D centers, integrated by ``_cell_gains``.
    """
    m1 = _lambert_mode(room.lamp_semi_angle_deg)
    g_in = concentrator_gain(room.concentrator_index, room.fov_deg)
    cos_fov = math.cos(math.radians(room.fov_deg))

    total = 0.0
    for grid in wall_and_floor_grids(room, patches_per_meter):
        if grid.reflectivity == 0.0:
            continue
        plane = (grid.u_dir, grid.v_dir, grid.normal)
        origin, u_dir, v_dir, normal = (np.array(p.as_tuple()) for p in (grid.origin, *plane))
        offset = room.receiver.position.minus(grid.origin)
        u0, v0, h = (offset.dot(e) for e in plane)
        # (du, dv, h) are the world x, y, z offsets in some order (the grids
        # are axis-aligned).  Adding them up in the order numpy rounds a 3-D
        # norm, (x + y) + z, and dot product, (x + z) + y, keeps every probe
        # that sits exactly on the cone edge on the side the 3-D test put it.
        order = [next(k for k in range(3) if plane[k].as_tuple()[i]) for i in range(3)]
        a_x, a_y, a_z = (room.receiver.axis.dot(plane[k]) for k in order)

        def inside(du: np.ndarray, dv: np.ndarray) -> np.ndarray:
            x, y, z = ((du, dv, h)[k] for k in order)
            d = np.sqrt(x * x + y * y + z * z)
            d = np.where(d > 1e-12, d, 1.0)
            return -(x * a_x + z * a_z + y * a_y) / d >= cos_fov

        # Level 0 is an outer (n_u, 1) x (1, n_v) grid: one pass per axis for the offsets.
        u = ((np.arange(grid.n_u) + 0.5) * grid.cell_u)[:, None]
        v = ((np.arange(grid.n_v) + 0.5) * grid.cell_v)[None, :]
        hu, hv = 0.5 * grid.cell_u, 0.5 * grid.cell_v
        depth = refine_depth
        if depth is None:  # split until the cells shrink to _REFINE_TARGET_M
            levels = math.ceil(math.log2(max(grid.cell_u, grid.cell_v) / _REFINE_TARGET_M))
            depth = max(0, min(_MAX_REFINE_DEPTH, levels))

        surface_sum = 0.0
        for level in range(depth + 1):
            accept = inside(u0 - u, v0 - v)
            if level < depth:  # the finest level lets the midpoint decide
                du_p, du_m = u0 - (u + hu), u0 - (u - hu)
                dv_p, dv_m = v0 - (v + hv), v0 - (v - hv)
                # Corners (+,+), (+,-), (-,+), (-,-).
                corners = (inside(du_p, dv_p), inside(du_p, dv_m), inside(du_m, dv_p), inside(du_m, dv_m))
                straddle = accept | corners[0] | corners[1] | corners[2] | corners[3]
                accept = accept & corners[0] & corners[1] & corners[2] & corners[3]
                straddle &= ~accept
            u, v = np.broadcast_arrays(u, v)
            n = int(np.count_nonzero(accept))
            if n:
                centers = origin + u[accept][:, None] * u_dir + v[accept][:, None] * v_dir
                areas, refl = np.full(n, 4.0 * hu * hv), np.full(n, grid.reflectivity)
                gains = _cell_gains(centers, np.broadcast_to(normal, (n, 3)), areas, refl, room, m1, g_in)
                surface_sum += float(np.sum(gains))
            if level == depth or not np.any(straddle):
                break
            us, vs = u[straddle], v[straddle]  # children in the corner order
            hu, hv = 0.5 * hu, 0.5 * hv
            u = np.concatenate([us + hu, us + hu, us - hu, us - hu])
            v = np.concatenate([vs + hv, vs - hv, vs + hv, vs - hv])
        total += surface_sum
    return total


def reflected_gain_convergence(
    room: RoomScenario,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    rtol: float = 0.005,
) -> ConvergenceReport:
    """Patch sum at the requested grid and at double resolution.

    Emits ReflectionConvergenceWarning (carrying both estimates) when the
    relative change exceeds ``rtol``.
    """
    value = total_reflected_gain(room, patches_per_meter)
    refined = total_reflected_gain(room, 2 * patches_per_meter)
    if refined != 0.0:
        rel = abs(refined - value) / abs(refined)
    else:
        rel = 0.0 if value == 0.0 else math.inf
    converged = rel <= rtol
    if not converged:
        warnings.warn(
            f"reflected-gain sum moved {rel:.3%} between {patches_per_meter} and "
            f"{2 * patches_per_meter} patches/m ({value:.6e} -> {refined:.6e})",
            ReflectionConvergenceWarning,
            stacklevel=2,
        )
    return ConvergenceReport(
        value=value,
        refined_value=refined,
        rel_change=rel,
        converged=converged,
        patches_per_meter=patches_per_meter,
    )
