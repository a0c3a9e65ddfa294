"""Optical channel gains: Lambertian line of sight and single-bounce reflections.

The line-of-sight DC gain of a generalized Lambertian emitter of mode m is

    H = A (m + 1) / (2 pi d^2) * cos(phi)^m * T_s * g(psi) * cos(psi)

with g the ideal non-imaging concentrator gain n^2 / sin^2(fov) inside the
acceptance cone and zero outside.  Reflected light is modeled with one
diffuse bounce off the walls or floor; the room surfaces are tessellated
into midpoint patches and summed.  Patches cut by the edge of the receiver's
acceptance cone are subdivided adaptively, otherwise the hard cutoff in
g(psi) would leave the sum stuck at the patch size instead of converging.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import LinkGeometry, RoomScenario, link_geometry, wall_and_floor_grids

__all__ = [
    "UndefinedModeError",
    "ReflectionConvergenceWarning",
    "DetectorParams",
    "ChannelGains",
    "ConvergenceReport",
    "lambert_mode",
    "concentrator_gain",
    "los_dc_gain",
    "los_gain_for",
    "total_reflected_gain",
    "reflected_gain_convergence",
]

DEFAULT_PATCHES_PER_METER = 10
# Adaptive splitting at the acceptance-cone edge stops once sub-cells shrink
# to about a millimeter; finer cuts cost time without moving the sum.
_REFINE_TARGET_M = 1e-3
_MAX_REFINE_DEPTH = 10


class UndefinedModeError(ValueError):
    """Lambert mode is undefined at or beyond a 90 degree semi-angle."""


class ReflectionConvergenceWarning(UserWarning):
    """The patch sum moved more than the tolerance when the grid was doubled."""


@dataclass(frozen=True, slots=True)
class DetectorParams:
    """Single-photon detector figures shared by signal and noise paths."""

    efficiency: float
    dark_count_rate_hz: float
    pulse_width_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        if self.dark_count_rate_hz < 0.0:
            raise ValueError("dark_count_rate_hz must be non-negative")
        if self.pulse_width_s <= 0.0:
            raise ValueError("pulse_width_s must be positive")


@dataclass(frozen=True, slots=True)
class ChannelGains:
    """Channel-level summary fed to the noise and key-rate stages."""

    line_of_sight: float
    transmittance: float
    reflected_integral: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.line_of_sight <= 1.0:
            raise ValueError("line_of_sight gain must lie in [0, 1]")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        if self.reflected_integral < 0.0:
            raise ValueError("reflected_integral must be non-negative")


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    value: float
    refined_value: float
    rel_change: float
    converged: bool
    patches_per_meter: int


def lambert_mode(semi_angle_deg: float) -> float:
    """Lambert mode number m = -ln 2 / ln cos(semi-angle at half power)."""
    if not 0.0 < semi_angle_deg < 90.0:
        raise UndefinedModeError(
            f"Lambert mode needs a semi-angle in (0, 90) degrees, got {semi_angle_deg!r}"
        )
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


def concentrator_gain(incidence_rad: float, index: float, fov_rad: float) -> float:
    """Ideal non-imaging concentrator gain n^2 / sin^2(fov) inside the cone.

    The acceptance test is inclusive at the cone edge.  Outside the cone the
    concentrator passes nothing.
    """
    if not 0.0 < fov_rad <= math.pi / 2.0:
        raise ValueError("fov_rad must lie in (0, pi/2]")
    if index < 1.0:
        raise ValueError("index must be >= 1")
    if incidence_rad < 0.0 or incidence_rad > fov_rad:
        return 0.0
    s = math.sin(fov_rad)
    return index * index / (s * s)


def los_dc_gain(
    geom: LinkGeometry,
    *,
    tx_semi_angle_deg: float,
    detector_area_m2: float,
    concentrator_index: float,
    fov_deg: float,
    filter_transmission: float = 1.0,
    enforce_fov: bool = True,
) -> float:
    """Line-of-sight DC gain of the Lambertian source toward the receiver.

    With ``enforce_fov`` the gain is zero when the incidence angle falls
    outside the acceptance cone, which is the physical concentrator behavior.
    Feasibility sweeps over receivers assumed to stay coupled to the (single,
    known) source direction disable the cutoff and keep the concentrator
    factor n^2 / sin^2(fov); see the experiments module.
    """
    m = lambert_mode(tx_semi_angle_deg)
    cos_phi = math.cos(geom.irradiance_angle)
    cos_psi = math.cos(geom.incidence_angle)
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        return 0.0  # behind the emitter or the receiver plane
    fov_rad = math.radians(fov_deg)
    if enforce_fov:
        g = concentrator_gain(geom.incidence_angle, concentrator_index, fov_rad)
    else:
        g = concentrator_gain(0.0, concentrator_index, fov_rad)
    if g == 0.0:
        return 0.0
    gain = (
        detector_area_m2
        * (m + 1.0)
        / (2.0 * math.pi * geom.distance**2)
        * cos_phi**m
        * filter_transmission
        * g
        * cos_psi
    )
    # An ideal concentrator formula can exceed unity at tiny acceptance
    # angles; a gain is still a transmittance, so cap it.
    return min(gain, 1.0)


def los_gain_for(room: RoomScenario, *, enforce_fov: bool = True) -> float:
    """LOS gain for a scenario's transmitter -> receiver link."""
    geom = link_geometry(room.transmitter, room.receiver)
    return los_dc_gain(
        geom,
        tx_semi_angle_deg=room.tx_semi_angle_deg,
        detector_area_m2=room.detector_area_m2,
        concentrator_index=room.concentrator_index,
        fov_deg=room.fov_deg,
        filter_transmission=room.filter_transmission,
        enforce_fov=enforce_fov,
    )


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


def _cos_psi_at(points: np.ndarray, rx_pos: np.ndarray, rx_axis: np.ndarray) -> np.ndarray:
    v = rx_pos - points
    d = np.linalg.norm(v, axis=-1)
    d = np.where(d > 1e-12, d, 1.0)
    return -np.einsum("...j,j->...", v, rx_axis) / d


def _auto_refine_depth(max_cell_m: float) -> int:
    if max_cell_m <= _REFINE_TARGET_M:
        return 0
    return min(_MAX_REFINE_DEPTH, math.ceil(math.log2(max_cell_m / _REFINE_TARGET_M)))


def total_reflected_gain(
    room: RoomScenario,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    *,
    refine_depth: int | None = None,
) -> float:
    """Sum of single-bounce gains over the tessellated walls and floor.

    ``refine_depth`` levels of 4-way splitting are applied to cells whose
    corners straddle the acceptance-cone edge (depth picked automatically
    from the cell size when None; 0 disables refinement and reproduces the
    plain midpoint sum over the base tessellation).
    """
    m1 = lambert_mode(room.lamp_semi_angle_deg)
    fov_rad = math.radians(room.fov_deg)
    g_in = concentrator_gain(0.0, room.concentrator_index, fov_rad)
    cos_fov = math.cos(fov_rad)
    rx_pos = np.array(room.receiver.position.as_tuple())
    rx_axis = np.array(room.receiver.axis.as_tuple())

    total = 0.0
    for grid in wall_and_floor_grids(room, patches_per_meter):
        if grid.reflectivity == 0.0:
            continue
        origin = np.array(grid.origin.as_tuple())
        u_dir = np.array(grid.u_dir.as_tuple())
        v_dir = np.array(grid.v_dir.as_tuple())
        normal = np.array(grid.normal.as_tuple())

        iu = (np.arange(grid.n_u) + 0.5) * grid.cell_u
        iv = (np.arange(grid.n_v) + 0.5) * grid.cell_v
        uu, vv = np.meshgrid(iu, iv, indexing="ij")
        centers = origin + uu.reshape(-1, 1) * u_dir + vv.reshape(-1, 1) * v_dir
        half_u = np.full(centers.shape[0], 0.5 * grid.cell_u)
        half_v = np.full(centers.shape[0], 0.5 * grid.cell_v)

        depth = refine_depth
        if depth is None:
            depth = _auto_refine_depth(max(grid.cell_u, grid.cell_v))

        surface_sum = 0.0
        for level in range(depth + 1):
            if level == depth:
                # Finest level: midpoint in/out decides the remainder.
                accept = _cos_psi_at(centers, rx_pos, rx_axis) >= cos_fov
                straddle = None
            else:
                du = half_u[:, None] * u_dir
                dv = half_v[:, None] * v_dir
                probes = np.stack(
                    [
                        centers,
                        centers + du + dv,
                        centers + du - dv,
                        centers - du + dv,
                        centers - du - dv,
                    ],
                    axis=1,
                )
                inside = _cos_psi_at(probes, rx_pos, rx_axis) >= cos_fov
                accept = inside.all(axis=1)
                straddle = inside.any(axis=1) & ~accept

            if np.any(accept):
                keep = centers[accept]
                areas = 4.0 * half_u[accept] * half_v[accept]
                refl = np.full(keep.shape[0], grid.reflectivity)
                normals = np.broadcast_to(normal, keep.shape)
                surface_sum += float(np.sum(_cell_gains(keep, normals, areas, refl, room, m1, g_in)))

            if straddle is None or not np.any(straddle):
                break
            c = centers[straddle]
            hu = 0.5 * half_u[straddle]
            hv = 0.5 * half_v[straddle]
            du = hu[:, None] * u_dir
            dv = hv[:, None] * v_dir
            centers = np.concatenate([c + du + dv, c + du - dv, c - du + dv, c - du - dv])
            half_u = np.concatenate([hu, hu, hu, hu])
            half_v = np.concatenate([hv, hv, hv, hv])

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
