"""Optical channel gains: Lambertian line of sight and single-bounce reflections.

The line-of-sight DC gain of a generalized Lambertian emitter of mode m is

    H = A (m + 1) / (2 pi d^2) * cos(phi)^m * T_s * g(psi) * cos(psi)

with g the ideal non-imaging concentrator gain n^2 / sin^2(fov) inside the
acceptance cone and zero outside.  Reflected light takes one diffuse bounce
off the walls or floor (Kahn & Barry, Proc. IEEE 85(2), 1997).  With
dA cos(beta) / d2^2 = d omega the bounce integral runs over the directions
omega the receiver looks along, at polar angle psi from its axis:

    I(fov) = g(fov) * int_{psi <= fov} L(omega) cos(psi) d omega,
    L = A (m1 + 1) / (2 pi^2) * T_s * rho * cos(phi)^m1 * cos(alpha) / d1^2,

with L taken at the first floor or wall point seen along omega (the ceiling
reflects nothing).  This is the Monte-Carlo oracle's next-event trace run
from the receiver side and made deterministic.  psi is cut at the psi
extremes of every room edge and into panels no wider than ``_PANEL_DEG``;
each ring of directions at one psi into ``_THETA_ARCS`` arcs and where it
crosses the plane through the receiver and a room edge.  L is smooth on
every piece, and Gauss-Legendre rules mapped through
s -> 3s^2 - 2s^3 absorb the square-root ends at edge tangencies.  The FOV
enters only as the upper limit and through g, and the room size not at all.

A ray leaves through the nearest of three planes, each picked on its axis
by the sign of the ray's component there (the oracle's slab rule); ties go
to the floor, the x walls, the y walls, the ceiling last.  A room's view is
built once and kept for the 64 rooms used last, and holds the integrals
computed for the room so far, by rule order and FOV.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import RoomScenario, concentrator_gain, lambert_mode, link_geometry, wall_and_floor_grids

__all__ = [
    "ReflectionConvergenceWarning",
    "DetectorParams",
    "ChannelGains",
    "ConvergenceReport",
    "los_gain_for",
    "total_reflected_gain",
    "reflected_gain_convergence",
]

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

# The psi rule order per piece, under the config key's name (it once set a tessellation).
DEFAULT_PATCHES_PER_METER = 10
# Widest psi panel, so that one rule order serves a narrow cone and a wide one.
_PANEL_DEG = 15.0
# Each ring of directions is cut into this many equal arcs before the edge
# crossings cut it further, and each arc gets a Gauss-Legendre rule of
# _THETA_ORDER points: a narrow lamp's spot is a sharp peak along the ring.
_THETA_ARCS = 12
_THETA_ORDER = 12
# Most psi nodes traced in one pass, which holds tens of kB per node.
_PSI_BLOCK = 64
# Most psi nodes laid out at once (a FOV axis brings one piece per FOV).
_PIECE_BLOCK = 4096


class ReflectionConvergenceWarning(UserWarning):
    """The bounce integral moved more than the tolerance when the rule order was doubled."""


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
        if not (0.0 < self.wavelength_nm < math.inf and self.wavelength_nm * 1e-9 > 0.0 and self.photon_energy_j < math.inf):
            raise ValueError(f"wavelength_nm must be positive and finite, with a finite photon energy h c / wavelength, got {self.wavelength_nm!r}")

    @property
    def photon_energy_j(self) -> float:
        return PLANCK_J_S * SPEED_OF_LIGHT_M_S / (self.wavelength_nm * 1e-9)


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
    m = lambert_mode(room.tx_semi_angle_deg)
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


@lru_cache(maxsize=64)
def _mapped_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Gauss-Legendre rule on [0, 1] under s -> h(s) = 3s^2 - 2s^3:
    positions h(s_i) and weights w_i h'(s_i).

    h' vanishes at both ends, so an integrand that goes like sqrt(x) or
    sqrt(1 - x) there becomes smooth in s.  The nodes and weights come from
    the Jacobi matrix's eigenvectors (Golub & Welsch, Math. Comp. 23, 1969).
    """
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    s = 0.5 * (x + 1.0)
    positions, weights = s * s * (3.0 - 2.0 * s), vectors[0] ** 2 * 6.0 * s * (1.0 - s)
    positions.flags.writeable = weights.flags.writeable = False
    return positions, weights


class _ReceiverView:
    """The room as the receiver sees it: its frame, the planes that close the
    room (the five surfaces of ``wall_and_floor_grids`` and a ceiling that
    reflects nothing) and the room edges.

    Positions are taken from the receiver and divided by ``scale``, the power
    of two at or above the longest room side, so that neither a 1e300 m room
    nor a 1e-300 m one leaves the float range on the way; a radiance in these
    units is the true one times scale^2.  ``integrals`` holds the room's
    bounce integrals computed so far, by rule order and then by FOV.
    """

    def __init__(self, room: RoomScenario) -> None:
        grids = wall_and_floor_grids(room, 1)
        extent = np.array([[g.n_u * g.cell_u, g.n_v * g.cell_v] for g in grids])
        self.scale = math.ldexp(1.0, math.frexp(float(extent.max()))[1])
        receiver = np.array(room.receiver.position.as_tuple())
        local = lambda points: (np.asarray(points) - receiver) / self.scale  # noqa: E731
        axis = np.array(room.receiver.axis.as_tuple())
        helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(axis, helper)
        e1 /= np.linalg.norm(e1)
        self.frame = np.array([axis, e1, np.cross(axis, e1)])
        self.lamp = local(room.lamp.position.as_tuple())
        self.lamp_axis = np.array(room.lamp.axis.as_tuple())
        self.m1 = lambert_mode(room.lamp_semi_angle_deg)

        corner, u_dir, v_dir, normal = (np.array([getattr(g, k).as_tuple() for g in grids]) for k in ("origin", "u_dir", "v_dir", "normal"))
        corner = local(corner)
        u_side, v_side = extent[:, :1] / self.scale * u_dir, extent[:, 1:] / self.scale * v_dir
        sides = {}
        for start, end in ((corner, corner + u_side), (corner, corner + v_side), (corner + u_side, corner + u_side + v_side), (corner + v_side, corner + u_side + v_side)):
            for a, b in zip(start, end):  # a room edge bounds two surfaces, or one and the ceiling
                sides.setdefault(frozenset((tuple(a), tuple(b))), (a, b))
        starts, ends = (np.array(e) for e in zip(*sides.values()))
        length = np.linalg.norm(ends - starts, axis=1)
        kept = length > 1e-12  # a side of a room flat to the precision bounds nothing
        self.edge_start, self.edge_length = starts[kept], length[kept]
        self.edge_dir = (ends - starts)[kept] / self.edge_length[:, None]
        # The normal, in the receiver's frame, of the plane through the receiver and each edge line.
        self.edge_normal = self.frame @ np.cross(self.edge_start, self.edge_dir).T

        self.normal = np.vstack([normal, -normal[0]])  # the ceiling faces the floor
        # Each plane's signed offset from the receiver, <= 0 inside the room.
        self.height = np.append(np.einsum("ij,ij->i", corner, normal), -np.max(ends @ normal[0]))
        # rho times the lamp's height over each plane (cos(alpha) d1 at any point of it)
        over = np.clip(self.normal @ self.lamp - self.height, 0.0, None)
        self.lamp_gain = np.append([g.reflectivity for g in grids], 0.0) * over
        # The psi cuts: 15-degree panels, every room corner and every interior psi extreme of an edge.
        u = self.edge_start
        p, q = u @ axis, self.edge_dir @ axis
        r, w = np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", u, self.edge_dir)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (p * w - q * r) / (q * w - p)  # d psi / ds = 0 along the edge line
        inner = (s > 0.0) & (s < self.edge_length)
        points = np.vstack([u, u + self.edge_length[:, None] * self.edge_dir, u[inner] + s[inner, None] * self.edge_dir[inner]])
        distance = np.linalg.norm(points, axis=1)
        seen = distance > 0.0
        psi = np.arccos(np.clip(points[seen] @ axis / distance[seen], -1.0, 1.0))
        panels = np.radians(np.arange(0.0, 90.0, _PANEL_DEG))
        self.bounds = np.unique(np.concatenate([panels, psi[(psi > 0.0) & (psi < 0.5 * math.pi)], [0.5 * math.pi]]))
        self.integrals: dict[int, dict[float, float]] = {}

    def piece_sums(self, lo: np.ndarray, hi: np.ndarray, positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """int_lo^hi sin(psi) cos(psi) (ring integral) d psi on each piece, by the mapped rule."""
        psi = (lo[:, None] + (hi - lo)[:, None] * positions).ravel()
        weight = ((hi - lo)[:, None] * weights).ravel() * np.sin(psi) * np.cos(psi)
        ring = np.concatenate([self.ring_integrals(psi[k : k + _PSI_BLOCK]) for k in range(0, len(psi), _PSI_BLOCK)])
        return np.bincount(np.repeat(np.arange(len(lo)), len(positions)), weight * ring)

    def ring_integrals(self, psi: np.ndarray) -> np.ndarray:
        """int_0^{2 pi} rho cos(phi)^m1 cos(alpha) / d1^2 d theta on the ring of directions at each psi."""
        cos_psi, sin_psi = np.cos(psi)[:, None], np.sin(psi)[:, None]
        # The ring crosses the plane through the receiver and an edge line where
        # a cos(theta) + b sin(theta) = c: two crossings per line, if any.
        n_axis, n_e1, n_e2 = self.edge_normal
        a, b, c = sin_psi * n_e1, sin_psi * n_e2, -cos_psi * n_axis
        with np.errstate(divide="ignore", invalid="ignore"):
            half = np.arccos(c / np.hypot(a, b))  # nan where the ring misses the plane
            mid = np.arctan2(b, a)
            cuts = np.nan_to_num(np.mod(np.hstack([mid - half, mid + half]), 2.0 * math.pi))
        arcs = np.linspace(0.0, 2.0 * math.pi, _THETA_ARCS + 1)
        bounds = np.sort(np.hstack([np.broadcast_to(arcs, (len(psi), len(arcs))), cuts]), axis=1)
        width = np.diff(bounds, axis=1)
        ring, arc = np.nonzero(width > 0.0)
        positions, weights = _mapped_rule(_THETA_ORDER)
        theta = bounds[ring, arc][:, None] + width[ring, arc][:, None] * positions
        weight = width[ring, arc][:, None] * weights
        axis, e1, e2 = (v[:, None, None] for v in self.frame)
        omega = axis * cos_psi[ring] + e1 * (sin_psi[ring] * np.cos(theta)) + e2 * (sin_psi[ring] * np.sin(theta))
        return np.bincount(np.repeat(ring, _THETA_ORDER), (weight * self._radiance(omega)).ravel(), minlength=len(psi))

    def _radiance(self, omega: np.ndarray) -> np.ndarray:
        """rho cos(phi)^m1 cos(alpha) / d1^2 where the rays from the receiver
        along ``omega`` (x, y, z on the first axis) leave the room: the nearest
        of the planes ahead on each axis, whose height / facing is exact, for
        the normals are axis-aligned.  Ties go as ``np.argmin`` over all six.
        """
        shape = (3,) + (1,) * (omega.ndim - 1)
        # Planes 1, 3, 0 (x = 0, y = 0, floor) lie ahead of a negative component, 2, 4, 5 of a positive one.
        with np.errstate(divide="ignore", invalid="ignore"):  # the plane behind gives a value <= 0
            reach = np.maximum(self.height[[1, 3, 0]].reshape(shape) / omega, -self.height[[2, 4, 5]].reshape(shape) / omega)
        if not omega.all():  # parallel to both planes of an axis
            reach[omega == 0.0] = np.inf
        (t_x, t_y, t_z), (up_x, up_y, up_z) = reach, (omega > 0.0).view(np.int8)
        t = np.minimum(t_x, t_y)
        plane = 3 + up_y - (2 + up_y - up_x) * (t_x <= t_y).view(np.int8)  # x walls 1, 2 win a tie with y walls 3, 4
        z_first = (t_z < t) | ((t_z == t) & (up_z == 0))  # the floor 0 wins a tie, the ceiling 5 loses it
        plane += (5 * up_z - plane) * z_first.view(np.int8)
        t = np.minimum(t, t_z)
        plane_gain = self.lamp_gain.take(plane)
        v1 = t * omega - self.lamp.reshape(shape)
        d1_sq = v1[0] * v1[0] + v1[1] * v1[1] + v1[2] * v1[2]
        d1 = np.sqrt(d1_sq)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            along = v1[0] * self.lamp_axis[0] + v1[1] * self.lamp_axis[1] + v1[2] * self.lamp_axis[2]
            cos_phi = np.clip(along / d1, 0.0, None)
            # cos(alpha) d1 is the lamp's height over the plane hit
            radiance = plane_gain * cos_phi**self.m1 / (d1_sq * d1)
        return np.where(d1 > 1e-12, radiance, 0.0)


def _room_key(room: RoomScenario) -> tuple:
    """What a room's bounce integral depends on: the surfaces, the lamp, and the
    receiver with its optics; not the transmitter, and not the FOV."""
    return (
        room.room_x_m, room.room_y_m, room.room_z_m, room.wall_reflectivity, room.floor_reflectivity,
        room.lamp, room.lamp_semi_angle_deg,
        room.receiver, room.detector_area_m2, room.concentrator_index, room.filter_transmission,
    )


_VIEWS: dict[tuple, _ReceiverView] = {}  # by _room_key, least recently used first


def _receiver_view(room: RoomScenario) -> _ReceiverView:
    """The room's view, built once while it stays among the 64 rooms used last."""
    key = _room_key(room)
    _VIEWS[key] = view = _VIEWS.pop(key, None) or _ReceiverView(room)
    if len(_VIEWS) > 64:
        del _VIEWS[next(iter(_VIEWS))]
    return view


def total_reflected_gain(
    room: RoomScenario,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    *,
    fov_deg: float | Sequence[float] | np.ndarray | None = None,
) -> float | np.ndarray:
    """Single-bounce gain from the lamp via the walls and floor into the receiver.

    ``patches_per_meter`` is the order of the Gauss-Legendre rule in psi on
    each piece, so the cost grows linearly with it and does not depend on
    the room size.  ``fov_deg`` puts one FOV or an array in place of the
    room's, as in ``los_gain_for``.  The value at a FOV is the sum over the
    whole psi pieces below it plus one partial piece ending at it, each
    piece summed in a fixed order, so element i of an array call equals the
    call at FOV i, bit for bit.  The values stay on the room's view, so a
    call computes only the FOVs not yet known for the room at this order,
    all in one pass.
    """
    if not isinstance(patches_per_meter, numbers.Integral) or patches_per_meter < 1:
        raise ValueError(f"patches_per_meter must be an integer >= 1, got {patches_per_meter!r}")
    order = int(patches_per_meter)
    fovs = np.asarray(room.fov_deg if fov_deg is None else fov_deg, dtype=float)
    fov_list = fovs.ravel().tolist()
    view = _receiver_view(room)
    known = view.integrals.setdefault(order, {})
    missing = [f for f in dict.fromkeys(fov_list) if f not in known]
    if missing:
        gains = [concentrator_gain(room.concentrator_index, f) for f in missing]
        ends = [math.radians(f) for f in missing]
        first = np.searchsorted(view.bounds, ends, side="right") - 1  # the partial piece starts here
        whole = int(first.max())
        lo = np.concatenate([view.bounds[:whole], view.bounds[first]])
        hi = np.concatenate([view.bounds[1 : whole + 1], ends])
        positions, weights = _mapped_rule(order)
        step = max(1, _PIECE_BLOCK // len(positions))
        pieces = np.concatenate([view.piece_sums(lo[k : k + step], hi[k : k + step], positions, weights) for k in range(0, len(lo), step)])
        below = np.concatenate([[0.0], np.cumsum(pieces[:whole])])
        scale = room.detector_area_m2 * (view.m1 + 1.0) / (2.0 * math.pi**2) * room.filter_transmission
        with np.errstate(over="ignore"):  # a room a few nm across collects an unbounded gain
            computed = [float((below[k] + part) / view.scale / view.scale * (scale * g)) for k, part, g in zip(first.tolist(), pieces[whole:].tolist(), gains)]
        known.update(zip(missing, computed))
    values = [known[f] for f in fov_list]
    return values[0] if fovs.ndim == 0 else np.reshape(values, fovs.shape)


def reflected_gain_convergence(
    room: RoomScenario,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    rtol: float = 0.005,
) -> ConvergenceReport:
    """The bounce integral at the requested rule order and at twice that order.

    Both come from ``total_reflected_gain``, so the first is the one a sweep
    of the room already computed.  Emits ReflectionConvergenceWarning
    (carrying both estimates) when the relative change exceeds ``rtol``.
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
            f"reflected-gain quadrature moved {rel:.3%} between orders {patches_per_meter} and "
            f"{2 * patches_per_meter} ({value:.6e} -> {refined:.6e})",
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
