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
computed for the room so far, by rule order and FOV, and the sums of the
whole psi pieces below them, so a wider FOV sums only the pieces beyond.
A pass traces its psi nodes in blocks that all work in one array, made for
the pass and sized for its largest block, so that no block's temporaries go
back to the system to be faulted in again by the next.  A block writes its
rings' arc knots and both crossings of each edge plane into one bounds
matrix and sorts it in place.  The crossings are reduced to [0, 2 pi] with
np.fmod plus a turn where negative, and the nan of a ring that misses a
plane set to 0; np.mod would give the same bits through a full divmod with
a slow path on nan, and most rings miss most planes.  The ray directions
skip the frame coefficients that are exactly 0: six of the nine for a
receiver facing straight down.
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
_TURN = 2.0 * math.pi
# The arc knots of every ring, the first _THETA_ARCS + 1 columns of its bounds.
_ARC_KNOTS = np.linspace(0.0, _TURN, _THETA_ARCS + 1)
_ARC_KNOTS.flags.writeable = False
# Most psi nodes traced at once; a pass's work array holds about 28 kB per node of a block.
_PSI_BLOCK = 32
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


def _reduce_turns(x: np.ndarray) -> np.ndarray:
    """x into [0, 2 pi] in place, nan (a ring that misses a plane) to 0: bit for bit
    ``np.nan_to_num(np.mod(x, 2 pi))`` without np.mod's divmod and its slow path on nan."""
    np.fmod(x, _TURN, out=x)
    x += (x < 0.0) * _TURN  # as np.mod adds the turn; adding 0.0 turns -0 into its +0
    return np.fmax(x, 0.0, out=x)


class _ReceiverView:
    """The room as the receiver sees it: its frame, the planes that close the
    room (the five surfaces of ``wall_and_floor_grids`` and a ceiling that
    reflects nothing) and the room edges.

    Positions are taken from the receiver and divided by ``scale``, the power
    of two just above the shortest room side (or 2^-1022 times the longest,
    if larger, so that every position stays finite): the near surfaces, which
    carry the integral, lie about one unit away in a room of any size, and a
    far one's d1^2 may overflow, sending its radiance to 0.  A radiance in
    these units is the true one times scale^2.  ``integrals`` holds the
    room's bounce integrals computed so far, by rule order and then by FOV.
    """

    def __init__(self, room: RoomScenario) -> None:
        grids = wall_and_floor_grids(room, 1)
        extent = np.array([[g.n_u * g.cell_u, g.n_v * g.cell_v] for g in grids])
        self.scale = math.ldexp(1.0, max(math.frexp(float(extent.min()))[1], math.frexp(float(extent.max()))[1] - 1022))
        receiver = np.array(room.receiver.position.as_tuple())
        local = lambda points: (np.asarray(points) - receiver) / self.scale  # noqa: E731
        axis = np.array(room.receiver.axis.as_tuple())
        helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(axis, helper)
        e1 /= np.linalg.norm(e1)
        self.frame = np.array([axis, e1, np.cross(axis, e1)])
        # Each of omega's x, y, z as e1 sin(psi) cos(theta) + axis cos(psi) + e2 sin(psi) sin(theta),
        # summed in that order, less the terms whose frame coefficient is 0 (they add 0 * x):
        # (coefficient, 0 for cos(psi), 1 for the cos(theta) term, 2 for the sin(theta) one).
        self.omega_terms = [
            [(c, j) for c, j in ((on_e1, 1), (on_axis, 0), (on_e2, 2)) if c != 0.0] for on_axis, on_e1, on_e2 in self.frame.T.tolist()
        ]
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
        length = np.abs(ends - starts).max(axis=1)  # the edges are axis-aligned
        kept = length > 0.0  # a side that underflows in these units bounds nothing
        self.edge_start, self.edge_length = starts[kept], length[kept]
        self.edge_dir = (ends - starts)[kept] / self.edge_length[:, None]
        # The normal, in the receiver's frame, of the plane through the receiver and each edge line.
        self.edge_normal = self.frame @ np.cross(self.edge_start, self.edge_dir).T

        self.normal = np.vstack([normal, -normal[0]])  # the ceiling faces the floor
        # Each plane's signed offset from the receiver, <= 0 inside the room.
        self.height = np.append(np.einsum("ij,ij->i", corner, normal), -np.max(ends @ normal[0]))
        # Planes 1, 3, 0 (x = 0, y = 0, floor) lie ahead of a negative component, 2, 4, 5 of a positive one.
        self.near_height, self.far_height = self.height[[1, 3, 0]], (-self.height[[2, 4, 5]]).tolist()
        # rho times the lamp's height over each plane (cos(alpha) d1 at any point of it)
        over = np.clip(self.normal @ self.lamp - self.height, 0.0, None)
        self.lamp_gain = np.append([g.reflectivity for g in grids], 0.0) * over
        # The psi cuts: 15-degree panels, every room corner and every interior psi extreme of an edge.
        u = self.edge_start
        w = np.einsum("ij,ij->i", u, self.edge_dir)
        foot = u - w[:, None] * self.edge_dir  # the edge line's point nearest the receiver, at s = -w
        p, q, r = foot @ axis, self.edge_dir @ axis, np.einsum("ij,ij->i", foot, foot)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a far edge's cut is lost
            s = q * r / p - w  # d psi / ds = 0 along the edge line
            inner = (s > 0.0) & (s < self.edge_length)
            points = np.vstack([u, u + self.edge_length[:, None] * self.edge_dir, u[inner] + s[inner, None] * self.edge_dir[inner]])
            distance = np.linalg.norm(points, axis=1)
        seen = distance > 0.0
        psi = np.arccos(np.clip(points[seen] @ axis / distance[seen], -1.0, 1.0))
        panels = np.radians(np.arange(0.0, 90.0, _PANEL_DEG))
        self.bounds = np.unique(np.concatenate([panels, psi[(psi > 0.0) & (psi < 0.5 * math.pi)], [0.5 * math.pi]]))
        self.integrals: dict[int, dict[float, float]] = {}
        self.whole_pieces: dict[int, np.ndarray] = {}

    def piece_sums(self, lo: np.ndarray, hi: np.ndarray, positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """int_lo^hi sin(psi) cos(psi) (ring integral) d psi on each piece, by the mapped rule;
        every block of ring integrals works in one array, sized for the largest block."""
        psi = (lo[:, None] + (hi - lo)[:, None] * positions).ravel()
        weight = ((hi - lo)[:, None] * weights).ravel() * np.sin(psi) * np.cos(psi)
        work = np.empty(8 * _THETA_ORDER * (_THETA_ARCS + 2 * self.edge_length.size) * min(len(psi), _PSI_BLOCK))
        ring = np.concatenate([self.ring_integrals(psi[k : k + _PSI_BLOCK], work) for k in range(0, len(psi), _PSI_BLOCK)])
        return np.bincount(np.repeat(np.arange(len(lo)), len(positions)), weight * ring)

    def ring_integrals(self, psi: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """int_0^{2 pi} rho cos(phi)^m1 cos(alpha) / d1^2 d theta on the ring of directions at each psi.

        The theta nodes' intermediates go to ``work``, 8 floats a node (allocated if not given).
        """
        cos_psi, sin_psi = np.cos(psi)[:, None], np.sin(psi)[:, None]
        # Each ring's bounds: the arc knots, then where the ring crosses the plane through
        # the receiver and each edge line, a cos(theta) + b sin(theta) = c, at mid -+ half.
        n_axis, n_e1, n_e2 = self.edge_normal
        edges = len(n_axis)
        bounds = np.empty((len(psi), _THETA_ARCS + 1 + 2 * edges))
        bounds[:, : _THETA_ARCS + 1] = _ARC_KNOTS
        cuts = bounds[:, _THETA_ARCS + 1 :]
        a, b = sin_psi * n_e1, sin_psi * n_e2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            half = np.hypot(a, b)
            np.arccos(np.divide(-cos_psi * n_axis, half, out=half), out=half)  # nan where the ring misses the plane
            mid = np.arctan2(b, a, out=b)
            np.subtract(mid, half, out=cuts[:, :edges])
            np.add(mid, half, out=cuts[:, edges:])
            _reduce_turns(cuts)
        bounds.sort(axis=1)
        width = bounds[:, 1:] - bounds[:, :-1]
        ring, arc = np.nonzero(width > 0.0)
        positions, weights = _mapped_rule(_THETA_ORDER)
        start, span = bounds[ring, arc][:, None], width[ring, arc][:, None]
        n = len(ring) * _THETA_ORDER
        work = np.empty(8 * n) if work is None else work
        omega = work[: 3 * n].reshape(3, len(ring), _THETA_ORDER)
        theta, cos_theta, sin_theta, term = work[3 * n : 7 * n].reshape(4, len(ring), _THETA_ORDER)
        np.add(np.multiply(span, positions, out=theta), start, out=theta)
        ring_sin_psi = sin_psi[ring]
        np.multiply(np.cos(theta, out=cos_theta), ring_sin_psi, out=cos_theta)
        np.multiply(np.sin(theta, out=sin_theta), ring_sin_psi, out=sin_theta)
        sources = (cos_psi[ring], cos_theta, sin_theta)
        for k, ((c, j), *rest) in enumerate(self.omega_terms):
            np.multiply(c, sources[j], out=omega[k])
            for c, j in rest:
                omega[k] += np.multiply(c, sources[j], out=term)
        radiance = self._radiance(omega, work[3 * n :])
        weight = np.multiply(span, weights, out=omega[0])
        return np.bincount(np.repeat(ring, _THETA_ORDER), np.multiply(weight, radiance, out=weight).ravel(), minlength=len(psi))

    def _radiance(self, omega: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """rho cos(phi)^m1 cos(alpha) / d1^2 where the rays from the receiver
        along ``omega`` (x, y, z on the first axis) leave the room: the nearest
        of the planes ahead on each axis, whose height / facing is exact, for
        the normals are axis-aligned.  Ties go as ``np.argmin`` over all six.
        The intermediates go to ``work``, 5 floats a ray (allocated if not given),
        and so does the result.
        """
        shape = (3,) + (1,) * (omega.ndim - 1)
        n = omega[0].size
        work = np.empty(5 * n) if work is None else work
        reach = work[: 3 * n].reshape(omega.shape)
        t, spare = work[3 * n : 5 * n].reshape((2,) + omega.shape[1:])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the plane behind gives a value <= 0
            np.divide(self.near_height.reshape(shape), omega, out=reach)
            for k, height in enumerate(self.far_height):
                np.maximum(reach[k], np.divide(height, omega[k], out=spare), out=reach[k])
            if not omega.all():  # parallel to both planes of an axis
                reach[omega == 0.0] = np.inf
            (t_x, t_y, t_z), (up_x, up_y, up_z) = reach, (omega > 0.0).view(np.int8)
            np.minimum(t_x, t_y, out=t)
            plane = 3 + up_y - (2 + up_y - up_x) * (t_x <= t_y).view(np.int8)  # x walls 1, 2 win a tie with y walls 3, 4
            z_first = (t_z < t) | ((t_z == t) & (up_z == 0))  # the floor 0 wins a tie, the ceiling 5 loses it
            plane += (5 * up_z - plane) * z_first.view(np.int8)
            np.minimum(t, t_z, out=t)
            v1 = np.subtract(np.multiply(t, omega, out=reach), self.lamp.reshape(shape), out=reach)
            d1_sq = np.multiply(v1[0], v1[0], out=t)
            d1_sq += np.multiply(v1[1], v1[1], out=spare)
            d1_sq += np.multiply(v1[2], v1[2], out=spare)
            d1 = np.sqrt(d1_sq, out=spare)
            along = np.multiply(v1[0], self.lamp_axis[0], out=v1[0])
            along += np.multiply(v1[1], self.lamp_axis[1], out=v1[1])
            along += np.multiply(v1[2], self.lamp_axis[2], out=v1[2])
            cos_phi = np.maximum(np.divide(along, d1, out=along), 0.0, out=along)  # np.clip's lower bound alone
            cos_phi **= self.m1
            # cos(alpha) d1 is the lamp's height over the plane hit
            radiance = np.multiply(self.lamp_gain.take(plane), cos_phi, out=cos_phi)
            radiance /= np.multiply(d1_sq, d1, out=spare)
        # nan only at the lamp itself (d1 = 0, on a plane it lies in) or past the float range; neither reflects
        np.copyto(radiance, 0.0, where=np.isnan(radiance))
        return radiance


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
        ends = np.array([math.radians(f) for f in missing])
        first = np.searchsorted(view.bounds, ends, side="right") - 1  # the partial piece starts here
        partial = view.bounds[first] < ends  # a FOV on a cut has none
        whole = view.whole_pieces.get(order, np.zeros(0))
        have, added = len(whole), max(0, int(first.max()) - len(whole))  # the whole pieces summed and still to sum
        lo = np.concatenate([view.bounds[have : have + added], view.bounds[first[partial]]])
        hi = np.concatenate([view.bounds[have + 1 : have + added + 1], ends[partial]])
        positions, weights = _mapped_rule(order)
        step = max(1, _PIECE_BLOCK // len(positions))
        pieces = np.concatenate([np.zeros(0), *(view.piece_sums(lo[k : k + step], hi[k : k + step], positions, weights) for k in range(0, len(lo), step))])
        whole = view.whole_pieces[order] = np.concatenate([whole, pieces[:added]])
        below = np.concatenate([[0.0], np.cumsum(whole)])
        parts = np.zeros(len(missing))
        parts[partial] = pieces[added:]
        scale = room.detector_area_m2 * (view.m1 + 1.0) / (2.0 * math.pi**2) * room.filter_transmission
        with np.errstate(over="ignore"):  # a side under about 1e-155 m collects an unbounded gain
            computed = [float((below[k] + part) / view.scale / view.scale * (scale * g)) for k, part, g in zip(first.tolist(), parts.tolist(), gains)]
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
    if refined == value:  # 0, or an inf that no order changes (a side under about 1e-155 m)
        rel = 0.0
    else:
        rel = abs(refined - value) / abs(refined) if refined != 0.0 else math.inf
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
