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
reflects nothing, nor does a plane that holds the receiver, which sees it
edge-on).  This is the Monte-Carlo oracle's next-event trace run from the
receiver side and made deterministic.  psi is cut at the psi extremes of
every room edge and into panels no wider than ``_PANEL_DEG``; each ring of
directions at one psi into equal arcs and where it crosses the plane
through the receiver and a room edge it meets (whose psi interval holds the
ring's psi), the only places its exit plane can switch.  L is smooth on
every piece, and Gauss-Legendre rules mapped through s -> 3s^2 - 2s^3
absorb the square-root ends at edge tangencies.  The FOV enters only as the
upper limit and through g, and the room size not at all.  The psi rule's
order is the caller's; the theta rule (the number of equal arcs and the
nodes per arc) follows the lamp's mode m1 from ``_THETA_RULES``, for a
narrow lamp's spot is a sharp peak along the ring and a wide lamp's light
is smooth.  The convergence report checks both rules: it doubles the psi
order, and apart from that the theta nodes per arc.

The room is the box of its sides about the receiver, whose 12 edges cut psi
and theta.  A ray leaves through the nearest of three of its planes, each
picked on its axis by the sign of the ray's component there (the oracle's
slab rule); ties go to the floor, the x walls, the y walls, the ceiling
last.  One view is kept, the room in use's, until a call for another room
replaces it.  It holds the integrals computed for the room so far, by (psi
order, theta rule) and FOV, and the sums of the whole psi pieces below
them, so a wider FOV sums only the pieces beyond.  A pass sorts the arc
knots and both crossings of each edge plane of the rings that meet an edge
in one bounds matrix; a ring that meets none keeps its equal arcs, and
reads cos theta and sin theta at their nodes from one table per theta rule,
the bits a pass computes elsewhere.  The crossings are reduced to [0, 2 pi]
with np.fmod plus a turn where negative, and the nan of a ring that misses
a plane set to 0; np.mod would give the same bits through a full divmod
with a slow path on nan.  The rays then go in blocks of whole rings, at
most ``_RAY_BLOCK`` rays or one ring, through one work array made for the
pass, and np.bincount sums each ring in ray order, so a ring has the same
bits in any block.  The ray directions skip the frame coefficients that are
exactly 0: six of the nine for a receiver facing straight down.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import _LARGEST_FLOAT, _SMALLEST_POSITIVE, RoomScenario, _cross, _frame, _in_range, _one_number, concentrator_gain, lambert_mode, link_geometry, wall_and_floor_grids

__all__ = [
    "PLANCK_J_S",
    "SPEED_OF_LIGHT_M_S",
    "DetectorParams",
    "ChannelGains",
    "ConvergenceReport",
    "los_gain_for",
    "total_reflected_gain",
    "reflected_gain_convergence",
]

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

# The psi rule order per piece (config key resolution_patches_per_meter, from the old patch sum).
DEFAULT_ORDER = 10
# Largest relative change between the rule order and twice it that counts as converged.
CONVERGENCE_RTOL = 0.005
# Widest psi panel, so that one rule order serves a narrow cone and a wide one.
_PANEL_DEG = 15.0
# The theta rule by lamp mode: (largest m1, equal arcs a ring is cut into before the edge
# crossings cut it further, Gauss-Legendre nodes per arc), the first row the lamp's m1
# fits.  Lamps of 60 degrees and wider get the rule of fewest nodes on an uncut ring (of
# 4-12 arcs, 4-12 nodes) whose theta change at order 10 and FOVs 2-30 degrees stays within
# 5e-8 (1e-5 of CONVERGENCE_RTOL, the psi order's own change at order 10 for 10-60 degree
# lamps) over this room set (tests/test_channel.py::theta_rule_rooms): the five
# scenarios; lamps 0.5-1 m off a ceiling-centre receiver in 4 x 4 x 3, 5.5 x 3.5 x 2.5 and
# 3.5 x 5.5 x 3.5 m rooms; a receiver aimed at a floor corner, a low tilted receiver and a
# tilted lamp.  That is 4 x 10 (worst 5.3e-9 at 70 degrees, 6.8e-9 at 60; 6 x 8 gives 5.1e-8,
# and 4 x 9, of fewer nodes, passes at 4.8e-8).  A narrow lamp's spot is a sharp peak along
# the ring: for narrower lamps the smaller rules that pass fail the patch-sum gate at wide
# FOVs (4 x 12: 1.9e-4 off at 80 degrees, against 1e-4) or use most of it (8 x 12: 0.73,
# 12 x 12: 0.13), so they keep 12 x 12, and lamps of 5 degrees or less miss the bound even there (3.6e-7 at 5).
# Receivers 1-4 m from a wide lamp can see 4 x 10 miss it too (up to 4e-5); the
# convergence report shows every miss.  A theta order of 28 or more (the check doubles the
# nodes) would wake the BLAS worker threads in _mapped_rule.
_THETA_RULES = ((lambert_mode(60.0), 4, 10), (math.inf, 12, 12))
_TURN = 2.0 * math.pi
# Most rays traced at once (a block holds whole rings, at least one); its work array holds 8 floats a ray, 512 kB.
_RAY_BLOCK = 8192
# Most psi nodes laid out at once (a FOV axis brings one piece per FOV).
_PIECE_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class DetectorParams:
    """Single-photon detector figures shared by signal and noise paths,
    with the wavelength it detects."""

    efficiency: float
    dark_count_rate_hz: float
    pulse_width_s: float
    wavelength_nm: float

    def __post_init__(self) -> None:
        _in_range("detector efficiency", self.efficiency, _SMALLEST_POSITIVE, 1.0)
        _in_range("dark_count_rate_hz", self.dark_count_rate_hz, 0.0, _LARGEST_FLOAT)
        _in_range("pulse_width_s", self.pulse_width_s, _SMALLEST_POSITIVE, _LARGEST_FLOAT)
        _one_number(**{f.name: getattr(self, f.name) for f in fields(self)})
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
        _in_range("line_of_sight", self.line_of_sight, 0.0, 1.0)
        _in_range("transmittance", self.transmittance, 0.0, 1.0)
        _in_range("reflected_integral", self.reflected_integral, 0.0, math.inf)


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """The bounce integral of one room under its rules and under each refined.

    ``value`` is ``total_reflected_gain`` at the room's FOV, psi rule order
    ``order`` and the room's theta rule ``theta_rule`` (arcs,
    Gauss-Legendre nodes per arc); ``refined_value`` is the same at twice
    the psi order, and ``theta_refined_value`` at the same psi order with
    twice the theta nodes per arc.  ``rel_change`` and ``theta_rel_change``
    are ``|refined - value|`` relative to ``|refined|`` for each: 0 when the
    two are equal (both 0, or an inf no rule changes) and inf when only the
    refined one is 0.  ``converged`` is both changes <= ``CONVERGENCE_RTOL``.
    """

    value: float
    refined_value: float
    rel_change: float
    theta_refined_value: float
    theta_rel_change: float
    converged: bool
    order: int
    theta_rule: tuple[int, int]


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


@lru_cache(maxsize=None)
def _arc_knots(arcs: int) -> np.ndarray:
    """The knots of ``arcs`` equal arcs of a turn: the first columns of every ring's bounds."""
    knots = np.linspace(0.0, _TURN, arcs + 1)
    knots.flags.writeable = False
    return knots


@lru_cache(maxsize=None)
def _knot_trig(arcs: int, nodes: int) -> np.ndarray:
    """cos(theta) and sin(theta) at the ``nodes`` nodes of each of ``arcs`` equal arcs, as ``ring_integrals`` computes them."""
    theta = np.add(np.multiply(np.diff(_arc_knots(arcs))[:, None], _mapped_rule(nodes)[0]), _arc_knots(arcs)[:-1, None])
    table = np.array([np.cos(theta), np.sin(theta)])
    table.flags.writeable = False
    return table


def _reduce_turns(x: np.ndarray) -> np.ndarray:
    """x into [0, 2 pi] in place, nan (a ring that misses a plane) to 0: bit for bit
    ``np.nan_to_num(np.mod(x, 2 pi))`` without np.mod's divmod and its slow path on nan."""
    np.fmod(x, _TURN, out=x)
    x += (x < 0.0) * _TURN  # as np.mod adds the turn; adding 0.0 turns -0 into its +0
    return np.fmax(x, 0.0, out=x)


class _ReceiverView:
    """The room as the receiver sees it: its frame and the room as the box
    [near, far] on each axis, from the sides of the ``RoomScenario``.  The
    box gives the planes (in the order of ``normal``), their heights and the
    12 edges.  Of ``wall_and_floor_grids`` only the reflectivities are read:
    the call stays while perfbench's tracer counts its cells.  A plane that
    holds the receiver is seen edge-on and sends it nothing.

    Positions are taken from the receiver and divided by ``scale``, the power
    of two just above the shortest room side (or 2^-1022 times the longest,
    if larger, so that every position stays finite): the near surfaces, which
    carry the integral, lie about one unit away in a room of any size, and a
    far one's d1^2 may overflow, sending its radiance to 0.  A radiance in
    these units is the true one times scale^2.  ``theta_rule`` is the (arcs,
    nodes per arc) of ``_THETA_RULES`` for the lamp's mode.  ``integrals``
    holds the room's bounce integrals computed so far, by (psi rule order,
    theta rule) and then by FOV.
    """

    # The inward normals of the floor, the walls x = 0, x = X, y = 0, y = Y and the ceiling.
    normal = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

    def __init__(self, room: RoomScenario) -> None:
        sides = np.array([room.room_x_m, room.room_y_m, room.room_z_m])
        self.scale = math.ldexp(1.0, max(math.frexp(float(sides.min()))[1], math.frexp(float(sides.max()))[1] - 1022))
        receiver = np.array(room.receiver.position.as_tuple())
        near = -receiver / self.scale
        far = near + sides / self.scale  # the room is the box [near, far] on each axis
        axis = np.array(room.receiver.axis.as_tuple())
        self.frame = np.array([axis, *_frame(axis)])
        # Each of omega's x, y, z as e1 sin(psi) cos(theta) + axis cos(psi) + e2 sin(psi) sin(theta),
        # summed in that order, less the terms whose frame coefficient is 0 (they add 0 * x):
        # (coefficient, 0 for cos(psi), 1 for the cos(theta) term, 2 for the sin(theta) one).
        self.omega_terms = [
            [(c, j) for c, j in ((on_e1, 1), (on_axis, 0), (on_e2, 2)) if c != 0.0] for on_axis, on_e1, on_e2 in self.frame.T.tolist()
        ]
        self.lamp = (np.array(room.lamp.position.as_tuple()) - receiver) / self.scale
        self.lamp_axis = np.array(room.lamp.axis.as_tuple())
        self.along_terms = [(k, c) for k, c in enumerate(self.lamp_axis.tolist()) if c != 0.0]  # the others add 0 * v1
        self.m1 = lambert_mode(room.lamp_semi_angle_deg)
        self.theta_rule = next((arcs, nodes) for top, arcs, nodes in _THETA_RULES if self.m1 <= top)

        # Columns for _radiance: on each axis the plane ahead of a negative component, and of a positive one.
        self.near_height, self.far_height, self.lamp_column = near[:, None], far[:, None], self.lamp[:, None]
        self.height = np.array([near[2], near[0], -far[0], near[1], -far[1], -far[2]])  # each plane's signed offset, <= 0 inside
        # Only the reflectivities are read: the call stays while perfbench counts its 1/m cells (ROADMAP item 6, step A).
        rho = np.append([g.reflectivity for g in wall_and_floor_grids(room, 1)], 0.0)
        # rho times the lamp's height over each plane (cos(alpha) d1 on it); 0 on a plane that holds the receiver, seen edge-on
        self.lamp_gain = rho * np.clip(self.normal @ self.lamp - self.height, 0.0, None) * (self.height < 0.0)

        side = np.indices((2, 2, 2)).reshape(3, 8).T  # each room corner: 0 (near) or 1 (far) on each axis
        # The 12 edges, from each corner along each axis it is near on, less those that underflow in these units (they bound nothing).
        corner, along = np.nonzero((side == 0) & (far > near))
        u, direction, length = np.array([near, far])[side[corner], [0, 1, 2]], np.eye(3)[along], (far - near)[along]
        self.edge_start, self.edge_end = u, np.where(direction == 1.0, far, u)  # an edge ends on the far plane of its axis
        # The normal, in the receiver's frame, of the plane through the receiver and each edge line.
        self.edge_normal = self.frame @ _cross(u, direction).T
        # The psi cuts: 15-degree panels, every room corner and every interior psi extreme of an edge.
        w = np.einsum("ij,ij->i", u, direction)
        foot = u - w[:, None] * direction  # the edge line's point nearest the receiver, at s = -w
        p, q, r = foot @ axis, direction @ axis, np.einsum("ij,ij->i", foot, foot)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a far edge's cut is lost
            s = q * r / p - w  # d psi / ds = 0 along the edge line
            inner = (s > 0.0) & (s < length)
            # Each edge's start, end and interior extreme (its start again where it has none), and their psi.
            points = np.array([u, self.edge_end, np.where(inner[:, None], u + s[:, None] * direction, u)])
            distance = np.linalg.norm(points, axis=2)
            psi = np.where((distance > 0.0) & (distance < math.inf), np.arccos(np.clip(points @ axis / distance, -1.0, 1.0)), math.nan)
        # Each edge's psi interval, a few ulps wider; nan, met by every ring, where a point lies at the receiver or past the float range.
        lo, hi = psi.min(axis=0), psi.max(axis=0)
        self.edge_psi = lo - 4.0 * np.spacing(lo), hi + 4.0 * np.spacing(hi)
        panels = np.radians(np.arange(0.0, 90.0, _PANEL_DEG))
        cuts = np.sort(np.concatenate([panels, psi[(psi > 0.0) & (psi < 0.5 * math.pi)], [0.5 * math.pi]]))
        self.bounds = cuts[np.append(True, cuts[1:] != cuts[:-1])]  # np.unique's result, without its numpy.ma import
        self.integrals: dict[tuple[int, tuple[int, int]], dict[float, float]] = {}
        self.whole_pieces: dict[tuple[int, tuple[int, int]], np.ndarray] = {}

    def piece_sums(self, lo: np.ndarray, hi: np.ndarray, positions: np.ndarray, weights: np.ndarray, theta_rule: tuple[int, int]) -> np.ndarray:
        """int_lo^hi sin(psi) cos(psi) (ring integral) d psi on each piece, by the mapped rule."""
        psi = (lo[:, None] + (hi - lo)[:, None] * positions).ravel()
        weight = ((hi - lo)[:, None] * weights).ravel() * np.sin(psi) * np.cos(psi)
        return np.bincount(np.repeat(np.arange(len(lo)), len(positions)), weight * self.ring_integrals(psi, theta_rule))

    def ring_integrals(self, psi: np.ndarray, theta_rule: tuple[int, int]) -> np.ndarray:
        """int_0^{2 pi} rho cos(phi)^m1 cos(alpha) / d1^2 d theta on the ring of directions at each psi,
        by ``theta_rule`` (arcs, nodes per arc), traced in blocks of whole rings."""
        arcs, nodes = theta_rule
        cos_psi, sin_psi = np.cos(psi)[:, None], np.sin(psi)[:, None]
        start, span, count = self._sub_arcs(psi[:, None], cos_psi, sin_psi, arcs)
        first, ends = [0, *count.cumsum().tolist()], [0]  # ring r's sub-arcs are first[r]:first[r + 1]
        while ends[-1] < len(psi):  # a block ends at the last ring end within _RAY_BLOCK rays of its start, or one ring on
            ends.append(max(ends[-1] + 1, bisect.bisect_right(first, first[ends[-1]] + _RAY_BLOCK // nodes) - 1))
        work = np.empty(8 * nodes * max((first[b] - first[a] for a, b in zip(ends, ends[1:])), default=0))
        (positions, weights), out, table, knots = _mapped_rule(nodes), np.empty(len(psi)), _knot_trig(arcs, nodes), _arc_knots(arcs)
        for a, b in zip(ends, ends[1:]):
            k, n = slice(first[a], first[b]), (first[b] - first[a]) * nodes
            ring = np.repeat(np.arange(b - a), count[a:b])  # each sub-arc's ring in the block
            omega = work[: 3 * n].reshape(3, -1, nodes)
            theta, cos_theta, sin_theta, term = trig = work[3 * n : 7 * n].reshape(4, -1, nodes)
            np.add(np.multiply(span[k], positions, out=theta), start[k], out=theta)
            # A ring of as many sub-arcs as equal arcs has the equal arcs, whose trig the table holds ("clip": no buffer); others compute theirs.
            table.take(knots.searchsorted(start[k, 0]), axis=1, out=trig[1:3], mode="clip")
            computed = (count[a:b] != arcs).repeat(count[a:b])[:, None]
            np.cos(theta, out=cos_theta, where=computed)
            np.sin(theta, out=sin_theta, where=computed)
            np.multiply(trig[1:3], sin_psi[a:b][ring], out=trig[1:3])
            sources = (cos_psi[a:b][ring], cos_theta, sin_theta)
            for j, ((c, i), *rest) in enumerate(self.omega_terms):
                np.multiply(c, sources[i], out=omega[j])
                for c, i in rest:
                    omega[j] += np.multiply(c, sources[i], out=term)
            radiance = self._radiance(omega, work[3 * n :])
            weight = np.multiply(span[k], weights, out=omega[0])
            out[a:b] = np.bincount(np.repeat(ring, nodes), np.multiply(weight, radiance, out=weight).ravel(), minlength=b - a)
        return out

    def _sub_arcs(self, psi: np.ndarray, cos_psi: np.ndarray, sin_psi: np.ndarray, arcs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ring's sub-arcs, between its arc knots and where it crosses the plane through the receiver
        and each edge line, a cos(theta) + b sin(theta) = c, at mid -+ half: starts and spans, and the count per ring.
        A ring outside an edge's psi interval never meets the edge: both its crossings go to 0, as a missed plane's."""
        missed = (psi < self.edge_psi[0]) | (psi > self.edge_psi[1])
        met = ~missed.all(axis=1)  # a ring that meets no edge keeps its row of zero crossings, then the knots: no trig, no sort
        (n_axis, n_e1, n_e2), edges = self.edge_normal, self.edge_normal.shape[1]
        bounds = np.zeros((len(psi), 2 * edges + arcs + 1))
        bounds[:, 2 * edges :] = _arc_knots(arcs)
        rows, a, b = bounds[met], sin_psi[met] * n_e1, sin_psi[met] * n_e2  # the met rings' rows: crossings, then the knots
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            half = np.hypot(a, b)
            np.arccos(np.divide(-cos_psi[met] * n_axis, half, out=half), out=half)  # nan where the ring misses the plane
            half[missed[met]] = math.nan  # an edge outside the ring's reach: both crossings reduce to 0, as a missed plane's
            mid = np.arctan2(b, a, out=b)
            np.subtract(mid, half, out=rows[:, :edges])
            np.add(mid, half, out=rows[:, edges : 2 * edges])
            _reduce_turns(rows[:, : 2 * edges])
        rows.sort(axis=1)
        bounds[met] = rows
        width = bounds[:, 1:] - bounds[:, :-1]
        arc = width > 0.0
        return bounds[:, :-1][arc][:, None], width[arc][:, None], arc.sum(axis=1)

    def _radiance(self, omega: np.ndarray, work: np.ndarray) -> np.ndarray:
        """rho cos(phi)^m1 cos(alpha) / d1^2 where the rays from the receiver
        along ``omega`` (x, y, z on the first axis) leave the room: the nearest
        of the planes ahead on each axis, whose height / facing is exact, for
        the normals are axis-aligned.  Ties go as ``np.argmin`` over all six.
        The intermediates go to ``work``, 5 floats a ray, and so does the result.
        """
        shape, n = omega.shape[1:], omega[0].size
        omega = omega.reshape(3, n)
        reach = work[: 3 * n].reshape(3, n)
        t, spare = work[3 * n : 5 * n].reshape(2, n)
        up = omega > 0.0
        np.copyto(reach, self.near_height)
        np.copyto(reach, self.far_height, where=up)  # the plane ahead on each axis
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(reach, omega, out=reach)
            if not omega.all():  # parallel to both planes of an axis
                reach[omega == 0.0] = np.inf
            (t_x, t_y, t_z), (up_x, up_y, up_z) = reach, up.view(np.int8)
            np.minimum(t_x, t_y, out=t)
            plane = 3 + up_y - (2 + up_y - up_x) * (t_x <= t_y).view(np.int8)  # x walls 1, 2 win a tie with y walls 3, 4
            z_first = (t_z < t) | ((t_z == t) & (up_z == 0))  # the floor 0 wins a tie, the ceiling 5 loses it
            plane += (5 * up_z - plane) * z_first.view(np.int8)
            np.minimum(t, t_z, out=t)
            v1 = np.subtract(np.multiply(t, omega, out=reach), self.lamp_column, out=reach)
            d1_sq = np.multiply(v1[0], v1[0], out=t)
            d1_sq += np.multiply(v1[1], v1[1], out=spare)
            d1_sq += np.multiply(v1[2], v1[2], out=spare)
            d1 = np.sqrt(d1_sq, out=spare)
            (k, c), *rest = self.along_terms
            along = np.multiply(v1[k], c, out=v1[k])
            for k, c in rest:
                along += np.multiply(v1[k], c, out=v1[k])
            cos_phi = np.maximum(np.divide(along, d1, out=along), 0.0, out=along)  # np.clip's lower bound alone
            cos_phi **= self.m1
            # cos(alpha) d1 is the lamp's height over the plane hit
            radiance = np.multiply(self.lamp_gain.take(plane), cos_phi, out=cos_phi)
            radiance /= np.multiply(d1_sq, d1, out=spare)
        # nan only at the lamp itself (d1 = 0, on a plane it lies in) or past the float range; neither reflects
        np.copyto(radiance, 0.0, where=np.isnan(radiance))
        return radiance.reshape(shape)


# The RoomScenario fields the bounce integral does not read: the transmitter and its beam, the FOV (each call's own) and the filter's width.
_UNREAD_FIELDS = ("transmitter", "tx_semi_angle_deg", "fov_deg", "filter_bandwidth_nm")
# What a room's bounce integral depends on, every other field in declared order: a field added later is keyed, not shared.
_room_key = operator.attrgetter(*(f.name for f in fields(RoomScenario) if f.name not in _UNREAD_FIELDS))
_VIEWS: dict[tuple, _ReceiverView] = {}  # the view of the room in use, by _room_key


def _receiver_view(room: RoomScenario) -> _ReceiverView:
    """The room's view, built once while it is the room in use: a call for another room replaces it."""
    key = _room_key(room)
    if key not in _VIEWS:
        _VIEWS.clear()
        _VIEWS[key] = _ReceiverView(room)
    return _VIEWS[key]


def total_reflected_gain(
    room: RoomScenario,
    order: int = DEFAULT_ORDER,
    *,
    fov_deg: float | Sequence[float] | np.ndarray | None = None,
) -> float | np.ndarray:
    """Single-bounce gain from the lamp via the walls and floor into the receiver.

    ``order`` is the order of the Gauss-Legendre rule in psi on
    each piece, so the cost grows linearly with it and does not depend on
    the room size.  The theta rule is the view's, chosen by the lamp's mode.
    ``fov_deg`` puts one FOV or an array in place of the room's, as in
    ``los_gain_for``.  The value at a FOV is the sum over the whole psi
    pieces below it plus one partial piece ending at it, each piece summed
    in a fixed order, so element i of an array call equals the call at FOV
    i, bit for bit.  The values stay on the room's view, so a call computes
    only the FOVs not yet known for the room at this order, all in one pass.
    """
    if not isinstance(order, numbers.Integral) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    return _reflected_gain(room, int(order), fov_deg)


def _reflected_gain(
    room: RoomScenario, order: int, fov_deg: float | Sequence[float] | np.ndarray | None = None, theta_nodes_factor: int = 1
) -> float | np.ndarray:
    """``total_reflected_gain`` at psi rule order ``order``, with ``theta_nodes_factor``
    times the view's theta nodes per arc (the convergence check's theta refinement)."""
    fovs = np.asarray(room.fov_deg if fov_deg is None else fov_deg, dtype=float)
    fov_list = fovs.ravel().tolist()
    view = _receiver_view(room)
    arcs, nodes = view.theta_rule
    theta_rule = (arcs, theta_nodes_factor * nodes)
    key = (order, theta_rule)
    known = view.integrals.setdefault(key, {})
    missing = [f for f in dict.fromkeys(fov_list) if f not in known]
    if missing:
        gains = [concentrator_gain(room.concentrator_index, f) for f in missing]
        ends = np.array([math.radians(f) for f in missing])
        first = np.searchsorted(view.bounds, ends, side="right") - 1  # the partial piece starts here
        partial = view.bounds[first] < ends  # a FOV on a cut has none
        whole = view.whole_pieces.get(key, np.zeros(0))
        have, added = len(whole), max(0, int(first.max()) - len(whole))  # the whole pieces summed and still to sum
        lo = np.concatenate([view.bounds[have : have + added], view.bounds[first[partial]]])
        hi = np.concatenate([view.bounds[have + 1 : have + added + 1], ends[partial]])
        positions, weights = _mapped_rule(order)
        step = max(1, _PIECE_BLOCK // len(positions))
        pieces = np.concatenate(
            [np.zeros(0), *(view.piece_sums(lo[k : k + step], hi[k : k + step], positions, weights, theta_rule) for k in range(0, len(lo), step))]
        )
        whole = view.whole_pieces[key] = np.concatenate([whole, pieces[:added]])
        below = np.concatenate([[0.0], np.cumsum(whole)])
        parts = np.zeros(len(missing))
        parts[partial] = pieces[added:]
        scale = room.detector_area_m2 * (view.m1 + 1.0) / (2.0 * math.pi**2) * room.filter_transmission
        with np.errstate(over="ignore"):  # a side under about 1e-155 m collects an unbounded gain
            computed = [float((below[k] + part) / view.scale / view.scale * (scale * g)) for k, part, g in zip(first.tolist(), parts.tolist(), gains)]
        known.update(zip(missing, computed))
    values = [known[f] for f in fov_list]
    return values[0] if fovs.ndim == 0 else np.reshape(values, fovs.shape)


def _relative_change(value: float, refined: float) -> float:
    """|refined - value| / |refined|: 0 when equal (both 0, or an inf no rule changes), inf when only refined is 0."""
    if refined == value:
        return 0.0
    return abs(refined - value) / abs(refined) if refined != 0.0 else math.inf


def reflected_gain_convergence(
    room: RoomScenario,
    order: int = DEFAULT_ORDER,
) -> ConvergenceReport:
    """The bounce integral at the requested rule order, at twice that order,
    and at that order with twice the theta nodes per arc.

    All three come from the room's view, so the first is the one a sweep of
    the room already computed.  The report is the only signal: it counts as
    converged when both relative changes are at most ``CONVERGENCE_RTOL``,
    and the CLI's --strict reads that flag.
    """
    value = total_reflected_gain(room, order)
    order = int(order)
    refined = total_reflected_gain(room, 2 * order)
    theta_refined = _reflected_gain(room, order, theta_nodes_factor=2)
    rel, theta_rel = _relative_change(value, refined), _relative_change(value, theta_refined)
    return ConvergenceReport(
        value=value,
        refined_value=refined,
        rel_change=rel,
        theta_refined_value=theta_refined,
        theta_rel_change=theta_rel,
        converged=rel <= CONVERGENCE_RTOL and theta_rel <= CONVERGENCE_RTOL,
        order=order,
        theta_rule=_receiver_view(room).theta_rule,
    )
