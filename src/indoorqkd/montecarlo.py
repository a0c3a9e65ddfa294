"""Independent oracles for the single-bounce lamp-to-receiver gain.

Both are validation paths for the deterministic quadrature in the channel
module and share none of its machinery but the Lambert mode and the frame
helpers ``geometry._frame`` and ``geometry._cross``.  The sampler also
takes the count rule ``geometry._count``, a check on its own ray count
and seed, not quadrature machinery.  The Monte-Carlo estimate samples rays from
the lamp's Lambertian lobe, traces them to their first wall or floor
hit, and folds the last bounce into the receiver in analytically
(next-event estimation); the expectation of the per-ray contribution
equals the same double integral the quadrature approximates.
The floor-cone closed form is that integral done exactly, for the one
geometry where it has an antiderivative.

The sampler draws only the rays that can land.  Most rays miss the
receiver's cone, and two bounds, found once per call, prove it for all but
a few cells of the unit square of (cos(phi) draw, azimuth draw) pairs.
``_cone_threshold`` is a cos(phi) draw below which no ray lands: a cap
about the lamp axis, as wide as the nearest plane of the faces the cone
meets allows.  ``_sector_bands`` is a table over 64 azimuth sectors, for
cones whose footprints are ellipses: the azimuth draw picks a sector, and
the sector gives the band of cos(phi) draws that the caps about the lamp's
directions to the circles about those ellipses allow.  ``_cells`` turns
them into at most 64 cells.  One multinomial draw gives each cell's share
of the requested rays, and only those rays are drawn, uniform in their
cells; given the counts they are as the rays of a full draw that fall in
the cells, so the estimate keeps its distribution, and the rays outside
count as the 0 they would contribute.  The kept rays are traced in batches
of up to ``_BLOCK``, with every temporary in one work array made per call,
so no batch's temporaries go back to the system to be faulted in again,
and no array grows with the sample count.  A seed fixes the estimate bit
for bit.  Each azimuth takes one tan call (see ``_unit_circle``), and
terms whose coefficient is exactly zero (most of them for a lamp or
receiver facing straight down) are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import RoomScenario, _count, _cross, _frame, lambert_mode

__all__ = ["McEstimate", "estimate_reflected_gain", "floor_cone_closed_form"]

# The most rays drawn and traced in one batch.  A seed's estimate depends on
# it: each batch's contributions are summed on their own.
_BLOCK = 1 << 13
# The most rays a call takes: numpy's multinomial reads the count as a 64-bit int.
_MOST_SAMPLES = 2**63 - 1
# A plane closer to the lamp than this along the ray is the one it sits on.
_T_MIN = 1e-12
# Slacks of the cone bounds (see _cone_threshold), each far above the rounding
# it covers: an angle in rad, for the ray direction and the cone test (a few
# 1e-8 rad at worst, near the axis, where an ulp of a cosine is an angle of
# sqrt(2 ulp)); a length per meter of the lamp's and receiver's positions,
# for the hit point (a few ulps of the coordinates); and a drop in log u per
# unit of m1 + 2, for the power that turns the draw into cos(phi) (a few
# (m1 + 1) ulps, plus ulps of log u <= 745).
_BOUND_ANGLE_SLACK = 1e-6
_BOUND_LENGTH_SLACK = 1e-12
_BOUND_LOG_SLACK = 1e-9
# Azimuth sectors of the band table.  A power of two, so the sector
# floor(v * _SECTORS) of an azimuth draw v is exact.
_SECTORS = 64
# Rows of the per-call work array: the batch's cos(phi) draws and azimuths, then the trace's temporaries.
_WORK_ROWS = 16


@dataclass(frozen=True, slots=True)
class McEstimate:
    """A Monte-Carlo bounce gain: ``value`` is the mean contribution over
    ``samples`` rays drawn from the lamp (rays that miss the receiver's cone
    count as 0), and ``std_error`` the standard error of that mean."""

    value: float
    std_error: float
    samples: int


def estimate_reflected_gain(
    room: RoomScenario,
    samples: int = 10_000_000,
    seed: int = 0,
) -> McEstimate:
    """Seeded Monte-Carlo value of the summed bounce gain.

    Directions leave the lamp with probability density proportional to
    cos(phi)^m1 (sampled by inverting 1 - cos(phi)^(m1+1)), so the lobe
    factor and the first cosine of the bounce integrand are absorbed into
    the sampling measure and each ray only carries the reflect-and-collect
    term of its hit point.  ``np.random.default_rng(seed)`` first draws
    how many of the ``samples`` rays fall in each cell of ``_cells`` (one
    multinomial over the cells and the rest of the square), then the kept
    rays, cell after cell, in batches of up to ``_BLOCK``: each batch's
    cos(phi) draws, then its azimuth draws, each mapped onto its ray's cell.
    The rays in no cell contribute 0, so the mean and its standard error
    are still taken over ``samples``.
    """
    samples, seed = _count("samples", samples, most=_MOST_SAMPLES), _count("seed", seed, 0)
    m1 = lambert_mode(room.lamp_semi_angle_deg)
    scene = _Scene(room, m1)
    cells = _cells(scene, m1)
    rng = np.random.default_rng(seed)
    shares = [u_width * v_width for _, u_width, _, v_width in cells]
    counts = rng.multinomial(samples, [*shares, max(1.0 - sum(shares), 0.0)]).tolist()
    work = np.empty((_WORK_ROWS, _BLOCK))

    total = 0.0
    total_sq = 0.0
    for spans in _batches(cells, counts):
        n = spans[-1][1]
        cos_draws, azim_draws = rng.random(out=work[0, :n]), rng.random(out=work[1, :n])
        for start, end, (u_lo, u_width, v_lo, v_width) in spans:
            for draws, lo, width in ((cos_draws, u_lo, u_width), (azim_draws, v_lo, v_width)):
                if lo != 0.0 or width != 1.0:  # the whole [0, 1) needs no map
                    part = draws[start:end]
                    part *= width
                    part += lo
        contrib = _trace(scene, work[:, :n])[1]
        total += float(np.sum(contrib))
        total_sq += float(np.sum(np.multiply(contrib, contrib, out=work[1, : contrib.size])))

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return McEstimate(value=mean, std_error=math.sqrt(var / samples), samples=samples)


def _cells(scene: _Scene, m1: float) -> list[tuple[float, float, float, float]]:
    """The cells of (cos(phi) draw, azimuth draw) pairs outside which no ray lands in the receiver's cone.

    Each is (u_lo, u_width, v_lo, v_width): the draws u_lo + w u_width and
    v_lo + w v_width for w in [0, 1).  Without a sector table there is one
    cell, [u_min, 1) x [0, 1), with u_min the draw of ``_cone_threshold``
    (the whole square where it is 0).  With the table of ``_sector_bands``
    there is one cell per sector s whose band [lo, hi] meets [u_min, 1]:
    [max(lo, u_min), min(hi, 1)] x [s, s + 1) / ``_SECTORS``, in sector order.
    """
    u_min = _cone_threshold(scene, m1)
    bands = _sector_bands(scene, m1, u_min) if u_min > 0.0 else None
    if bands is None:
        return [(u_min, 1.0 - u_min, 0.0, 1.0)]
    lo, hi = np.maximum(bands[0], u_min).tolist(), np.minimum(bands[1], 1.0).tolist()
    return [(lo[s], hi[s] - lo[s], s / _SECTORS, 1.0 / _SECTORS) for s in range(_SECTORS) if hi[s] > lo[s]]


def _batches(cells: list[tuple[float, ...]], counts: list[int]) -> Iterator[list[tuple[int, int, tuple[float, ...]]]]:
    """The kept rays, ``counts[i]`` in ``cells[i]``, cut in cell order into batches of up to ``_BLOCK``.

    Each batch is its (start, end, cell) spans, one per cell it holds.
    """
    spans, fill = [], 0
    for cell, count in zip(cells, counts):
        while count:
            size = min(count, _BLOCK - fill)
            spans.append((fill, fill + size, cell))
            fill, count = fill + size, count - size
            if fill == _BLOCK:
                yield spans
                spans, fill = [], 0
    if spans:
        yield spans


class _Scene:
    """The constants of one call: what the trace and both cone bounds read of the room."""

    def __init__(self, room: RoomScenario, m1: float) -> None:
        fov_rad = math.radians(room.fov_deg)
        sin_fov = math.sin(fov_rad)
        g_in = room.concentrator_index**2 / (sin_fov * sin_fov)
        self.cos_fov = math.cos(fov_rad)
        t_s, area = room.filter_transmission, room.detector_area_m2
        self.power = 1.0 / (m1 + 1.0)
        self.lamp = room.lamp.position.as_tuple()
        self.receiver = room.receiver.position.as_tuple()
        rx, ry, rz = self.receiver
        self.receiver_axis = room.receiver.axis.as_tuple()
        self.lamp_axis = np.array(room.lamp.axis.as_tuple())
        self.e1, self.e2 = _frame(self.lamp_axis)
        self.sides = (room.room_x_m, room.room_y_m)
        self.delta = math.dist(self.lamp, self.receiver)
        self.slack = _BOUND_LENGTH_SLACK * (math.hypot(*self.lamp) + math.hypot(*self.receiver) + self.delta)
        # The receiver's distance to each face of _FACES, and the face's weight in the trace: its gain rho T_s A g_in times that distance.
        self.heights = [rz, rx, room.room_x_m - rx, ry, room.room_y_m - ry]
        reflectivities = [room.floor_reflectivity] + [room.wall_reflectivity] * 4
        self.weights = np.array([rho * t_s * area * g_in * h for rho, h in zip(reflectivities, self.heights)])
        # The cone test reads cos(psi) >= cos(fov) against the axis as stored, whose norm is 1 within 1e-9.
        norm = math.hypot(*self.receiver_axis)
        self.cone = math.acos(min(self.cos_fov / norm, 1.0))
        self.unit_axis = tuple(c / norm for c in self.receiver_axis)
        self.faces = _footprints(self)


def _trace(scene: _Scene, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch's rays that land in the receiver's cone: their indices, ascending, and contributions.

    ``work[0]`` holds the batch's cos(phi) draws and ``work[1]`` its azimuth
    draws; all rows are overwritten, and the contributions come back in
    one other than ``work[1]``.  The rays that miss give 0.
    """
    px, py, pz = scene.lamp
    rx, ry, rz = scene.receiver
    ax, ay, az = scene.receiver_axis
    lamp_axis, e1, e2 = scene.lamp_axis, scene.e1, scene.e2
    cos_phi, azim, sin_phi, dx, dy, dz, term, t_floor, t_x, t_y, t, vx, vy, vz, d2, cos_psi = work
    with np.errstate(divide="ignore"):  # u^power as exp(power log u): a draw of 0 gives exp(-inf) = 0
        np.exp(np.multiply(np.log(cos_phi, out=cos_phi), scene.power, out=cos_phi), out=cos_phi)
    np.sqrt(np.subtract(1.0, np.multiply(cos_phi, cos_phi, out=sin_phi), out=sin_phi), out=sin_phi)
    # The azimuth's temporaries take the rows of the hit's, which come after them.
    s_cos, s_sin = _unit_circle(azim, work[7:11])
    s_cos *= sin_phi
    s_sin *= sin_phi
    for i, d in enumerate((dx, dy, dz)):
        _combine(d, term, (cos_phi, lamp_axis[i]), (s_cos, e1[i]), (s_sin, e2[i]))

    # Distance to the first floor or wall hit, one pass per axis (slab
    # test for the axis-aligned room).  The ceiling carries the lamp and
    # reflects nothing, so it sits at z = inf.
    sign, test = (row.view(np.bool_)[: row.size] for row in (azim, term))  # the azimuths are read
    with np.errstate(divide="ignore", invalid="ignore"):
        _plane_distance(dz, pz, math.inf, t_floor, sign)
        _plane_distance(dx, px, scene.sides[0], t_x, sign)
        _plane_distance(dy, py, scene.sides[1], t_y, sign)
        np.minimum(np.minimum(t_floor, t_x, out=t), t_y, out=t)

        for v, p, r, d in ((vx, px, rx, dx), (vy, py, ry, dy), (vz, pz, rz, dz)):
            np.subtract(r, np.add(np.multiply(t, d, out=v), p, out=v), out=v)
        np.multiply(vx, vx, out=d2)
        d2 += np.multiply(vy, vy, out=term)
        d2 += np.multiply(vz, vz, out=term)
        np.sqrt(d2, out=d2)
        _combine(cos_psi, term, (vx, -ax), (vy, -ay), (vz, -az))
        cos_psi /= d2

    landing = np.greater_equal(cos_psi, scene.cos_fov, out=sign)
    landing &= np.greater(d2, 1e-12, out=test)
    landing &= np.less(t, np.inf, out=test)
    m = (k := np.flatnonzero(landing)).size
    # The values of the rays that land (in the cone, not within 1e-12 m of the receiver), gathered into rows read no more.
    return k, _collect(scene.weights, *(
        row.take(k, out=free[:m], mode="clip")
        for row, free in zip((t, t_floor, t_x, dx, dy, d2, cos_psi), (cos_phi, sin_phi, dz, t_y, vx, vy, vz))
    ), free=work[7:9, :m])


def _collect(weights: np.ndarray, *landed: np.ndarray, free: np.ndarray) -> np.ndarray:
    """weight * cos(psi) / (pi d2^3) of the landed rays' t, t_floor, t_x, dx, dy, d2 and cos(psi), in t's row (t_floor's
    and the 2 of ``free`` are scratch).  A face's weight (``weights``) is its gain times h, its distance from the receiver,
    as cos(beta) = h / d2.  Its index in ``_FACES`` (int8s) is 0 on the floor, which wins ties, else 1 + (dx > 0) on an x
    wall, which wins ties with y, else 3 + (dy > 0)."""
    t, t_floor, t_x, dx, dy, d2, cos_psi = landed
    face, step, off_floor, on_x, up_x, up_y = free[0].view(np.int8)[: 6 * t.size].reshape(6, t.size)
    np.not_equal(t_floor, t, out=off_floor.view(np.bool_))
    np.equal(t_x, t, out=on_x.view(np.bool_))
    np.greater(dx, 0.0, out=up_x.view(np.bool_))
    np.greater(dy, 0.0, out=up_y.view(np.bool_))
    np.subtract(up_y, up_x, out=step)
    step += 2
    step *= on_x
    np.add(up_y, 3, out=face)
    face -= step
    face *= off_floor
    index = free[1].view(np.intp)
    np.copyto(index, face)  # take's own index type, so it makes no copy
    contrib = weights.take(index, out=t, mode="clip")
    contrib *= cos_psi
    cube = np.multiply(d2, math.pi, out=t_floor)
    cube *= d2
    cube *= d2
    contrib /= cube
    return contrib


def _cone_threshold(scene: _Scene, m1: float) -> float:
    """The cos(phi) draw below which no ray lands in the receiver's cone, or 0 where no bound holds.

    A ray that lands hits a face the cone meets (see ``_footprints``; any
    of floor and walls where those are not bounded), so the hit H lies at
    least s_min from the receiver R: its distance to the nearest plane of
    those faces.  A hit in the cone lies within the cone's half-angle of
    the receiver axis, seen from R.  Seen from the lamp P, delta = |R - P|
    away, the hit is at most asin(delta / s_min) further off that axis, and
    the lamp axis is the angle between the two axes further still.  So a
    ray lands in the cone only if its polar angle is at most

        phi_max = cone + angle(receiver axis, lamp axis) + asin(delta / s_min),

    that is, only if its draw u = cos(phi)^(m1+1) is at least
    cos(phi_max)^(m1+1).  The bound holds for the rays as computed: the
    slacks cover the rounding of the hit point (s_min shrinks by it and
    phi_max grows by the angle it spans at R), of the ray direction and the
    cone test, and of the power that turns u into cos(phi).  The bound is 0,
    and every ray is traced, once phi_max reaches 90 degrees or delta s_min.
    """
    heights = scene.heights if scene.faces is None else [h for h, _ in scene.faces]
    reach = min(heights, default=math.inf) - scene.slack
    if not scene.delta < reach:
        return 0.0
    receiver_axis, lamp_axis = np.array(scene.unit_axis), scene.lamp_axis
    axes = math.atan2(float(np.linalg.norm(_cross(receiver_axis, lamp_axis))), float(receiver_axis @ lamp_axis))
    phi_max = scene.cone + axes + math.asin(scene.delta / reach) + scene.slack / reach + _BOUND_ANGLE_SLACK
    if not phi_max < math.pi / 2.0:
        return 0.0
    return math.exp((m1 + 1.0) * math.log(math.cos(phi_max)) - _BOUND_LOG_SLACK * (m1 + 2.0))


# Floor and walls, each as (normal axis, inward sign of the normal, u axis, v axis).
_FACES = ((2, 1.0, 0, 1), (0, 1.0, 1, 2), (0, -1.0, 1, 2), (1, 1.0, 0, 2), (1, -1.0, 0, 2))


def _footprints(scene: _Scene) -> list[tuple[float, tuple[list[float], float] | None]] | None:
    """The faces the receiver's cone meets, each as (h, circle), or None where they are not bounded.

    A ray that lands hits the floor, or a wall below the receiver, inside
    the cone widened by the slacks (``cone`` below: by the angle the hit
    point's rounding spans at the receiver, and by that of the cone test).
    In a face's plane, a distance h from the receiver R, such a point lies
    h tan(tau -+ cone) from the foot of R along the receiver axis'
    projection, where tau is the angle between the axis and the plane's
    normal; a face whose extent along that line misses that range is not
    met.  Where tau + cone is under 90 degrees the footprint is an ellipse,
    whose major axis is that range, and ``circle`` (center, radius) is the
    circle about it, which holds the ellipse; else it is None.  None where
    the lamp lies within 2 ``_T_MIN`` of a plane (its rays may leave the
    faces), the receiver on a plane, or the cone reaches the horizontal (it
    would meet the walls above the receiver).
    """
    p, r, slack, heights, sides = scene.lamp, scene.receiver, scene.slack, scene.heights, scene.sides
    if min(p[0], sides[0] - p[0], p[1], sides[1] - p[1], p[2]) <= 2.0 * _T_MIN + slack or min(heights) <= 2.0 * slack:
        return None
    axis = scene.unit_axis
    cone = scene.cone + _BOUND_ANGLE_SLACK + slack / (min(heights) - slack)
    if not math.atan2(math.hypot(axis[0], axis[1]), -axis[2]) + cone < math.pi / 2.0:
        return None
    lengths = (sides[0], sides[1], r[2])  # along each axis; a wall is cut at the receiver's height
    faces = []
    for (k, sign, i, j), h in zip(_FACES, heights):
        sin_tau = math.hypot(axis[i], axis[j])
        tau = math.atan2(sin_tau, -sign * axis[k])
        if not tau - cone < math.pi / 2.0:
            continue
        pu, pv = (axis[i] / sin_tau, axis[j] / sin_tau) if sin_tau > 0.0 else (1.0, 0.0)
        x_lo = h * math.tan(tau - cone)
        x_hi = h * math.tan(tau + cone) if tau + cone < math.pi / 2.0 else math.inf
        along = [(u - r[i]) * pu + (v - r[j]) * pv for u in (0.0, lengths[i]) for v in (0.0, lengths[j])]
        if not (x_lo <= max(along) and min(along) <= x_hi):
            continue
        circle = None
        if x_hi < math.inf:
            middle = 0.5 * (x_lo + x_hi)
            center = [0.0, 0.0, 0.0]
            center[k], center[i], center[j] = (0.0 if sign > 0.0 else sides[k]), r[i] + middle * pu, r[j] + middle * pv
            circle = (center, 0.5 * (x_hi - x_lo))
        faces.append((h, circle))
    return faces


def _sector_bands(scene: _Scene, m1: float, u_min: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Per azimuth sector, the band of cos(phi) draws outside which no ray lands in the receiver's cone.

    The azimuth draw v picks the sector floor(v * ``_SECTORS``).  Where the
    cone's footprint on each face it meets is an ellipse, a ray that lands
    hits one of the circles of ``_footprints``, so it leaves the lamp in
    the cap about the lamp's direction to that circle's center, of
    half-angle asin(radius / distance), and its polar angle lies in that
    cap's arc in the sector (see ``_cap_arcs``).  The sector edges, the
    caps and the radii are widened by the slacks, and the band by the slack
    of the power.  None where a footprint is not an ellipse, or no sector's
    band is narrower than [``u_min``, 1].
    """
    faces = scene.faces
    if not faces or any(circle is None for _, circle in faces):
        return None
    arc_lo, arc_hi = _cap_arcs(
        scene, np.array([center for _, (center, _) in faces]), np.array([radius for _, (_, radius) in faces]),
    )
    lo, hi = arc_lo.min(axis=0), arc_hi.max(axis=0)
    log_slack = _BOUND_LOG_SLACK * (m1 + 2.0)
    # cos(phi) falls as phi grows, so the widest angle gives the lowest draw.
    u_lo = np.exp((m1 + 1.0) * np.log(np.cos(np.clip(hi, 0.0, math.pi / 2.0))) - log_slack)
    u_lo[hi >= math.pi / 2.0] = 0.0
    u_lo[lo > hi] = np.inf  # no ray in the sector lands
    u_hi = np.exp((m1 + 1.0) * np.log(np.cos(np.clip(lo, 0.0, math.pi / 2.0))) + log_slack)
    u_hi[lo <= 0.0] = np.inf
    if np.all(u_lo <= u_min) and np.all(u_hi >= 1.0):
        return None
    return u_lo, u_hi


def _cap_arcs(scene: _Scene, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sphere and sector, the polar angles (lo, hi) in [0, pi/2] of the sphere's cap from the lamp in the sector.

    A sector the cap misses gets (inf, -inf).  A cap of half-angle beta
    about polar angle phi_c meets the meridian Delta off its center's
    azimuth where cos(phi) cos(phi_c) + sin(phi) sin(phi_c) cos(Delta) =
    R cos(phi - gamma) is at least cos(beta): phi within
    acos(cos(beta) / R) of gamma.  That arc shrinks as |Delta| grows, so in
    a sector it is the one at the edge nearest the center's azimuth, or the
    center's own where the sector holds it.  A cap that reaches a
    hemisphere, or a sphere that holds the lamp, gets [0, pi/2] everywhere.
    """
    lamp_axis, e1, e2 = scene.lamp_axis, scene.e1, scene.e2  # the trace's frame, orthonormal within 1e-9
    offsets = centers - np.array(scene.lamp)
    along, x1, x2 = offsets @ lamp_axis / float(np.linalg.norm(lamp_axis)), offsets @ e1, offsets @ e2
    across = np.hypot(x1, x2)
    dist = np.hypot(along, across)
    radii = radii + scene.slack + _BOUND_LENGTH_SLACK * (dist + radii)
    beta = np.minimum(np.arcsin(np.minimum(radii / dist, 1.0)) + _BOUND_ANGLE_SLACK, math.pi / 2.0)
    everywhere = (beta == math.pi / 2.0)[:, None]
    phi_c = np.arctan2(across, along)[:, None]
    theta_c = np.arctan2(x2, x1)[:, None]
    width = 2.0 * math.pi / _SECTORS + 2.0 * _BOUND_ANGLE_SLACK
    past = np.mod(theta_c - (np.arange(_SECTORS) * (2.0 * math.pi / _SECTORS) - _BOUND_ANGLE_SLACK), 2.0 * math.pi)
    cos_delta = np.cos(np.where(past <= width, 0.0, np.minimum(past - width, 2.0 * math.pi - past)))
    x, y = np.cos(phi_c), np.sin(phi_c) * cos_delta
    gain, gamma = np.hypot(x, y), np.arctan2(y, x)
    cos_beta = np.cos(beta)[:, None]
    half = np.arccos(cos_beta / np.maximum(gain, cos_beta))
    lo, hi = np.maximum(gamma - half, 0.0), np.minimum(gamma + half, math.pi / 2.0)
    meets = (gain >= cos_beta) & (lo <= hi)
    return np.where(everywhere, 0.0, np.where(meets, lo, np.inf)), np.where(everywhere, math.pi / 2.0, np.where(meets, hi, -np.inf))


def _unit_circle(u: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi u for u in [0, 1), from one tan call on [-pi/2, pi/2].

    u - rint(u) in [-1/2, 1/2] is exact and drops a whole turn, so with
    t = tan(pi (u - rint(u))) the half-angle forms give cos = (1 - t^2) /
    (1 + t^2) and sin = 2t / (1 + t^2), within 4 ulps of 1, and (1, 0) at
    u = 0.  The temporaries and results are 4 rows of ``work``, of u.size.
    """
    t, t_sq, cos_u, sin_u = work[:4, : u.size]
    np.subtract(u, np.rint(u, out=t), out=t)
    np.tan(np.multiply(t, math.pi, out=t), out=t)
    np.subtract(1.0, np.multiply(t, t, out=t_sq), out=cos_u)
    t_sq += 1.0
    cos_u /= t_sq
    np.divide(np.multiply(t, 2.0, out=sin_u), t_sq, out=sin_u)
    return cos_u, sin_u


def _combine(out: np.ndarray, term: np.ndarray, *terms: tuple[np.ndarray, float]) -> np.ndarray:
    """The sum of ``array * coefficient`` over the terms, in order, in ``out`` (``term`` is scratch).

    Terms whose coefficient is exactly zero are skipped: they would add only a
    signed zero.  Axis-aligned lamps and receivers have mostly zero components.
    At least one coefficient is not zero.
    """
    first = True
    for array, coefficient in terms:
        if coefficient != 0.0:
            if first:
                np.multiply(array, coefficient, out=out)
                first = False
            else:
                out += np.multiply(array, coefficient, out=term)
    return out


def _plane_distance(d: np.ndarray, p: float, length: float, out: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Distance along each ray from the lamp at ``p`` to the plane at 0 or at ``length`` it heads for, in ``out``.

    The sign bit of the ray's component ``d`` (in ``sign``, scratch) picks
    the plane, so a ray parallel to both (d = +-0) gets inf.  A plane the
    lamp sits on does not count (inf).  That takes a test only for a lamp
    within 2 ``_T_MIN`` of a plane: from farther away every distance exceeds
    ``_T_MIN``, since |d| <= 1.
    """
    np.array([length - p, -p]).take(np.signbit(d, out=sign), out=out, mode="clip")
    out /= d
    if min(p, length - p) <= 2.0 * _T_MIN:
        out[~(out > _T_MIN)] = np.inf  # nan too: 0 / 0 for a lamp on the plane
    return out


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
