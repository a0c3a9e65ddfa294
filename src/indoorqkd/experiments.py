"""Named feasibility experiments: scenario setups, sweeps, boundary searches.

Five scenarios are built in.  Two are ambient-only (lamp off, swept over the
ambient spectral irradiance) and three have the ceiling lamp on (swept over
the lamp's in-band power spectral density):

    ambient-only-center   transmitter mid-floor, pointing up
    ambient-only-corner   transmitter in a floor corner, pointing up
    lamp-center           transmitter mid-floor under the lamp, pointing up
    lamp-corner           transmitter in a floor corner, pointing up
    lamp-corner-steered   corner transmitter aimed at the receiver, narrow beam

The receiver (and the lamp, when on) sits at the ceiling center facing down.

Sweeps evaluate the line of sight without the acceptance-cone cutoff on the
signal: the maps answer "what if a receiver with this concentrator were
coupled to the source", so the field of view throttles background light and
concentrator gain but is not allowed to geometrically orphan the one known
signal direction.  Set ``signal_fov_cutoff=True`` to study the physical
cutoff instead.

``evaluate_point`` takes arrays of FOVs and of source levels, which broadcast
against each other: the room is built once, the gains are computed once per
FOV, the bounce integrals in one ``total_reflected_gain`` call (which keeps
them per room, rule order and FOV), and the noise and the key rate once
over the (FOV, level) grid.  A whole map is one evaluation whose count and
report arrays have shape ``(n_fov, n_src)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import DEFAULT_ORDER, ChannelGains, DetectorParams, los_gain_for, total_reflected_gain
from .geometry import _LARGEST_FLOAT, Point3, Pose, RoomScenario, _array, _in_range, _one_number, _real, _shown
from .keyrate import KeyRateReport, ProtocolParams, secret_key_rate
from .noise import (
    NoiseBudget,
    dark_counts_per_pulse,
    isotropic_noise_power,
    lamp_noise_photons,
    matched_filter_bandwidth_nm,
    photons_per_pulse,
)

__all__ = [
    "SCENARIOS",
    "AMBIENT_SCENARIOS",
    "LAMP_SCENARIOS",
    "NOMINAL",
    "Scenario",
    "Setup",
    "OperatingPoint",
    "build_setup",
    "evaluate_point",
    "sweep",
    "secure_fov_boundary",
    "ambient_tolerance",
    "path_loss_profile",
]

# All that sets a scenario apart, in this order and not overridable: the lamp lit (else
# the ambient level is swept), the transmitter in the floor corner (else mid-floor), its
# beam's semi-angle in degrees, and the beam aimed at the receiver (else straight up).
_SCENARIO_ROWS = {
    "ambient-only-center": (False, False, 30.0, False),
    "ambient-only-corner": (False, True, 30.0, False),
    "lamp-center": (True, False, 30.0, False),
    "lamp-corner": (True, True, 30.0, False),
    "lamp-corner-steered": (True, True, 5.0, True),
}
SCENARIOS = tuple(_SCENARIO_ROWS)
AMBIENT_SCENARIOS = tuple(name for name, row in _SCENARIO_ROWS.items() if not row[0])
LAMP_SCENARIOS = tuple(name for name, row in _SCENARIO_ROWS.items() if row[0])

# Nominal parameter set; every value can be overridden per scenario.  build_setup sets
# the RoomScenario, DetectorParams or ProtocolParams field of each key's name from it,
# but for the four keys with no such field: detector_efficiency (the efficiency), the lamp
# position (entries of None mean "ceiling center") and the lamp scenarios' fixed ambient level.
NOMINAL: dict[str, float | None] = {
    "room_x_m": 4.0,
    "room_y_m": 4.0,
    "room_z_m": 3.0,
    "wall_reflectivity": 0.7,
    "floor_reflectivity": 0.1,
    "lamp_x_m": None,
    "lamp_y_m": None,
    "lamp_semi_angle_deg": 70.0,
    "detector_area_m2": 1.0e-4,
    "concentrator_index": 1.5,
    "filter_transmission": 1.0,
    "wavelength_nm": 880.0,
    "pulse_width_s": 1.0e-10,
    "detector_efficiency": 0.6,
    "dark_count_rate_hz": 1000.0,
    "filter_bandwidth_nm": None,  # None picks the matched-filter width
    "ambient_irradiance_w_nm_m2": 0.0,
    "mean_photons_per_pulse": 0.5,
    "sift_factor": 1.0,
    "error_correction_inefficiency": 1.16,
    "misalignment_error": 0.0,
}

# The setup dataclasses' fields that the NOMINAL key of their name sets.
_PROTOCOL_KEYS = tuple(f.name for f in fields(ProtocolParams))
_ROOM_KEYS = tuple(f.name for f in fields(RoomScenario) if f.name in NOMINAL)
_DETECTOR_KEYS = tuple(f.name for f in fields(DetectorParams) if f.name in NOMINAL)
# Probe ladder for bracketing the secure-FOV boundary, bisected to 0.1 deg;
# boundaries below the smallest rung are reported as not secure.
_FOV_LADDER_DEG = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 90.0)
_BOUNDARY_PRECISION_DEG = 0.1
# Ambient levels as decades from 1e-9 W/nm/m^2 (comfortably tolerable) to
# 100 W/nm/m^2 (brighter than anything indoors), bisected to 0.01 decades.
_AMBIENT_LADDER_DECADES = tuple(float(k) for k in range(-9, 3))
_TOLERANCE_PRECISION_DECADES = 0.01
_BISECTION_LEVELS = 4  # undecided bisection levels flagged in one call: a map's 1 deg bracket takes 4 to reach 0.1 deg
# A map's values along a search axis and their secure flags (see _largest_secure).
MapFlags = tuple[Sequence[float], Sequence[bool]]
_SETUPS: dict[int, tuple] = {}  # the scenario in use, its checked room, detector, protocol and ambient level and its lamp lit, by id


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named experiment plus parameter overrides for the nominal table."""

    name: str
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {_shown(self.name)}; choose one of {SCENARIOS}")
        for key, value in self.overrides:
            if key not in NOMINAL:
                raise ValueError(f"unknown override key {_shown(key)}")
            if not (isinstance(value, numbers.Real) or (value is None and NOMINAL[key] is None)):  # not text, an array or a stray None
                raise ValueError(f"override {key} must be a number{' or None' if NOMINAL[key] is None else ''}, got {_shown(value)}")
            if isinstance(value, int):  # float() would overflow on an int past the float range
                _real(f"override {key}", value)

    @classmethod
    def named(cls, name: str, overrides: Mapping[str, float] | None = None) -> "Scenario":
        items = tuple(sorted((overrides or {}).items()))
        return cls(name=name, overrides=items)

    def params(self) -> dict[str, float | None]:
        merged = dict(NOMINAL)
        merged.update(self.overrides)
        return merged


# eq=False: the levels may be arrays, whose == has no truth value; compare fields.
@dataclass(frozen=True, slots=True, eq=False)
class Setup:
    """Fully resolved inputs for one operating-point evaluation; the spectral
    levels are numpy floats or arrays shaped like the source levels."""

    room: RoomScenario
    detector: DetectorParams
    protocol: ProtocolParams
    lamp_psd_w_per_nm: float | np.ndarray
    ambient_irradiance_w_nm_m2: float | np.ndarray


# eq=False: fields may be arrays, whose == has no truth value; compare fields.
@dataclass(frozen=True, slots=True, eq=False)
class OperatingPoint:
    """Channel, noise, and key-rate stages at one or more FOVs and source levels.

    ``gains`` have the shape of the FOVs (``(n_fov, 1)`` in a sweep), the
    ambient count that of the levels, and the lamp and total counts (with a
    lamp lit) and the report that of the grid, ``(n_fov, n_src)`` in a sweep.
    """

    gains: ChannelGains
    budget: NoiseBudget
    report: KeyRateReport


def build_setup(scenario: Scenario, fov_deg: float, source_level: float | np.ndarray) -> Setup:
    """Resolve a scenario into room, detector, protocol, and spectral levels.

    ``source_level``, one level or an array, is the lamp PSD in W/nm for lamp
    scenarios and the ambient spectral irradiance in W/nm/m^2 for ambient-only
    scenarios, whose lamp is off.  The scenario in use's checked setup is kept
    (by object identity: equality takes a -0.0 override for 0.0) until a build
    for another succeeds.  A call for it checks the levels and makes the room
    at a new FOV, or one of another type, by ``dataclasses.replace``, which
    re-runs the room's rules.
    """
    levels = _in_range("source_level", source_level, 0.0, _LARGEST_FLOAT).copy()  # Setup's own, writable
    entry = _SETUPS.get(id(scenario))
    if entry is None:
        lamp_lit, corner, tx_semi_angle_deg, aimed = _SCENARIO_ROWS[scenario.name]
        p = scenario.params()
        # Checked in every scenario, though only lamp scenarios read it.
        ambient = _in_range("ambient_irradiance_w_nm_m2", p["ambient_irradiance_w_nm_m2"], 0.0, _LARGEST_FLOAT)
        x, y, z = float(p["room_x_m"]), float(p["room_y_m"]), float(p["room_z_m"])
        detector = DetectorParams(efficiency=float(p["detector_efficiency"]), **{name: float(p[name]) for name in _DETECTOR_KEYS})
        if p["filter_bandwidth_nm"] is None:
            p["filter_bandwidth_nm"] = matched_filter_bandwidth_nm(detector)
        lamp_x, lamp_y = (side / 2.0 if p[key] is None else float(p[key]) for side, key in ((x, "lamp_x_m"), (y, "lamp_y_m")))
        down = Point3(0.0, 0.0, -1.0)
        receiver = Pose(Point3(x / 2.0, y / 2.0, z), down)
        lamp = Pose(Point3(lamp_x, lamp_y, z), down)
        tx_position = Point3(0.0, 0.0, 0.0) if corner else Point3(x / 2.0, y / 2.0, 0.0)
        room = RoomScenario(
            **{name: float(p[name]) for name in _ROOM_KEYS}, lamp=lamp, receiver=receiver, fov_deg=fov_deg,
            transmitter=Pose(tx_position, Point3(0.0, 0.0, 1.0)), tx_semi_angle_deg=tx_semi_angle_deg,
        )
        if aimed:  # only now, so that a bad room size is named by the room's rules
            room = replace(room, transmitter=Pose.aimed_at(tx_position, receiver.position))
        protocol = ProtocolParams(**{name: float(p[name]) for name in _PROTOCOL_KEYS})
        _SETUPS.clear()
        entry = _SETUPS[id(scenario)] = (scenario, room, detector, protocol, ambient, lamp_lit)  # the scenario held, so its id stays its own
    _, room, detector, protocol, ambient, lamp_lit = entry
    if type(fov_deg) is not type(room.fov_deg) or fov_deg != room.fov_deg:
        room = replace(room, fov_deg=fov_deg)
    # x + 0.0 == x for every x >= 0: adding zeros spreads a fixed level over the swept ones
    zeros = levels * 0.0
    lamp_psd, ambient = (levels, zeros + ambient) if lamp_lit else (zeros + 0.0, levels)
    return Setup(room, detector, protocol, lamp_psd_w_per_nm=lamp_psd, ambient_irradiance_w_nm_m2=ambient)


def evaluate_point(
    scenario: Scenario,
    fov_deg: float | Sequence[float] | np.ndarray,
    source_level: float | Sequence[float] | np.ndarray,
    *,
    order: int = DEFAULT_ORDER,
    signal_fov_cutoff: bool = False,
) -> OperatingPoint:
    """Channel gains, noise budget, and key rate at one or more FOVs and levels.

    ``fov_deg`` and ``source_level`` broadcast against each other as numpy
    arrays do: a ``(n_fov, 1)`` FOV column against ``n_src`` levels is an
    ``(n_fov, n_src)`` map.  Each FOV, held to the ``RoomScenario`` rules, gets
    one LOS gain and, when a lamp level is positive, one bounce integral
    (else 0), which ``total_reflected_gain`` computes once per room, rule
    order and FOV.  Each element is, bit for bit, the call at its FOV and
    level.  ``order`` is the bounce quadrature's rule order.
    """
    fovs = _array("fov_deg", fov_deg)
    if fovs.size == 0:
        raise ValueError("fov_deg must hold at least one value")
    # The first FOV builds the room, as a scalar call would; los_gain_for checks the rest.
    setup = build_setup(scenario, fovs.item(0), source_level)
    room, det = setup.room, setup.detector
    lamp_psd, ambient = setup.lamp_psd_w_per_nm, setup.ambient_irradiance_w_nm_m2
    if fovs.ndim and lamp_psd.ndim:  # both levels have the source levels' shape
        np.broadcast_shapes(fovs.shape, lamp_psd.shape)  # a ValueError before any work

    h_sig = los_gain_for(room, enforce_fov=signal_fov_cutoff, fov_deg=fovs)
    eta = det.efficiency * h_sig

    integral = total_reflected_gain(room, order, fov_deg=fovs) if (lamp_psd > 0.0).any() else 0.0

    budget = NoiseBudget(
        ambient=photons_per_pulse(isotropic_noise_power(ambient, room), det),
        lamp_bounce=lamp_noise_photons(lamp_psd, room, det, integral),
        dark=dark_counts_per_pulse(det),
    )
    report = secret_key_rate(setup.protocol, eta, budget.total)
    gains = ChannelGains(line_of_sight=h_sig, transmittance=eta, reflected_integral=integral)
    return OperatingPoint(gains=gains, budget=budget, report=report)


def sweep(
    scenario: Scenario,
    fov_values_deg: Sequence[float] | np.ndarray,
    source_values: Sequence[float] | np.ndarray,
    *,
    order: int = DEFAULT_ORDER,
    signal_fov_cutoff: bool = False,
) -> OperatingPoint:
    """The full (FOV, source level) map of one scenario, as one ``evaluate_point`` call.

    The levels go in as the whole ``(n_fov, n_src)`` grid, one element per
    map cell, so every noise and report field of the map has its shape: the
    rate at FOV i and level j is ``report.rate[i, j]``.  Either axis may be
    a sequence or a 1-D numpy array, non-empty.
    """
    fovs, levels = _array("fov_deg", fov_values_deg), _array("source_level", source_values)  # named as evaluate_point names an element
    for name, values in (("fov_values_deg", fovs), ("source_values", levels)):
        if values.ndim != 1 or not values.size:
            raise ValueError(f"sweep axis {name} must be one-dimensional and non-empty, got shape {values.shape}")
    return evaluate_point(scenario, fovs[:, None], np.broadcast_to(levels, (len(fovs), len(levels))), order=order, signal_fov_cutoff=signal_fov_cutoff)


def _largest_secure(
    secure: Callable[[float | np.ndarray], bool | np.ndarray], ladder: Sequence[float], precision: float,
    known: MapFlags | None = None, level: Callable[[float], float] = float,
) -> float | None:
    """Largest value found secure: None if the first rung of the increasing
    ``ladder`` is not, its last rung if every rung is.

    ``secure`` flags one value or each of an array, holding below a crossing
    and failing above it.  ``known``, a map's values along the search axis
    and their flags, answers each probe it decides under that premise: one
    whose ``level`` is at or below the map's largest secure value is secure,
    one at or above its smallest insecure value is not.  Flags that break the
    premise (a secure value above an insecure one) decide nothing, and the
    search probes as without them.  The ladder's undecided rungs are flagged
    in one call, then the bracket below its first insecure rung is bisected
    to ``precision`` through the midpoints and branches of one probe per
    call, each call flagging every undecided midpoint of the next
    ``_BISECTION_LEVELS`` levels; the value returned was found secure.
    """
    values, flags = np.atleast_2d(_real("known", ((), ()) if known is None else known))  # the flags as 1 and 0; a third row or none is a ValueError
    top, bottom = values[flags == 1.0].max(initial=-math.inf), values[flags == 0.0].min(initial=math.inf)
    if not top < bottom:
        top, bottom = -math.inf, math.inf
    decide = lambda v: True if level(v) <= top else (False if level(v) >= bottom else None)  # None: the map leaves it open, or a nan level
    ask = [v for v in ladder if decide(v) is None]  # every rung the map leaves open, in one call
    flagged = dict(zip(ask, secure(np.array(ask, dtype=float)).tolist())) if ask else {}  # the last call's answers
    first = next((i for i, v in enumerate(ladder) if not flagged.get(v, decide(v))), len(ladder))
    if first == len(ladder):
        return ladder[-1]
    if first == 0:
        return None
    lo, hi = ladder[first - 1], ladder[first]
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if mid not in flagged and decide(mid) is None:
            ask = _midpoints(lo, hi, precision, _BISECTION_LEVELS, decide)
            flagged = dict(zip(ask, secure(np.array(ask)).tolist()))
        if flagged.get(mid, decide(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _midpoints(lo: float, hi: float, precision: float, levels: int, decide: Callable[[float], bool | None]) -> list[float]:
    """The open midpoints (``decide`` gives None) that bisecting [lo, hi] to ``precision`` reaches through ``levels`` of them, taking ``decide``'s branch at the others."""
    mid = 0.5 * (lo + hi)
    if not (levels and hi - lo > precision):
        return []
    if (flag := decide(mid)) is not None:
        return _midpoints(*((mid, hi) if flag else (lo, mid)), precision, levels, decide)
    return [mid, *_midpoints(lo, mid, precision, levels - 1, decide), *_midpoints(mid, hi, precision, levels - 1, decide)]


def secure_fov_boundary(
    scenario: Scenario,
    source_level: float,
    *,
    order: int = DEFAULT_ORDER,
    fov_max_deg: float = 90.0,
    known: MapFlags | None = None,
) -> float | None:
    """Largest field of view with a positive key rate, or None if none is.

    Relies on the rate being monotone in the FOV (the concentrator gain only
    falls and the admitted background only widens as the cone opens),
    evaluates a coarse ladder as one FOV array for a bracket, then bisects to
    0.1 deg, four levels an array.  The returned value is on the secure side.
    ``known`` (FOVs, secure flags), a map's column at ``source_level`` and
    ``order``, only saves probes (see ``_largest_secure``).
    """

    def secure(fov: float | np.ndarray) -> bool | np.ndarray:
        return evaluate_point(scenario, fov, source_level, order=order).report.secure

    _one_number(fov_max_deg=fov_max_deg)
    ladder = [f for f in _FOV_LADDER_DEG if f < fov_max_deg] + [fov_max_deg]
    return _largest_secure(secure, ladder, _BOUNDARY_PRECISION_DEG, known)


def ambient_tolerance(scenario: Scenario, *, fov_floor_deg: float = 10.0, known: MapFlags | None = None) -> float | None:
    """Largest secure ambient spectral irradiance (W/nm/m^2), 0 if only the dark room is, None if not even it is.

    Taken at ``fov_floor_deg``, the smallest studied FOV: the isotropic
    background admitted does not depend on the FOV, and the concentrator
    gain, and with it the transmittance, only falls as the cone opens.  The
    decades from 1e-9 to 100 W/nm/m^2 are one level array, then the level
    log-bisects to 0.01 decades, four levels an array; it is verified secure.
    ``known`` (levels, secure flags), a map's row at ``fov_floor_deg``, only
    saves probes: each probe's level 10^d is compared with its levels (see
    ``_largest_secure``).
    """
    if scenario.name not in AMBIENT_SCENARIOS:
        raise ValueError("ambient_tolerance applies to the ambient-only scenarios")

    def secure(decades: float | np.ndarray) -> bool | np.ndarray:  # at the levels 10^decades (0 at -inf)
        levels = np.reshape([10.0**d for d in np.ravel(decades).tolist()], np.shape(decades))
        return evaluate_point(scenario, fov_floor_deg, levels).report.secure

    def search(ladder: Sequence[float]) -> float | None:
        return _largest_secure(secure, ladder, _TOLERANCE_PRECISION_DECADES, known, lambda d: 10.0**d)

    decades = search(_AMBIENT_LADDER_DECADES)
    if decades is not None:
        return 10.0**decades
    return 0.0 if search((-math.inf,)) is not None else None  # the dark room, a one-rung ladder


def path_loss_profile(
    position: Point3,
    tx_semi_angle_deg: float,
    fov_values_deg: tuple[float, ...],
    overrides: Mapping[str, float] | None = None,
) -> tuple[float, ...]:
    """Line-of-sight path loss in dB versus receiver field of view.

    The transmitter sits at ``position`` sending straight up; the receiver is
    the nominal ceiling-center unit.  Loss is -10 log10 of the LOS gain with
    the concentrator factor included, so it grows as the FOV opens.  Like the
    sweeps, the profile tracks the formula without the acceptance-cone
    cutoff; a position outside the cone would otherwise read infinite loss
    regardless of FOV.  ``overrides`` take any key of ``NOMINAL``, as in
    ``Scenario.named``; an unknown key raises ValueError.
    """
    scenario = Scenario.named("lamp-center", overrides)
    fovs = _array("fov_deg", fov_values_deg).ravel()
    if not fovs.size:
        return ()
    room = replace(
        build_setup(scenario, fovs.item(0), 0.0).room,
        transmitter=Pose(position, Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=tx_semi_angle_deg,
    )
    gains = los_gain_for(room, enforce_fov=False, fov_deg=fovs).tolist()
    return tuple(-10.0 * math.log10(h) if h > 0.0 else math.inf for h in gains)
