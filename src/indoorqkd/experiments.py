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
against each other: the room is built once, the gains and the bounce
integral are computed once per FOV, and the noise and the key rate once over
the (FOV, level) grid.  A whole map is one evaluation whose count and report
arrays have shape ``(n_fov, n_src)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channel import (
    DEFAULT_PATCHES_PER_METER,
    ChannelGains,
    DetectorParams,
    los_gain_for,
    total_reflected_gain,
)
from .geometry import Point3, Pose, RoomScenario
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

AMBIENT_SCENARIOS = ("ambient-only-center", "ambient-only-corner")
LAMP_SCENARIOS = ("lamp-center", "lamp-corner", "lamp-corner-steered")
SCENARIOS = AMBIENT_SCENARIOS + LAMP_SCENARIOS

# Nominal parameter set; every value can be overridden per scenario.
# lamp position entries of None mean "ceiling center".
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

# The transmitter pose and beam width are part of each scenario's identity
# and are not overridable.
_TX_SEMI_ANGLE_DEG = {
    "ambient-only-center": 30.0,
    "ambient-only-corner": 30.0,
    "lamp-center": 30.0,
    "lamp-corner": 30.0,
    "lamp-corner-steered": 5.0,
}

# Probe ladder for bracketing the secure-FOV boundary, bisected to 0.1 deg;
# boundaries below the smallest rung are reported as not secure.
_FOV_LADDER_DEG = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 90.0)
_BOUNDARY_PRECISION_DEG = 0.1
# Ambient levels as decades from 1e-9 W/nm/m^2 (comfortably tolerable) to
# 100 W/nm/m^2 (brighter than anything indoors), bisected to 0.01 decades.
_AMBIENT_LADDER_DECADES = tuple(float(k) for k in range(-9, 3))
_TOLERANCE_PRECISION_DECADES = 0.01


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named experiment plus parameter overrides for the nominal table."""

    name: str
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; choose one of {SCENARIOS}")
        for key, _ in self.overrides:
            if key not in NOMINAL:
                raise ValueError(f"unknown override key {key!r}")

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

    ``gains`` have the shape of ``fov_deg`` (``(n_fov, 1)`` in a sweep), the
    ambient count that of the levels, and the lamp and total counts (with a
    lamp lit) and the report that of the grid, ``(n_fov, n_src)`` in a sweep.
    """

    scenario: str
    fov_deg: float | np.ndarray
    source_level: float | np.ndarray
    gains: ChannelGains
    budget: NoiseBudget
    report: KeyRateReport


def build_setup(scenario: Scenario, fov_deg: float, source_level: float | np.ndarray) -> Setup:
    """Resolve a scenario into room, detector, protocol, and spectral levels.

    ``source_level``, one level or an array, is the lamp PSD in W/nm for lamp
    scenarios and the ambient spectral irradiance in W/nm/m^2 for ambient-only
    scenarios, whose lamp is off.
    """
    levels = _source_levels(source_level)
    p = scenario.params()
    # x + 0.0 == x for every x >= 0: adding zeros spreads a fixed level over the swept ones
    zeros = levels * 0.0
    if scenario.name in AMBIENT_SCENARIOS:
        lamp_psd, ambient = zeros + 0.0, levels
    else:  # only lamp scenarios read the ambient override, so only they check it
        ambient = _source_levels(p["ambient_irradiance_w_nm_m2"], "ambient_irradiance_w_nm_m2")
        lamp_psd, ambient = levels, zeros + ambient
    x, y, z = float(p["room_x_m"]), float(p["room_y_m"]), float(p["room_z_m"])

    detector = DetectorParams(
        efficiency=float(p["detector_efficiency"]),
        dark_count_rate_hz=float(p["dark_count_rate_hz"]),
        pulse_width_s=float(p["pulse_width_s"]),
        wavelength_nm=float(p["wavelength_nm"]),
    )
    bandwidth = p["filter_bandwidth_nm"]
    if bandwidth is None:
        bandwidth = matched_filter_bandwidth_nm(detector)

    lamp_x = x / 2.0 if p["lamp_x_m"] is None else float(p["lamp_x_m"])
    lamp_y = y / 2.0 if p["lamp_y_m"] is None else float(p["lamp_y_m"])
    down = Point3(0.0, 0.0, -1.0)
    receiver = Pose(Point3(x / 2.0, y / 2.0, z), down)
    lamp = Pose(Point3(lamp_x, lamp_y, z), down)

    if "corner" in scenario.name:
        tx_position = Point3(0.0, 0.0, 0.0)
    else:
        tx_position = Point3(x / 2.0, y / 2.0, 0.0)
    room = RoomScenario(
        room_x_m=x,
        room_y_m=y,
        room_z_m=z,
        wall_reflectivity=float(p["wall_reflectivity"]),
        floor_reflectivity=float(p["floor_reflectivity"]),
        lamp=lamp,
        lamp_semi_angle_deg=float(p["lamp_semi_angle_deg"]),
        transmitter=Pose(tx_position, Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=_TX_SEMI_ANGLE_DEG[scenario.name],
        receiver=receiver,
        fov_deg=fov_deg,
        detector_area_m2=float(p["detector_area_m2"]),
        concentrator_index=float(p["concentrator_index"]),
        filter_transmission=float(p["filter_transmission"]),
        filter_bandwidth_nm=float(bandwidth),
    )
    if scenario.name == "lamp-corner-steered":
        # Aimed only now, so that a bad room size is named by the room's rules.
        room = replace(room, transmitter=Pose.aimed_at(tx_position, receiver.position))
    protocol = ProtocolParams(
        mean_photons_per_pulse=float(p["mean_photons_per_pulse"]),
        sift_factor=float(p["sift_factor"]),
        error_correction_inefficiency=float(p["error_correction_inefficiency"]),
        misalignment_error=float(p["misalignment_error"]),
    )
    return Setup(room, detector, protocol, lamp_psd_w_per_nm=lamp_psd, ambient_irradiance_w_nm_m2=ambient)


def _source_levels(level: float | np.ndarray, name: str = "source_level") -> float | np.ndarray:
    """Spectral levels as a numpy float or a float array, each non-negative
    and finite (nan fails)."""
    levels = np.array(level, dtype=float)
    if not ((levels >= 0.0) & (levels < math.inf)).all():
        raise ValueError(f"{name} must be non-negative and finite, got {level!r}")
    return levels[()]


@lru_cache(maxsize=4096)
def _cached_reflected_integral(room_key: RoomScenario, patches_per_meter: int) -> float:
    return total_reflected_gain(room_key, patches_per_meter)


def evaluate_point(
    scenario: Scenario,
    fov_deg: float | Sequence[float] | np.ndarray,
    source_level: float | Sequence[float] | np.ndarray,
    *,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    signal_fov_cutoff: bool = False,
) -> OperatingPoint:
    """Channel gains, noise budget, and key rate at one or more FOVs and levels.

    ``fov_deg`` and ``source_level`` broadcast against each other as numpy
    arrays do: a ``(n_fov, 1)`` FOV column against ``n_src`` levels is an
    ``(n_fov, n_src)`` map.  Each FOV, held to the ``RoomScenario`` rules, gets
    one LOS gain and, when a lamp level is positive, one bounce integral
    (else 0).  Each element is, bit for bit, the call at its FOV and level.
    """
    fovs = np.asarray(fov_deg, dtype=float)
    if fovs.size == 0:
        raise ValueError("fov_deg must hold at least one value")
    fov_list = fovs.ravel().tolist()
    # The first FOV builds the room, as a scalar call would; los_gain_for checks the rest.
    setup = build_setup(scenario, fov_list[0], source_level)
    room, det = setup.room, setup.detector
    lamp_psd, ambient = setup.lamp_psd_w_per_nm, setup.ambient_irradiance_w_nm_m2
    levels = ambient if scenario.name in AMBIENT_SCENARIOS else lamp_psd
    if fovs.ndim and levels.ndim:
        np.broadcast_shapes(fovs.shape, levels.shape)  # a ValueError before any work

    h_sig = los_gain_for(room, enforce_fov=signal_fov_cutoff, fov_deg=fovs)
    eta = det.efficiency * h_sig

    if (lamp_psd > 0.0).any():
        # The room, the cache key, holds no spectral level: a PSD sweep makes one pass per FOV.
        integrals = [_cached_reflected_integral(replace(room, fov_deg=f), patches_per_meter) for f in fov_list]
        integral = integrals[0] if fovs.ndim == 0 else np.reshape(integrals, fovs.shape)
    else:
        integral = 0.0

    budget = NoiseBudget(
        ambient=photons_per_pulse(isotropic_noise_power(ambient, room), det),
        lamp_bounce=lamp_noise_photons(lamp_psd, room, det, integral),
        dark=dark_counts_per_pulse(det),
    )
    report = secret_key_rate(setup.protocol, eta, budget.total)
    return OperatingPoint(
        scenario=scenario.name,
        fov_deg=fovs[()],
        source_level=levels,
        gains=ChannelGains(line_of_sight=h_sig, transmittance=eta, reflected_integral=integral),
        budget=budget,
        report=report,
    )


def sweep(
    scenario: Scenario,
    fov_values_deg: tuple[float, ...],
    source_values: tuple[float, ...],
    *,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    signal_fov_cutoff: bool = False,
) -> OperatingPoint:
    """The full (FOV, source level) map of one scenario, as one ``evaluate_point`` call.

    The levels go in as the whole ``(n_fov, n_src)`` grid, one element per
    map cell, so every noise and report field of the map has its shape: the
    rate at FOV i and level j is ``report.rate[i, j]``.
    """
    if not fov_values_deg or not source_values:
        raise ValueError("sweep axes must be non-empty")
    levels = np.broadcast_to(source_values, (len(fov_values_deg), len(source_values)))
    options = dict(patches_per_meter=patches_per_meter, signal_fov_cutoff=signal_fov_cutoff)
    return evaluate_point(scenario, np.reshape(fov_values_deg, (-1, 1)), levels, **options)


def _largest_secure(secure: Callable[[float], bool], ladder: Iterable[float], precision: float) -> float | None:
    """Largest value found secure: None if the first rung of the increasing
    ``ladder`` is not, its last rung if every rung is.

    Relies on ``secure`` holding below a crossing and failing above it.  The
    ladder is walked up to its first insecure rung, and the bracket from the
    last secure rung to it is bisected until narrower than ``precision``; the
    value returned was probed and found secure.
    """
    lo = None
    for rung in ladder:
        if not secure(rung):
            break
        lo = rung
    else:
        return lo
    if lo is None:
        return None
    hi = rung
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return lo


def secure_fov_boundary(
    scenario: Scenario,
    source_level: float,
    *,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    fov_max_deg: float = 90.0,
) -> float | None:
    """Largest field of view with a positive key rate, or None if none is.

    Relies on the rate being monotone in the FOV (the concentrator gain only
    falls and the admitted background only widens as the cone opens), probes
    a coarse ladder for a bracket, then bisects to 0.1 deg.  The returned
    value is on the secure side of the crossing.
    """

    def secure(fov: float) -> bool:
        point = evaluate_point(scenario, fov, source_level, patches_per_meter=patches_per_meter)
        return point.report.secure

    ladder = [f for f in _FOV_LADDER_DEG if f < fov_max_deg] + [fov_max_deg]
    return _largest_secure(secure, ladder, _BOUNDARY_PRECISION_DEG)


def ambient_tolerance(scenario: Scenario, *, fov_floor_deg: float = 10.0) -> float | None:
    """Largest secure ambient spectral irradiance (W/nm/m^2), 0 if only the dark room is, None if not even it is.

    Taken at ``fov_floor_deg``, the smallest studied FOV: the isotropic
    background admitted does not depend on the FOV, and the concentrator
    gain, and with it the transmittance, only falls as the cone opens.  The
    level climbs decades from 1e-9 to 100 W/nm/m^2, then log-bisects to 0.01
    decades; the returned level is verified secure.
    """
    if scenario.name not in AMBIENT_SCENARIOS:
        raise ValueError("ambient_tolerance applies to the ambient-only scenarios")

    def secure(level: float) -> bool:
        return evaluate_point(scenario, fov_floor_deg, level).report.secure

    decades = _largest_secure(lambda d: secure(10.0**d), _AMBIENT_LADDER_DECADES, _TOLERANCE_PRECISION_DECADES)
    if decades is not None:
        return 10.0**decades
    return 0.0 if secure(0.0) else None


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
    if not fov_values_deg:
        return ()
    room = replace(
        build_setup(scenario, fov_values_deg[0], 0.0).room,
        transmitter=Pose(position, Point3(0.0, 0.0, 1.0)),
        tx_semi_angle_deg=tx_semi_angle_deg,
    )
    gains = los_gain_for(room, enforce_fov=False, fov_deg=fov_values_deg).tolist()
    return tuple(-10.0 * math.log10(h) if h > 0.0 else math.inf for h in gains)
