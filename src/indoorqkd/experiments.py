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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

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
    "SweepGrid",
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

# Probe ladder for bracketing the secure-FOV boundary; boundaries below the
# smallest rung are reported as not secure.
_FOV_LADDER_DEG = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 90.0)


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


@dataclass(frozen=True, slots=True)
class Setup:
    """Fully resolved inputs for one operating-point evaluation."""

    room: RoomScenario
    detector: DetectorParams
    protocol: ProtocolParams
    wavelength_nm: float

    def __post_init__(self) -> None:
        if not self.wavelength_nm > 0.0:
            raise ValueError("wavelength_nm must be positive")


@dataclass(frozen=True, slots=True)
class OperatingPoint:
    """One evaluated grid point: channel, noise, and key-rate stages."""

    scenario: str
    fov_deg: float
    source_level: float
    gains: ChannelGains
    budget: NoiseBudget
    report: KeyRateReport


@dataclass(frozen=True, slots=True)
class SweepGrid:
    """Feasibility map over (field of view) x (source spectral density)."""

    scenario: str
    fov_values_deg: tuple[float, ...]
    source_values: tuple[float, ...]
    points: tuple[tuple[OperatingPoint, ...], ...]  # indexed [fov][source]


def build_setup(scenario: Scenario, fov_deg: float, source_level: float) -> Setup:
    """Resolve a scenario into concrete room, detector, and protocol values.

    ``source_level`` is the lamp PSD in W/nm for lamp scenarios and the
    ambient spectral irradiance in W/nm/m^2 for ambient-only scenarios.
    """
    if source_level < 0.0:
        raise ValueError("source_level must be non-negative")
    p = scenario.params()
    x, y, z = float(p["room_x_m"]), float(p["room_y_m"]), float(p["room_z_m"])
    wavelength = float(p["wavelength_nm"])
    tau = float(p["pulse_width_s"])

    bandwidth = p["filter_bandwidth_nm"]
    if bandwidth is None:
        bandwidth = matched_filter_bandwidth_nm(wavelength, tau)

    lamp_x = x / 2.0 if p["lamp_x_m"] is None else float(p["lamp_x_m"])
    lamp_y = y / 2.0 if p["lamp_y_m"] is None else float(p["lamp_y_m"])
    down = Point3(0.0, 0.0, -1.0)
    receiver = Pose(Point3(x / 2.0, y / 2.0, z), down)
    lamp = Pose(Point3(lamp_x, lamp_y, z), down)

    if "corner" in scenario.name:
        tx_position = Point3(0.0, 0.0, 0.0)
    else:
        tx_position = Point3(x / 2.0, y / 2.0, 0.0)
    if scenario.name == "lamp-corner-steered":
        transmitter = Pose.aimed_at(tx_position, receiver.position)
    else:
        transmitter = Pose(tx_position, Point3(0.0, 0.0, 1.0))

    if scenario.name in AMBIENT_SCENARIOS:
        lamp_psd = 0.0
        ambient = source_level
    else:
        lamp_psd = source_level
        ambient = float(p["ambient_irradiance_w_nm_m2"])

    room = RoomScenario(
        room_x_m=x,
        room_y_m=y,
        room_z_m=z,
        wall_reflectivity=float(p["wall_reflectivity"]),
        floor_reflectivity=float(p["floor_reflectivity"]),
        lamp=lamp,
        lamp_semi_angle_deg=float(p["lamp_semi_angle_deg"]),
        lamp_psd_w_per_nm=lamp_psd,
        transmitter=transmitter,
        tx_semi_angle_deg=_TX_SEMI_ANGLE_DEG[scenario.name],
        receiver=receiver,
        fov_deg=fov_deg,
        detector_area_m2=float(p["detector_area_m2"]),
        concentrator_index=float(p["concentrator_index"]),
        filter_transmission=float(p["filter_transmission"]),
        filter_bandwidth_nm=float(bandwidth),
        ambient_irradiance_w_nm_m2=ambient,
    )
    detector = DetectorParams(
        efficiency=float(p["detector_efficiency"]),
        dark_count_rate_hz=float(p["dark_count_rate_hz"]),
        pulse_width_s=tau,
    )
    protocol = ProtocolParams(
        mean_photons_per_pulse=float(p["mean_photons_per_pulse"]),
        sift_factor=float(p["sift_factor"]),
        error_correction_inefficiency=float(p["error_correction_inefficiency"]),
        misalignment_error=float(p["misalignment_error"]),
    )
    return Setup(room=room, detector=detector, protocol=protocol, wavelength_nm=wavelength)


@lru_cache(maxsize=4096)
def _cached_reflected_integral(room_key: RoomScenario, patches_per_meter: int) -> float:
    return total_reflected_gain(room_key, patches_per_meter)


def _reflected_integral(room: RoomScenario, patches_per_meter: int) -> float:
    # The integral does not depend on the spectral levels; normalize them out
    # of the cache key so a PSD sweep reuses one tessellation pass per FOV.
    key = replace(room, lamp_psd_w_per_nm=0.0, ambient_irradiance_w_nm_m2=0.0)
    return _cached_reflected_integral(key, patches_per_meter)


def evaluate_point(
    scenario: Scenario,
    fov_deg: float,
    source_level: float,
    *,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    signal_fov_cutoff: bool = False,
) -> OperatingPoint:
    """Channel gains, noise budget, and key rate at one grid point."""
    setup = build_setup(scenario, fov_deg, source_level)
    room, det = setup.room, setup.detector

    h_sig = los_gain_for(room, enforce_fov=signal_fov_cutoff)
    eta = det.efficiency * h_sig

    if room.lamp_psd_w_per_nm > 0.0:
        integral = _reflected_integral(room, patches_per_meter)
    else:
        integral = 0.0

    ambient_power = isotropic_noise_power(
        room.ambient_irradiance_w_nm_m2,
        room.filter_bandwidth_nm,
        room.filter_transmission,
        room.detector_area_m2,
        room.concentrator_index,
    )
    budget = NoiseBudget(
        ambient=photons_per_pulse(ambient_power, det.pulse_width_s, det.efficiency, setup.wavelength_nm),
        lamp_bounce=lamp_noise_photons(
            room.lamp_psd_w_per_nm,
            room.filter_bandwidth_nm,
            det.pulse_width_s,
            det.efficiency,
            setup.wavelength_nm,
            integral,
        ),
        dark=dark_counts_per_pulse(det.dark_count_rate_hz, det.pulse_width_s),
    )
    report = secret_key_rate(setup.protocol, eta, budget.total)
    return OperatingPoint(
        scenario=scenario.name,
        fov_deg=fov_deg,
        source_level=source_level,
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
) -> SweepGrid:
    """Evaluate the full (FOV, source level) grid for one scenario."""
    if not fov_values_deg or not source_values:
        raise ValueError("sweep axes must be non-empty")
    rows = []
    for fov in fov_values_deg:
        row = tuple(
            evaluate_point(
                scenario, fov, level,
                patches_per_meter=patches_per_meter,
                signal_fov_cutoff=signal_fov_cutoff,
            )
            for level in source_values
        )
        rows.append(row)
    return SweepGrid(
        scenario=scenario.name,
        fov_values_deg=tuple(fov_values_deg),
        source_values=tuple(source_values),
        points=tuple(rows),
    )


def secure_fov_boundary(
    scenario: Scenario,
    source_level: float,
    *,
    precision_deg: float = 0.1,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
    fov_max_deg: float = 90.0,
) -> float | None:
    """Largest field of view with a positive key rate, or None if none is.

    Relies on the rate being monotone in the FOV (the concentrator gain only
    falls and the admitted background only widens as the cone opens), probes
    a coarse ladder for a bracket, then bisects to ``precision_deg``.  The
    returned value is on the secure side of the crossing.
    """

    def secure(fov: float) -> bool:
        point = evaluate_point(scenario, fov, source_level, patches_per_meter=patches_per_meter)
        return point.report.secure

    ladder = [f for f in _FOV_LADDER_DEG if f < fov_max_deg] + [fov_max_deg]
    lo = None
    hi = None
    for fov in ladder:
        if secure(fov):
            lo = fov
        else:
            hi = fov
            break
    if lo is None:
        return None
    if hi is None:
        return fov_max_deg
    while hi - lo > precision_deg:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ambient_tolerance(
    scenario: Scenario,
    *,
    fov_floor_deg: float = 10.0,
    fov_ceiling_deg: float = 90.0,
    precision_decades: float = 0.01,
    patches_per_meter: int = DEFAULT_PATCHES_PER_METER,
) -> float:
    """Largest tolerable ambient spectral irradiance (W/nm/m^2).

    First finds the rate-optimal field of view over the studied range by a
    coarse one-degree scan plus local refinement (with an isotropic
    background the optimum rides the smallest studied FOV, where the
    concentrator gain is largest; the scan keeps this honest for parameter
    sets where that changes), then log-bisects the irradiance at that FOV.
    """
    if scenario.name not in AMBIENT_SCENARIOS:
        raise ValueError("ambient_tolerance applies to the ambient-only scenarios")
    reference = 1e-9  # comfortably tolerable; used only to rank FOVs

    def rate(fov: float, level: float) -> float:
        return evaluate_point(scenario, fov, level, patches_per_meter=patches_per_meter).report.rate

    coarse = [max(fov_floor_deg, float(f)) for f in range(int(fov_floor_deg), int(fov_ceiling_deg) + 1)]
    best = max(coarse, key=lambda f: rate(f, reference))
    fine_lo = max(fov_floor_deg, best - 1.0)
    fine_hi = min(fov_ceiling_deg, best + 1.0)
    steps = int(round((fine_hi - fine_lo) / 0.1))
    fine = [fine_lo + i * 0.1 for i in range(steps + 1)]
    best = max(fine, key=lambda f: rate(f, reference))

    if rate(best, reference) <= 0.0:
        return 0.0
    lo = math.log10(reference)
    hi = lo
    while rate(best, 10.0**hi) > 0.0:
        if hi >= 2.0:  # 100 W/nm/m^2 is secure, and nothing indoors is brighter
            return 10.0**hi
        hi += 1.0
    while hi - lo > precision_decades:
        mid = 0.5 * (lo + hi)
        if rate(best, 10.0**mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 10.0**lo


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
    regardless of FOV.
    """
    losses = []
    scenario = Scenario.named("lamp-center")
    for fov in fov_values_deg:
        setup = build_setup(scenario, fov, 0.0)
        room = replace(
            setup.room,
            transmitter=Pose(position, Point3(0.0, 0.0, 1.0)),
            tx_semi_angle_deg=tx_semi_angle_deg,
        )
        for key, value in (overrides or {}).items():
            if key in ("detector_area_m2", "concentrator_index", "filter_transmission"):
                room = replace(room, **{key: float(value)})
        h = los_gain_for(room, enforce_fov=False)
        losses.append(-10.0 * math.log10(h) if h > 0.0 else math.inf)
    return tuple(losses)
