"""Background photon budget at the receiver, per pulse and per detector.

Three independent contributions add up: broadband ambient light collected
through the concentrator, lamp light that reaches the detector after one
diffuse bounce, and dark counts.  Optical contributions carry a factor 1/2
because unpolarized background splits evenly between two polarization modes
and only one reaches a given detector.

The count functions take the validated ``DetectorParams`` and
``RoomScenario`` for their fixed figures, so they check only the levels,
powers and integrals they are handed.  They are elementwise: spectral
levels may be numpy arrays (one per operating point), and every element
goes through the operations of a scalar call.  A count too large for a
float is inf, without a warning; the key rate saturates counts at one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT_M_S, DetectorParams
from .geometry import RoomScenario, _in_range

__all__ = [
    "NoiseBudget",
    "matched_filter_bandwidth_nm",
    "isotropic_noise_power",
    "photons_per_pulse",
    "lamp_noise_photons",
    "dark_counts_per_pulse",
]


# eq=False: fields may be arrays, whose == has no truth value; compare fields.
@dataclass(frozen=True, slots=True, eq=False)
class NoiseBudget:
    """Per-pulse, per-detector background counts, split by origin.

    Each count is a scalar or an array over operating points; they
    broadcast together.
    """

    ambient: float | np.ndarray
    lamp_bounce: float | np.ndarray
    dark: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("ambient", "lamp_bounce", "dark"):
            _in_range(name, getattr(self, name), 0.0, math.inf)

    @property
    def total(self) -> float | np.ndarray:
        return self.ambient + self.lamp_bounce + self.dark


def matched_filter_bandwidth_nm(detector: DetectorParams) -> float:
    """Spectral width lambda^2 / (tau c) of a filter matched to the pulse.

    With this choice the admitted background energy per pulse is independent
    of the pulse width: bandwidth * tau is a constant of the wavelength.
    """
    lam_m = detector.wavelength_nm * 1e-9
    return lam_m * lam_m / (detector.pulse_width_s * SPEED_OF_LIGHT_M_S) * 1e9


def isotropic_noise_power(
    ambient_irradiance_w_nm_m2: float | np.ndarray, room: RoomScenario
) -> float | np.ndarray:
    """Optical power collected from an isotropic ambient background through
    the room's receiver filter, detector area and concentrator.

    The concentrator contributes a constant n^2: opening the field of view
    admits more sky while diluting the gain by exactly the same factor.
    """
    irradiance = _in_range("ambient_irradiance_w_nm_m2", ambient_irradiance_w_nm_m2, 0.0, math.inf)
    with np.errstate(over="ignore"):
        return (
            irradiance
            * room.filter_bandwidth_nm
            * room.filter_transmission
            * room.detector_area_m2
            * room.concentrator_index**2
        )


def photons_per_pulse(power_w: float | np.ndarray, detector: DetectorParams) -> float | np.ndarray:
    """Detected photons per pulse window from a steady optical power."""
    power = _in_range("power_w", power_w, 0.0, math.inf)
    with np.errstate(over="ignore"):
        return power * detector.pulse_width_s * (detector.efficiency / 2.0) / detector.photon_energy_j


def lamp_noise_photons(
    lamp_psd_w_per_nm: float | np.ndarray,
    room: RoomScenario,
    detector: DetectorParams,
    reflected_integral: float | np.ndarray,
) -> float | np.ndarray:
    """Detected photons per pulse from single-bounce lamp light.

    ``reflected_integral`` is the summed bounce gain from the channel module,
    one value or one per field of view; multiplying by the lamp's in-band
    energy per pulse (in the room's filter band) turns it into counts.
    """
    psd = _in_range("lamp_psd_w_per_nm", lamp_psd_w_per_nm, 0.0, math.inf)
    integral = _in_range("reflected_integral", reflected_integral, 0.0, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        counts = photons_per_pulse(psd * room.filter_bandwidth_nm, detector) * integral
    # An energy beyond the float range times a zero integral is nan: no bounce, no counts.
    return np.where(np.isnan(counts), 0.0, counts)[()]


def dark_counts_per_pulse(detector: DetectorParams) -> float:
    """Dark counts expected inside one pulse-width gate."""
    return detector.dark_count_rate_hz * detector.pulse_width_s

