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

from dataclasses import dataclass

import numpy as np

from .channel import DetectorParams
from .geometry import RoomScenario

__all__ = [
    "PLANCK_J_S",
    "SPEED_OF_LIGHT_M_S",
    "BLACKBODY_AMBIENT_W_NM_M2",
    "NoiseBudget",
    "matched_filter_bandwidth_nm",
    "isotropic_noise_power",
    "photons_per_pulse",
    "lamp_noise_photons",
    "dark_counts_per_pulse",
]

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

# Thermal (blackbody) room background is orders of magnitude below lamp
# light in the near infrared; use this preset to include it anyway.
BLACKBODY_AMBIENT_W_NM_M2 = 1e-18


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
        if not _non_negative(self.ambient, self.lamp_bounce, self.dark):
            raise ValueError("noise counts must be non-negative")

    @property
    def total(self) -> float | np.ndarray:
        return self.ambient + self.lamp_bounce + self.dark


def _photon_energy_j(wavelength_nm: float) -> float:
    return PLANCK_J_S * SPEED_OF_LIGHT_M_S / (wavelength_nm * 1e-9)


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
    if not _non_negative(ambient_irradiance_w_nm_m2):
        raise ValueError("ambient power inputs must be non-negative")
    with np.errstate(over="ignore"):
        return (
            ambient_irradiance_w_nm_m2
            * room.filter_bandwidth_nm
            * room.filter_transmission
            * room.detector_area_m2
            * room.concentrator_index**2
        )


def photons_per_pulse(power_w: float | np.ndarray, detector: DetectorParams) -> float | np.ndarray:
    """Detected photons per pulse window from a steady optical power."""
    if not _non_negative(power_w):
        raise ValueError("power_w must be non-negative")
    with np.errstate(over="ignore"):
        return power_w * detector.pulse_width_s * (detector.efficiency / 2.0) / _photon_energy_j(detector.wavelength_nm)


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
    if not _non_negative(lamp_psd_w_per_nm, reflected_integral):
        raise ValueError("lamp noise inputs must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        in_band_power = lamp_psd_w_per_nm * room.filter_bandwidth_nm
        counts = (
            in_band_power
            * detector.pulse_width_s
            * (detector.efficiency / 2.0)
            / _photon_energy_j(detector.wavelength_nm)
            * reflected_integral
        )
    # An energy beyond the float range times a zero integral is nan: no bounce, no counts.
    return np.where(np.isnan(counts), 0.0, counts)[()]


def dark_counts_per_pulse(detector: DetectorParams) -> float:
    """Dark counts expected inside one pulse-width gate."""
    return detector.dark_count_rate_hz * detector.pulse_width_s


def _non_negative(*values: float | np.ndarray) -> bool:
    # nan fails, so a nan count is stopped where it enters; floats (numpy's
    # included) skip the array reduction, which costs microseconds
    return all(v >= 0.0 if isinstance(v, float) else (np.asarray(v) >= 0.0).all() for v in values)
