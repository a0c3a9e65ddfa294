"""Background photon budget at the receiver, per pulse and per detector.

Three independent contributions add up: broadband ambient light collected
through the concentrator, lamp light that reaches the detector after one
diffuse bounce, and dark counts.  Optical contributions carry a factor 1/2
because unpolarized background splits evenly between two polarization modes
and only one reaches a given detector.

The count functions are elementwise: spectral levels may be numpy arrays
(one per operating point), and every element goes through the operations
of a scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    if wavelength_nm <= 0.0:
        raise ValueError("wavelength_nm must be positive")
    return PLANCK_J_S * SPEED_OF_LIGHT_M_S / (wavelength_nm * 1e-9)


def matched_filter_bandwidth_nm(wavelength_nm: float, pulse_width_s: float) -> float:
    """Spectral width lambda^2 / (tau c) of a filter matched to the pulse.

    With this choice the admitted background energy per pulse is independent
    of the pulse width: bandwidth * tau is a constant of the wavelength.
    """
    if not 0.0 < wavelength_nm < math.inf:
        raise ValueError(f"wavelength_nm must be positive and finite, got {wavelength_nm!r}")
    if pulse_width_s <= 0.0:
        raise ValueError("pulse_width_s must be positive")
    lam_m = wavelength_nm * 1e-9
    return lam_m * lam_m / (pulse_width_s * SPEED_OF_LIGHT_M_S) * 1e9


def isotropic_noise_power(
    ambient_irradiance_w_nm_m2: float | np.ndarray,
    bandwidth_nm: float,
    filter_transmission: float,
    detector_area_m2: float,
    concentrator_index: float,
) -> float | np.ndarray:
    """Optical power collected from an isotropic ambient background.

    The concentrator contributes a constant n^2: opening the field of view
    admits more sky while diluting the gain by exactly the same factor.
    """
    if not _non_negative(ambient_irradiance_w_nm_m2, bandwidth_nm, detector_area_m2):
        raise ValueError("ambient power inputs must be non-negative")
    return (
        ambient_irradiance_w_nm_m2
        * bandwidth_nm
        * filter_transmission
        * detector_area_m2
        * concentrator_index**2
    )


def photons_per_pulse(
    power_w: float | np.ndarray,
    pulse_width_s: float,
    efficiency: float,
    wavelength_nm: float,
) -> float | np.ndarray:
    """Detected photons per pulse window from a steady optical power."""
    if not _non_negative(power_w):
        raise ValueError("power_w must be non-negative")
    return power_w * pulse_width_s * (efficiency / 2.0) / _photon_energy_j(wavelength_nm)


def lamp_noise_photons(
    lamp_psd_w_per_nm: float | np.ndarray,
    bandwidth_nm: float,
    pulse_width_s: float,
    efficiency: float,
    wavelength_nm: float,
    reflected_integral: float,
) -> float | np.ndarray:
    """Detected photons per pulse from single-bounce lamp light.

    ``reflected_integral`` is the summed bounce gain from the channel module;
    multiplying by the lamp's in-band energy per pulse turns it into counts.
    """
    if not _non_negative(lamp_psd_w_per_nm, reflected_integral):
        raise ValueError("lamp noise inputs must be non-negative")
    in_band_power = lamp_psd_w_per_nm * bandwidth_nm
    return (
        in_band_power
        * pulse_width_s
        * (efficiency / 2.0)
        / _photon_energy_j(wavelength_nm)
        * reflected_integral
    )


def dark_counts_per_pulse(dark_count_rate_hz: float, pulse_width_s: float) -> float:
    """Dark counts expected inside one pulse-width gate."""
    if not (_non_negative(dark_count_rate_hz) and pulse_width_s > 0.0):
        raise ValueError("dark-count inputs must be non-negative")
    return dark_count_rate_hz * pulse_width_s


def _non_negative(*values: float | np.ndarray) -> bool:
    # nan fails, so a nan count is stopped where it enters; floats (numpy's
    # included) skip the array reduction, which costs microseconds
    return all(v >= 0.0 if isinstance(v, float) else (np.asarray(v) >= 0.0).all() for v in values)
