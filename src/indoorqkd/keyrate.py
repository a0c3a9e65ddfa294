"""Decoy-state BB84 key-rate lower bound in the infinite-decoy limit.

Single-photon yield and error are taken as exactly estimated (perfect decoy
statistics), so the bound needs only the channel transmittance and the
per-detector background count probability:

    R >= q { Q1 [1 - h(e1)] - f Qmu h(Emu) }

with Q1, e1 the single-photon gain and error rate, Qmu, Emu the signal-state
gain and QBER, h the binary entropy, f the error-correction inefficiency and
q the sifting factor (1 for the efficient protocol variant, 1/2 for the
symmetric one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BACKGROUND_CLICK_ERROR",
    "UndefinedRateError",
    "ProtocolParams",
    "KeyRateReport",
    "binary_entropy",
    "yield_single",
    "gain_single",
    "error_single",
    "gain_mu",
    "qber_mu",
    "secret_key_rate",
]

# A background click lands in either bit value with equal probability.
BACKGROUND_CLICK_ERROR = 0.5


class UndefinedRateError(ValueError):
    """An error rate was requested for a gain of exactly zero (no clicks)."""


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Protocol-side constants of the key-rate bound."""

    mean_photons_per_pulse: float
    sift_factor: float = 1.0
    error_correction_inefficiency: float = 1.16
    misalignment_error: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_photons_per_pulse < math.inf:
            raise ValueError(f"mean_photons_per_pulse must be non-negative and finite, got {self.mean_photons_per_pulse!r}")
        if not 0.0 < self.sift_factor <= 1.0:
            raise ValueError(f"sift_factor must lie in (0, 1], got {self.sift_factor!r}")
        if not 1.0 <= self.error_correction_inefficiency < math.inf:
            raise ValueError(f"error_correction_inefficiency must be >= 1 and finite, got {self.error_correction_inefficiency!r}")
        if not 0.0 <= self.misalignment_error <= 0.5:
            raise ValueError(f"misalignment_error must lie in [0, 0.5], got {self.misalignment_error!r}")


@dataclass(frozen=True, slots=True)
class KeyRateReport:
    """All intermediate quantities of one key-rate evaluation.

    ``rate`` is clamped at zero; ``unclamped_rate`` keeps the sign so callers
    can bisect on the crossing.  ``degenerate`` marks evaluations where the
    error rates were undefined (no clicks at all) and the rate defaulted to 0.
    """

    y1: float
    q1: float
    e1: float
    q_mu: float
    e_mu: float
    rate: float
    unclamped_rate: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        for name in ("y1", "q1", "e1", "q_mu", "e_mu"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.rate < 0.0:
            raise ValueError("rate must be non-negative")

    @property
    def secure(self) -> bool:
        return self.rate > 0.0


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def yield_single(transmittance: float, noise: float) -> float:
    """Click probability for a single-photon pulse: signal or either detector's background."""
    _check_unit_interval(transmittance=transmittance, noise=noise)
    return 1.0 - (1.0 - transmittance) * (1.0 - noise) ** 2


def gain_single(y1: float, mean_photons: float) -> float:
    """Single-photon gain Q1 = Y1 * mu * exp(-mu) of a Poissonian source."""
    _check_unit_interval(y1=y1)
    if mean_photons < 0.0:
        raise ValueError("mean_photons must be non-negative")
    return y1 * mean_photons * math.exp(-mean_photons)


def error_single(y1: float, transmittance: float, noise: float, misalignment: float = 0.0) -> float:
    """Single-photon error rate e1.

    Background clicks are random (error 1/2); detected signal photons err
    with the misalignment probability only.
    """
    _check_unit_interval(y1=y1, transmittance=transmittance, noise=noise)
    if y1 == 0.0:
        raise UndefinedRateError("e1 undefined: single-photon yield is zero")
    e0 = BACKGROUND_CLICK_ERROR
    value = (e0 * y1 - (e0 - misalignment) * transmittance * (1.0 - noise)) / y1
    return min(max(value, 0.0), 1.0)


def gain_mu(transmittance: float, mean_photons: float, noise: float) -> float:
    """Signal-state gain Qmu = 1 - exp(-eta mu) (1 - noise)^2."""
    _check_unit_interval(transmittance=transmittance, noise=noise)
    if mean_photons < 0.0:
        raise ValueError("mean_photons must be non-negative")
    return 1.0 - math.exp(-transmittance * mean_photons) * (1.0 - noise) ** 2


def qber_mu(
    q_mu: float,
    transmittance: float,
    mean_photons: float,
    noise: float,
    misalignment: float = 0.0,
) -> float:
    """Signal-state quantum bit error rate Emu."""
    _check_unit_interval(q_mu=q_mu, transmittance=transmittance, noise=noise)
    if q_mu == 0.0:
        raise UndefinedRateError("Emu undefined: signal gain is zero")
    e0 = BACKGROUND_CLICK_ERROR
    detected = 1.0 - math.exp(-transmittance * mean_photons)
    value = (e0 * q_mu - (e0 - misalignment) * detected * (1.0 - noise)) / q_mu
    return min(max(value, 0.0), 1.0)


def secret_key_rate(params: ProtocolParams, transmittance: float, noise: float) -> KeyRateReport:
    """Key-rate lower bound in bits per pulse for one operating point.

    Inputs above one are treated as saturated probabilities (a background
    brighter than one count per gate cannot get worse); negative inputs are
    rejected.  When nothing ever clicks the error rates are undefined and the
    report carries rate 0 with the ``degenerate`` flag set.
    """
    if transmittance < 0.0 or noise < 0.0:
        raise ValueError("transmittance and noise must be non-negative")
    eta = min(transmittance, 1.0)
    n = min(noise, 1.0)

    y1 = yield_single(eta, n)
    q1 = gain_single(y1, params.mean_photons_per_pulse)
    q_mu = gain_mu(eta, params.mean_photons_per_pulse, n)
    if y1 == 0.0 or q_mu == 0.0:
        return KeyRateReport(
            y1=y1, q1=q1, e1=0.0, q_mu=q_mu, e_mu=0.0,
            rate=0.0, unclamped_rate=0.0, degenerate=True,
        )
    e1 = error_single(y1, eta, n, params.misalignment_error)
    e_mu = qber_mu(q_mu, eta, params.mean_photons_per_pulse, n, params.misalignment_error)
    unclamped = params.sift_factor * (
        q1 * (1.0 - binary_entropy(e1))
        - params.error_correction_inefficiency * q_mu * binary_entropy(e_mu)
    )
    return KeyRateReport(
        y1=y1,
        q1=q1,
        e1=e1,
        q_mu=q_mu,
        e_mu=e_mu,
        rate=max(0.0, unclamped),
        unclamped_rate=unclamped,
    )


def _check_unit_interval(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
