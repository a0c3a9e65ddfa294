"""Decoy-state BB84 key-rate lower bound in the infinite-decoy limit.

Single-photon yield and error are taken as exactly estimated (perfect decoy
statistics), so the bound needs only the channel transmittance and the
per-detector background count probability:

    R >= q { Q1 [1 - h(e1)] - f Qmu h(Emu) }

with Q1, e1 the single-photon gain and error rate, Qmu, Emu the signal-state
gain and QBER, h the binary entropy, f the error-correction inefficiency and
q the sifting factor (1 for the efficient protocol variant, 1/2 for the
symmetric one).

Every function here is elementwise: it takes floats or numpy arrays that
broadcast together, and returns numpy scalars for scalar inputs and arrays
otherwise.  Each element goes through the floating-point operations of a
scalar call, so one call over a vector of noise counts gives, bit for bit,
the results of one call per count.  That rests on numpy's ufuncs, whose
exp and log2 give the same bits for a scalar as for any element of an
array, not on the C library's libm, whose last bit they may not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import _LARGEST_FLOAT, _SMALLEST_POSITIVE, _in_range, _one_number

__all__ = [
    "BACKGROUND_CLICK_ERROR",
    "ProtocolParams",
    "KeyRateReport",
    "binary_entropy",
    "secret_key_rate",
]

# A background click lands in either bit value with equal probability.
BACKGROUND_CLICK_ERROR = 0.5

Values = float | np.ndarray


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Protocol-side constants of the key-rate bound."""

    mean_photons_per_pulse: float
    sift_factor: float = 1.0
    error_correction_inefficiency: float = 1.16
    misalignment_error: float = 0.0

    def __post_init__(self) -> None:
        _in_range("mean_photons_per_pulse", self.mean_photons_per_pulse, 0.0, _LARGEST_FLOAT)
        _in_range("sift_factor", self.sift_factor, _SMALLEST_POSITIVE, 1.0)
        _in_range("error_correction_inefficiency", self.error_correction_inefficiency, 1.0, _LARGEST_FLOAT)
        _in_range("misalignment_error", self.misalignment_error, 0.0, 0.5)
        _one_number(**{f.name: getattr(self, f.name) for f in fields(self)})


# eq=False: fields may be arrays, whose == has no truth value; compare fields.
@dataclass(frozen=True, slots=True, eq=False)
class KeyRateReport:
    """All intermediate quantities of one key-rate evaluation.

    ``rate`` is clamped at zero; ``unclamped_rate`` is the bound before that
    clamp, which may be negative.  ``degenerate`` marks evaluations where the
    error rates were undefined (no clicks at all) and the rate defaulted to 0.
    Fields are scalars for a scalar evaluation and arrays, one element per
    operating point, for an array one.
    """

    y1: Values
    q1: Values
    e1: Values
    q_mu: Values
    e_mu: Values
    rate: Values
    unclamped_rate: Values
    degenerate: bool | np.ndarray = False

    def __post_init__(self) -> None:
        for name in ("y1", "q1", "e1", "q_mu", "e_mu"):
            _in_range(name, getattr(self, name), 0.0, 1.0)
        _in_range("rate", self.rate, 0.0, math.inf)

    @property
    def secure(self) -> bool | np.ndarray:
        return self.rate > 0.0


def binary_entropy(x: Values) -> Values:
    """Binary Shannon entropy h(x) in bits; h(0) = h(1) = 0."""
    return _entropy(_in_range("x", x, 0.0, 1.0))


def secret_key_rate(params: ProtocolParams, transmittance: Values, noise: Values) -> KeyRateReport:
    """Key-rate lower bound in bits per pulse, per operating point.

    ``transmittance`` and ``noise`` are scalars or arrays that broadcast
    together; the report holds one element per operating point.  Inputs
    above one are treated as saturated probabilities (a background brighter
    than one count per gate cannot get worse); negative and nan inputs are
    rejected.  Where nothing ever clicks the error rates are undefined and
    the report carries rate 0 with the ``degenerate`` flag set.
    """
    eta = np.minimum(_in_range("transmittance", transmittance, 0.0, math.inf), 1.0)
    n = np.minimum(_in_range("noise", noise, 0.0, math.inf), 1.0)
    mu = params.mean_photons_per_pulse
    m = params.misalignment_error

    quiet = (1.0 - n) * (1.0 - n)  # P(neither detector's background clicks)
    y1 = 1.0 - (1.0 - eta) * quiet
    q1 = y1 * mu * np.exp(-mu)  # Q1, the single-photon gain
    decay = np.exp(-eta * mu)  # P(a signal pulse delivers no photon)
    q_mu = 1.0 - decay * quiet
    degenerate = (y1 == 0.0) | (q_mu == 0.0)
    # Degenerate points take a gain of one in the error rates, which are
    # then defined everywhere; their results are replaced by zeros.
    e1 = _where(degenerate, 0.0, _error_rate(_where(degenerate, 1.0, y1), eta, n, m))
    e_mu = _where(degenerate, 0.0, _error_rate(_where(degenerate, 1.0, q_mu), 1.0 - decay, n, m))
    unclamped = params.sift_factor * (
        q1 * (1.0 - _entropy(e1))
        - params.error_correction_inefficiency * q_mu * _entropy(e_mu)
    )
    unclamped = _where(degenerate, 0.0, unclamped)
    return KeyRateReport(
        y1=y1,
        q1=q1,
        e1=e1,
        q_mu=q_mu,
        e_mu=e_mu,
        rate=_where(unclamped > 0.0, unclamped, 0.0),
        unclamped_rate=unclamped,
        degenerate=degenerate,
    )


# The formulas, on inputs already checked; secret_key_rate reports each of
# their results (Y1, Q1, e1, Qmu, Emu), so none needs a public twin.  A scalar
# input stays a numpy scalar throughout (``[()]``), whose arithmetic costs
# a tenth of a 0-d array's.

def _entropy(x: np.ndarray) -> np.ndarray:
    inner = (x > 0.0) & (x < 1.0)
    p = _where(inner, x, 0.5)
    h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return _where(inner, h, 0.0)


def _error_rate(gain: np.ndarray, signal: np.ndarray, n: np.ndarray, misalignment: float) -> np.ndarray:
    """Error rate of clicks at ``gain``, of which ``signal`` (times 1 - n) carry the signal."""
    e0 = BACKGROUND_CLICK_ERROR
    value = (e0 * gain - (e0 - misalignment) * signal * (1.0 - n)) / gain
    return np.minimum(np.maximum(value, 0.0), 1.0)


def _where(condition, x, y) -> np.ndarray:
    return np.where(condition, x, y)[()]

