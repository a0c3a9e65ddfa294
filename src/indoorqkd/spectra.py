"""Measured lamp spectra: loading, interpolation, and unit conversion.

Two curve kinds circulate in the pipeline.  A ``source-psd`` curve gives the
bulb's emitted power spectral density in W/nm; an ``irradiance`` curve gives
the spectral irradiance in W/nm/m^2 seen by a probe at a known distance.
Curves are kept as sampled points with plain linear interpolation in between;
the ends of a real measurement are often noisy and are deliberately not
smoothed or extrapolated.
"""

from __future__ import annotations

import csv
import io
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources

from .geometry import _LARGEST_FLOAT, _SMALLEST_POSITIVE, _in_range, _one_number, _real, _shown

__all__ = [
    "OutOfBandError",
    "SpectrumFormatError",
    "SpectrumKindError",
    "SpectralCurve",
    "density_at",
    "irradiance_to_psd",
    "load_spectrum_csv",
    "bundled_spectrum_path",
]

KINDS = ("source-psd", "irradiance")


class OutOfBandError(ValueError):
    """Requested wavelength lies outside the sampled band."""


class SpectrumFormatError(ValueError):
    """A spectrum file could not be parsed; the message names the bad row."""


class SpectrumKindError(TypeError):
    """A curve of the wrong kind was passed to a conversion."""


@dataclass(frozen=True, slots=True)
class SpectralCurve:
    """Sampled spectral density, strictly increasing in wavelength."""

    wavelengths_nm: tuple[float, ...]
    values: tuple[float, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpectrumKindError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if (shape := _real("wavelengths_nm", self.wavelengths_nm).shape) != _real("values", self.values).shape:
            raise ValueError("wavelength and value arrays differ in length")
        if len(shape) != 1 or shape[0] < 2:
            raise ValueError("a spectral curve needs at least two samples")
        for a, b in zip(self.wavelengths_nm, self.wavelengths_nm[1:]):
            if not b > a:
                raise ValueError("wavelengths must be strictly increasing")
        if not all(0.0 <= v < math.inf for v in self.values):  # nan fails
            raise ValueError("spectral densities must be non-negative and finite")

    def band(self) -> tuple[float, float]:
        return (self.wavelengths_nm[0], self.wavelengths_nm[-1])


def density_at(curve: SpectralCurve, wavelength_nm: float) -> float:
    """Linearly interpolated density at ``wavelength_nm``.

    Raises OutOfBandError outside the sampled band; silent extrapolation of a
    measurement tail would invent data.
    """
    _one_number(wavelength_nm=wavelength_nm)
    lo, hi = curve.band()
    if not lo <= wavelength_nm <= hi:
        raise OutOfBandError(
            f"wavelength {wavelength_nm:g} nm outside sampled band [{lo:g}, {hi:g}] nm"
        )
    grid = curve.wavelengths_nm
    i = bisect_right(grid, wavelength_nm)
    if i == len(grid):
        return curve.values[-1] + 0.0  # a stored -0.0 as 0.0, as the interpolation gives it
    x0, x1 = grid[i - 1], grid[i]
    y0, y1 = curve.values[i - 1], curve.values[i]
    t = (wavelength_nm - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def _check_distance(distance_m: float) -> None:  # a probe's distance from the bulb
    _in_range("distance_m", distance_m, _SMALLEST_POSITIVE, _LARGEST_FLOAT)
    _one_number(distance_m=distance_m)


def irradiance_to_psd(curve: SpectralCurve, distance_m: float) -> SpectralCurve:
    """Convert a probe irradiance curve to an equivalent source PSD.

    Treats the bulb as an isotropic point source at the probe distance, so
    S(lambda) = 4 pi d^2 E(lambda).  Real bulbs are not isotropic; this keeps
    the order of magnitude and is the documented approximation here.  A
    distance that is not positive and finite, or whose S overflows or
    underflows to 0 where E is not 0, is a ValueError.
    """
    if curve.kind != "irradiance":
        raise SpectrumKindError(f"expected an irradiance curve, got kind {curve.kind!r}")
    _check_distance(distance_m)
    scale = 4.0 * math.pi * distance_m * distance_m
    values = tuple(scale * v for v in curve.values)
    if not all(v < math.inf for v in values):  # inf, or nan where an inf scale meets a 0 density
        raise ValueError(f"4 pi d^2 E overflows at distance_m = {distance_m!r}")
    if any(s == 0.0 != e for s, e in zip(values, curve.values)):  # a lamp that would silently be off
        raise ValueError(f"4 pi d^2 E underflows at distance_m = {distance_m!r}")
    return SpectralCurve(wavelengths_nm=curve.wavelengths_nm, values=values, kind="source-psd")


def load_spectrum_csv(path, kind: str) -> SpectralCurve:
    """Load a two-column (wavelength_nm, density) UTF-8 CSV, with or without a byte-order mark, with a header row."""
    if not isinstance(path, (str, os.PathLike)):  # open() would take an int as a file descriptor, and close it
        raise ValueError(f"path must be a file path, as text or os.PathLike, got {_shown(path)}")
    rows: list[tuple[float, float]] = []
    with open(path, "rb") as handle:
        data = handle.read()
    try:  # the whole file, as utf-8-sig decodes it (a leading byte-order mark dropped), with a bad byte's offset in the file
        reader = csv.reader(io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=""))
    except UnicodeDecodeError as exc:
        raise SpectrumFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    header = next(reader, None)
    if header is None or len(header) < 2:
        raise SpectrumFormatError(f"{path}: missing two-column header row")
    try:
        float(header[0])
    except ValueError:
        pass  # text, as a header's is
    else:
        raise SpectrumFormatError(f"{path}: missing header row: row 1 is data, starting with the number {header[0]!r}")
    for number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != 2:
            raise SpectrumFormatError(f"{path}: row {number}: expected two columns, got {row!r}")
        try:
            rows.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}: row {number}: {exc}") from None
    if len(rows) < 2:
        raise SpectrumFormatError(f"{path}: fewer than two data rows")
    try:
        return SpectralCurve(
            wavelengths_nm=tuple(r[0] for r in rows),
            values=tuple(r[1] for r in rows),
            kind=kind,
        )
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from None


def bundled_spectrum_path(name: str):
    """Filesystem path of a sample spectrum shipped with the package."""
    return resources.files("indoorqkd.data").joinpath(name)
