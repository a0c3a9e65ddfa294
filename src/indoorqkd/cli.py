"""Batch front-end: INI config in, ``sweep.csv`` and ``summary.txt`` out.

The config is a flat key = value file grouped into sections named after the
library modules.  ``indoorqkd --dump-defaults`` prints the nominal
configuration; edit and pass it back.  Exit codes: 0 success, 2 config
error, 3 when --strict reads a not-converged bounce-quadrature report.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .channel import CONVERGENCE_RTOL, DEFAULT_ORDER, MAX_ORDER, ConvergenceReport, reflected_gain_convergence
from .experiments import (
    AMBIENT_SCENARIOS,
    NOMINAL,
    SCENARIOS,
    OperatingPoint,
    Scenario,
    ambient_tolerance,
    build_setup,
    secure_fov_boundary,
    sweep,
)
from .geometry import _LARGEST_FLOAT, RoomScenario, _count, _in_range, _shown
from .spectra import KINDS, OutOfBandError, SpectrumFormatError, _check_distance, density_at, irradiance_to_psd, load_spectrum_csv

__all__ = ["RunConfig", "load_config", "validate", "dump_defaults", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_STRICT_CONVERGENCE = 3

# Largest resolution_patches_per_meter, the bounce quadrature's rule order: the convergence check doubles it.
MAX_RESOLUTION = MAX_ORDER // 2
# Most (FOV, source) points a run may sweep, and so the longest axis.  Peak
# RSS is about 200 B a point on a square map and 300 B on one row; under a
# 1 GiB address-space cap 2.5e6 points run (0.49, 0.76 GB) and 3e6 on a row
# fail.  The sweep.csv writer adds nothing that grows with the map.
GRID_BUDGET = 2_500_000

# sweep.csv's columns after fov_deg and the source level: (header name, OperatingPoint field), the flag last.
_CSV_COLUMNS = (
    ("h_dc", "gains.line_of_sight"), ("eta", "gains.transmittance"),
    ("n_b1", "budget.ambient"), ("n_b2", "budget.lamp_bounce"), ("n_n", "budget.total"),
    ("y1", "report.y1"), ("q1", "report.q1"), ("e1", "report.e1"), ("q_mu", "report.q_mu"), ("e_mu", "report.e_mu"),
    ("rate_bits_per_pulse", "report.rate"), ("secure_flag", "report.secure"),
)

# sweep.csv cells as bytes.  '%.9e' text takes at most 17 (a sign, ten digits, the point and
# e-XXX); a cell is built in three little-endian 8-byte words, NUL-padded.  A column's slot in a
# row is two of them when its texts take at most 15 bytes (the comma in the second word's top
# byte) and all three otherwise (the comma in byte 23); the flag is one word.
_E9_BYTES = 24
_POW10 = 10.0 ** np.arange(-300, 301)  # 10**k at k + 300, each within an ulp
# '%03d' text of 0 .. 999, and 'e%+03d' text of the exponents -300 .. 300 at exponent + 300,
# NUL-padded, as the integers whose little-endian bytes they are; and a fast text's length by
# exponent + 300 (looked up: numpy's int64 abs and compare loops, run nowhere else in an op, add RSS).
_DIGITS3_WORD = np.array([b"%03d" % k for k in range(1000)], "S8").view("<u8")
_EXPONENT_WORD = np.array([b"e%+03d" % k for k in range(-300, 301)], "S8").view("<u8")
_E9_WIDTH = np.array([11 + len(b"e%+03d" % k) for k in range(-300, 301)])
_FLAG_WORD = np.array([b"false\n", b"true\n"], "S8").view("<u8")
_COMMA_TOP = np.uint64(ord(",") << 56)
# Most sweep.csv cells formatted at once.
_CSV_BLOCK = 1024


# Section layout of the config file.  Parameter keys match the nominal table
# in experiments; the rest is run plumbing.
_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "geometry": (
        "room_x_m", "room_y_m", "room_z_m",
        "wall_reflectivity", "floor_reflectivity",
        "lamp_x_m", "lamp_y_m", "lamp_semi_angle_deg",
    ),
    "channel": (
        "wavelength_nm", "detector_area_m2", "concentrator_index",
        "filter_transmission", "filter_bandwidth_nm",
        "detector_efficiency", "pulse_width_s",
    ),
    "noise": (
        "dark_count_rate_hz", "ambient_irradiance_w_nm_m2",
        "lamp_spectrum_file", "lamp_spectrum_kind", "lamp_spectrum_distance_m",
    ),
    "keyrate": (
        "mean_photons_per_pulse", "sift_factor",
        "error_correction_inefficiency", "misalignment_error",
    ),
    "experiments": (
        "scenario",
        "fov_min_deg", "fov_max_deg", "fov_steps", "fov_scale",
        "source_min", "source_max", "source_steps", "source_scale",
    ),
    "cli": (
        "output_dir", "resolution_patches_per_meter", "strict",
    ),
}

# None-valued nominals are spelled as sentinels so the file stays greppable.
_SENTINELS = {"lamp_x_m": "center", "lamp_y_m": "center", "filter_bandwidth_nm": "matched"}


@dataclass(slots=True)
class RunConfig:
    """What the config file says, over the defaults; ``_resolve`` derives the run from it."""

    scenario: str = "lamp-center"
    overrides: dict[str, float | None] = field(default_factory=dict)
    fov_min_deg: float = 2.0
    fov_max_deg: float = 30.0
    fov_steps: int = 29
    fov_scale: str = "linear"
    source_min: float = 1e-7
    source_max: float = 1e-4
    source_steps: int = 13
    source_scale: str = "log"
    lamp_spectrum_file: str = ""
    lamp_spectrum_kind: str = "source-psd"
    lamp_spectrum_distance_m: float = 1.0
    output_dir: str = "out"
    resolution_patches_per_meter: int = DEFAULT_ORDER
    strict: bool = False

    def effective_parameters(self) -> dict[str, object]:
        """Flat view of everything that influences the run, for comparisons."""
        merged: dict[str, object] = dict(NOMINAL)
        merged.update(self.overrides)
        for name in _RUN_KEY_TYPES:
            merged[name] = getattr(self, name)
        return merged


# The run keys (every RunConfig field but the overrides) and their types,
# as annotation strings: this module has postponed evaluation of annotations.
_RUN_KEY_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "overrides"}


def _axis(lo: float, hi: float, steps: int, scale: str) -> tuple[float, ...]:
    steps = _count("steps", steps, most=GRID_BUDGET)  # before an array of that length exists
    if scale not in ("linear", "log"):
        raise ValueError(f"scale = {_shown(scale)}: must be 'linear' or 'log'")
    if _in_range("min", lo, -_LARGEST_FLOAT, _LARGEST_FLOAT) > _in_range("max", hi, -_LARGEST_FLOAT, _LARGEST_FLOAT):  # each end named if not finite
        raise ValueError(f"min {_shown(lo)} exceeds max {_shown(hi)}")
    if scale == "log" and lo <= 0.0:
        raise ValueError(f"log scale needs a positive minimum, got {_shown(lo)}")
    if steps == 1:
        return (lo,)
    with np.errstate(all="ignore"):
        if scale == "linear":
            values = np.linspace(lo, hi, steps)
        else:
            values = np.logspace(math.log10(lo), math.log10(hi), steps)
    if not np.isfinite(values).all():
        if scale == "linear":  # the step, (max - min) / (steps - 1), overflows
            raise ValueError(f"max {_shown(hi)} - min {_shown(lo)} overflows to inf on a linear axis")
        end, value = ("min", lo) if not math.isfinite(values[0]) else ("max", hi)
        raise ValueError(f"{end} {_shown(value)} overflows to inf on a log axis")
    values[0], values[-1] = lo, hi  # logspace's ends may miss them by an ulp
    return tuple(values.tolist())


def _format_value(key: str, value: object) -> str:
    if value is None:
        return _SENTINELS[key]
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dump_defaults() -> str:
    """Render the built-in defaults as a parseable config file."""
    values = RunConfig().effective_parameters()
    lines = ["# indoorqkd run configuration (defaults)", ""]
    for section, keys in _SECTION_KEYS.items():
        lines += [f"[{section}]", *(f"{key} = {_format_value(key, values[key])}" for key in keys), ""]
    return "\n".join(lines)


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def load_config(path: str | Path | None) -> tuple[RunConfig, list[str]]:
    """Parse a config file into a RunConfig plus parse-stage diagnostics.

    Missing file sections fall back to defaults.  ``path=None`` returns the
    defaults untouched.  Diagnostics are strings; an empty list means clean.
    """
    config = RunConfig()
    diagnostics: list[str] = []
    if path is None:
        return config, diagnostics

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff"), source=str(path))  # as utf-8-sig, offsets in the file
    except OSError as exc:  # missing, a directory, no read permission
        return config, [f"config file unreadable: {path}: {exc.strerror}"]
    except UnicodeDecodeError as exc:
        return config, [f"config file is not UTF-8 text: {path}: {exc.reason} at byte {exc.start}"]
    except configparser.Error as exc:
        return config, [f"config parse error: {exc}"]

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            diagnostics.append(f"[{section}]: unknown section")
            continue
        known = _SECTION_KEYS[section]
        for key, raw in parser.items(section):
            if key not in known:
                diagnostics.append(f"[{section}] {key}: unknown key")
                continue
            try:
                _apply_key(config, key, raw.strip())
            except ValueError as exc:
                diagnostics.append(f"[{section}] {key}: {exc}")
    return config, diagnostics


def _apply_key(config: RunConfig, key: str, raw: str) -> None:
    if key in _SENTINELS and raw.lower() == _SENTINELS[key]:
        config.overrides[key] = None
        return
    kind = _RUN_KEY_TYPES.get(key, "float")  # every NOMINAL key is a float
    if kind != "float":
        setattr(config, key, {"int": int, "bool": _parse_bool, "str": str}[kind](raw))
        return
    value = float(raw) + 0.0  # "-0" is 0.0, which prints without a sign
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    if key in NOMINAL:
        config.overrides[key] = value
    else:
        setattr(config, key, value)


def validate(config: RunConfig) -> list[str]:
    """Non-mutating sanity check; returns one diagnostic per problem."""
    return _resolve(config)[1]


def _resolve(
    config: RunConfig,
) -> tuple[tuple[Scenario, tuple[float, ...], tuple[float, ...], RoomScenario] | None, list[str]]:
    """Scenario, both sweep axes and room at ``fov_max_deg`` of a run, or None plus every diagnostic.

    Each field's own rule runs first, and all of them are reported; the range
    rules live in the setup dataclasses.  No axis or grid over ``GRID_BUDGET``
    points is built.  The run is then built at both corners of its grid, the
    second at ``fov_max_deg`` (whose checked room a lit lamp run's convergence
    report reuses) and at a spectrum's level, read at the checked wavelength.
    When that fails, each override is built on the nominal table beside those
    before it in the table (room sizes first) that passed, so that its diagnostic
    names it; a failure no override explains is reported as it is (a FOV past 90
    degrees at ``fov_max_deg``, or a wavelength out of a spectrum's band, say).
    """
    out: list[str] = []

    def checked(label: str, rule, *args, **kwargs):  # the rule's value, or None and its diagnostic under the label
        try:
            return rule(*args, **kwargs)
        except ValueError as exc:
            out.append(f"{label}: {exc}")
            return None

    curve = None
    checked(f"scenario = {_shown(config.scenario)}", Scenario.named, config.scenario)
    resolution = config.resolution_patches_per_meter
    checked(f"resolution_patches_per_meter = {_shown(resolution)}", _count, "resolution_patches_per_meter", resolution, most=MAX_RESOLUTION)
    fov_values = checked("fov axis", _axis, config.fov_min_deg, config.fov_max_deg, config.fov_steps, config.fov_scale) or ()
    spectrum = config.lamp_spectrum_file
    if not isinstance(spectrum, str):  # open() would take an int as a file descriptor
        out.append(f"lamp_spectrum_file = {_shown(spectrum)}: must be a file path, as text")
        spectrum = ""
    # checked even when a spectrum pins the source level
    source_values = checked("source axis", _axis, config.source_min, config.source_max, config.source_steps, config.source_scale) or ()
    # checked in every run, though only an irradiance file in a lamp run reads it
    checked(f"lamp_spectrum_distance_m = {_shown(config.lamp_spectrum_distance_m)}", _check_distance, config.lamp_spectrum_distance_m)
    if config.lamp_spectrum_kind not in KINDS:
        out.append(f"lamp_spectrum_kind = {_shown(config.lamp_spectrum_kind)}: must be one of {', '.join(KINDS)}")
    elif spectrum and config.scenario in AMBIENT_SCENARIOS and config.lamp_spectrum_kind != "irradiance":
        out.append(f"lamp_spectrum_kind = {_shown(config.lamp_spectrum_kind)}: ambient scenarios take an 'irradiance' spectrum, not a source PSD")
    elif spectrum and config.scenario in SCENARIOS:
        try:
            curve = load_spectrum_csv(spectrum, config.lamp_spectrum_kind)
        except (SpectrumFormatError, OSError) as exc:
            out.append(f"lamp_spectrum_file: {exc}")
    if not spectrum and len(fov_values) * len(source_values) > GRID_BUDGET:  # a spectrum's one level cannot overflow it
        grid = f"{len(fov_values)} x {len(source_values)}"
        out.append(f"fov_steps x source_steps = {grid}: more than the grid budget of {GRID_BUDGET:,} points")
    if not isinstance(config.output_dir, (str, os.PathLike)):
        out.append(f"output_dir = {_shown(config.output_dir)}: must be a directory path")
    if not isinstance(config.strict, (bool, np.bool_)):
        out.append(f"strict = {_shown(config.strict)}: must be True or False")

    whole_run: list[str] = []
    if not out:
        try:
            scenario = Scenario.named(config.scenario, config.overrides)
            setup = build_setup(scenario, fov_values[0], source_values[0])
            if curve is not None:  # every field rule has passed: the level at the wavelength the setup checked
                if curve.kind == "irradiance" and config.scenario not in AMBIENT_SCENARIOS:
                    try:  # at a checked distance, 4 pi d^2 E may still over- or underflow
                        curve = irradiance_to_psd(curve, config.lamp_spectrum_distance_m)
                    except ValueError as exc:
                        raise ValueError(f"lamp_spectrum_distance_m = {_shown(config.lamp_spectrum_distance_m)}: {exc}") from None
                source_values = (density_at(curve, setup.detector.wavelength_nm),)
            # fov_max_deg ends the boundary search, and the FOV axis unless it has one step.
            room = build_setup(scenario, config.fov_max_deg, source_values[-1]).room
            return (scenario, fov_values, source_values, room), []
        except ValueError as exc:  # a wavelength out of the band the spectrum file samples names the file
            whole_run.append(f"lamp_spectrum_file: {exc}" if isinstance(exc, OutOfBandError) else str(exc))

    passed: dict[str, float | None] = {}
    for key in sorted(config.overrides, key=[*NOMINAL, *config.overrides].index):  # a key not in the table last
        value = config.overrides[key]
        try:  # on any one scenario: each key's rule applies in all of them
            build_setup(Scenario.named("lamp-center", {**passed, key: value}), 10.0, 0.0)
            passed[key] = value
        except ValueError as exc:
            out.append(f"{key} = {_shown(value)}: {exc}")
    return None, out or whole_run


def _e9(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.9e' % v`` of each value, byte for byte, and its length in bytes.  The text is
    NUL-padded to ``_E9_BYTES`` and held as three planes of little-endian 8-byte words,
    shape (3, n): plane k holds bytes 8k to 8k + 7 of every text.

    A value in [1e-290, 1e290] is scaled by a power of ten to ten digits before
    the point and rounded; the scaling errs by under 4e-16 of the scaled value,
    so a fraction farther than 4e-15 of it from one half rounds as the exact
    binary value does, and only then is the fast result kept (the guard-band
    test of Loitsch's Grisu3, PLDI 2010).  Its text takes 15 bytes, 16 with an
    exponent of three digits.  Every other value (negative, -0.0, inf, nan,
    outside that range, or too near a tie) goes through ``'%.9e'``.
    """
    v = np.ravel(np.asarray(values, dtype=np.float64))
    with np.errstate(all="ignore"):
        fast = (v >= 1e-290) & (v <= 1e290)
        s = np.where(fast, v, 1.0)
        e = np.floor(np.log10(s)).astype(np.intp)
        e -= s * _POW10[309 - e] < 1e9  # log10 rounds a value just under a power of ten up to it
        s *= _POW10[309 - e]  # 10**(9 - e): ten digits before the point
        r = np.floor(s)
        s -= r
        fast &= (np.abs(s - 0.5) > 4e-15 * r) & (r >= 1e9) & (r <= 1e10)  # 1e10: such a value, scaled a decade lower
        r += s > 0.5
    del s
    carry = r >= 1e10  # 9.9999999995 rounds to 1.000000000e+01, as does anything from 1e10 to 1e10 + 1
    r[carry] = 1e9
    e += carry
    # +0.0 takes every digit 0 and the exponent 0 (from 1.0); so do the slow values, till '%.9e' replaces them
    r *= fast
    fast |= v.view(np.uint64) == 0
    # "D.DDDDDD" and "DDDe+XX" or "DDDe-XXX".  Digits by true division of
    # integers below 2**53: a quotient just under an integer stays under it,
    # so each floor is exact.
    words = np.zeros((_E9_BYTES // 8, v.size), "<u8")
    digits = np.floor(r / 1e9)
    r -= digits * 1e9
    words[0] = digits.astype(np.uint64) + (48 + 46 * 256)
    for scale, shift in ((1e6, 16), (1e3, 40)):
        digits = np.floor(r / scale)
        r -= digits * scale
        words[0] |= _DIGITS3_WORD[digits.astype(np.intp)] << shift
    words[1] = _DIGITS3_WORD[r.astype(np.intp)] | _EXPONENT_WORD[e + 300] << 24
    widths = _E9_WIDTH[e + 300]
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [b"%.9e" % x for x in v[slow].tolist()]
        words[:, slow] = np.frombuffer(b"".join(c.ljust(_E9_BYTES, b"\0") for c in cells), "<u8").reshape(-1, 3).T
        widths[slow] = [len(c) for c in cells]
    return words, widths


def _csv_lines(grid: OperatingPoint, fov_values: tuple[float, ...], source_values: tuple[float, ...]) -> Iterator[bytes]:
    """The ``sweep.csv`` data rows of a ``sweep`` map over these axes, FOV-major,
    as bytes, at most ``_CSV_BLOCK`` cells at a time.

    Each column (the two axes, then ``_CSV_COLUMNS``) keeps its own shape:
    (n_fov, 1) for the FOVs and gains, (1, n_src) for the levels and for a column
    whose bits repeat in every FOV row (``n_b1``, say), else the whole map.  A
    block slices every column and formats the slices in one ``_e9`` call, so each
    column is formatted at its own shape, once per block.  Their texts fill a
    matrix of 8-byte words, one row per cell, one whole word plane at a time, in
    the slots set out above ``_E9_BYTES``; dropping the NULs leaves the rows.
    """
    shape = (len(fov_values), len(source_values))
    *fields, flags = (attrgetter(field)(grid) for _, field in _CSV_COLUMNS)
    columns = [np.atleast_2d(c) for c in (np.array(fov_values)[:, None], source_values, *fields)]
    columns = [c[:1] if len(c) > 1 and bool((c.view(np.uint64) == c[:1].view(np.uint64)).all()) else c for c in columns]
    secure = np.broadcast_to(flags, shape)
    fov_rows = max(1, _CSV_BLOCK // shape[1])  # whole FOV rows in a block, or one row split into blocks of levels
    span = min(shape[1], _CSV_BLOCK)  # levels in a block
    for i, j in itertools.product(range(0, shape[0], fov_rows), range(0, shape[1], span)):
        rows, part = slice(i, i + fov_rows), slice(j, j + span)
        pieces = [c[rows if len(c) > 1 else slice(None), part if c.shape[1] > 1 else slice(None)] for c in columns]
        words, widths = _e9(np.concatenate(pieces, axis=None))
        starts = [0, *itertools.accumulate(piece.size for piece in pieces)]
        longs = [w > 15 for w in np.maximum.reduceat(widths, starts[:-1]).tolist()]  # compared in Python: see _E9_WIDTH
        slots = [0, *itertools.accumulate(2 + long for long in longs)]  # each column's first word plane
        out = np.empty((slots[-1] + 1, *secure[rows, part].shape), "<u8")
        for piece, start, long, slot in zip(pieces, starts, longs, slots):
            out[slot : slot + 2 + long] = words[: 2 + long, start : start + piece.size].reshape(2 + long, *piece.shape)
            out[slot + 1 + long] |= _COMMA_TOP
        out[-1] = _FLAG_WORD[secure[rows, part].view(np.uint8)]
        rows_text = out.transpose(1, 2, 0).tobytes().replace(b"\0", b"")
        del words, out  # before the next block's are made
        yield rows_text


def run(config: RunConfig) -> int:
    """Execute one configured sweep; write sweep.csv, then summary.txt from the results."""
    resolved, problems = _resolve(config)
    if resolved is None:
        for line in problems:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    scenario, fov_values, source_values, room = resolved

    def unusable(what: str, exc: OSError) -> int:
        print(f"config error: output_dir = {config.output_dir}: cannot {what} there ({exc.strerror})", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    out_dir = Path(config.output_dir)
    fresh = not out_dir.is_dir()  # a directory this run makes holds no output yet, and takes new files
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file there or on the way, no permission
        return unusable("create a directory", exc)
    new = [path for path in (out_dir / "sweep.csv", out_dir / "summary.txt") if not fresh and not path.exists()]
    for name in () if fresh else ("sweep.csv", "summary.txt"):  # before the sweep: a run that cannot write its outputs computes nothing
        try:
            (out_dir / name).open("ab").close()  # adds no byte to an earlier run's file
        except OSError as exc:  # a directory of that name, no permission
            for path in new:
                path.unlink(missing_ok=True)
            return unusable(f"write {name}", exc)

    grid = sweep(
        scenario, fov_values, source_values,
        order=config.resolution_patches_per_meter,
    )

    ambient_run = config.scenario in AMBIENT_SCENARIOS
    source_column = "pn_w_per_nm_m2" if ambient_run else "psd_w_per_nm"
    try:
        with (out_dir / "sweep.csv").open("wb") as csv:
            csv.write((",".join(("fov_deg", source_column, *(name for name, _ in _CSV_COLUMNS))) + "\n").encode("ascii"))
            csv.writelines(_csv_lines(grid, fov_values, source_values))
    except OSError as exc:  # a directory of that name, no permission, a full disk
        return unusable("write sweep.csv", exc)

    report = None  # of the bounce quadrature, in a run with reflected light
    if ambient_run:
        found = ambient_tolerance(scenario, fov_floor_deg=config.fov_min_deg, known=(source_values, grid.report.secure[0]))
    else:
        if max(source_values) > 0.0:  # on the room _resolve checked at fov_max_deg, where the boundary search's ladder ends
            report = reflected_gain_convergence(room, config.resolution_patches_per_meter)
        mid = len(source_values) // 2
        found = secure_fov_boundary(
            scenario, source_values[mid],
            order=config.resolution_patches_per_meter,
            fov_max_deg=config.fov_max_deg,
            known=(fov_values, grid.report.secure[:, mid]),
        )

    summary = _summarize(config, ambient_run, grid.report.secure, fov_values, source_values, found, report)
    try:
        (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    except OSError as exc:  # as for sweep.csv
        return unusable("write summary.txt", exc)
    print(summary, end="")

    if config.strict and report is not None and not report.converged:
        print("bounce quadrature not converged; exit 3 under --strict", file=sys.stderr)
        return EXIT_STRICT_CONVERGENCE
    return EXIT_OK


def _summarize(
    config: RunConfig, ambient_run: bool, secure: np.ndarray, fov_values: tuple[float, ...],
    source_values: tuple[float, ...], found: float | None, report: ConvergenceReport | None,
) -> str:
    """The summary of a run whose map has the ``secure`` flags [fov, source], whose search
    ``found`` the ambient tolerance or the boundary at the middle level (None: none secure),
    and whose bounce quadrature gave ``report`` (None: no reflected light)."""
    unit = "W/nm/m^2" if ambient_run else "W/nm"
    lines = [
        f"scenario: {config.scenario}",
        f"grid: {len(fov_values)} FOV values x {len(source_values)} source values",
        f"resolution: bounce quadrature of order {config.resolution_patches_per_meter} (resolution_patches_per_meter)",
        f"secure points: {np.count_nonzero(secure)} of {secure.size}",
    ]
    lines.append("largest secure FOV per source level (grid resolution):")
    # Every level's largest secure FOV at once; -inf where no FOV is secure.
    fovs = np.broadcast_to(np.array(fov_values)[:, None], secure.shape)
    frontiers = np.max(fovs, axis=0, initial=-np.inf, where=secure).tolist()
    for level, frontier in zip(source_values, frontiers):
        lines.append(f"  {level:.9e} {unit}: " + (f"{frontier:.1f} deg" if frontier > -math.inf else "none"))

    if ambient_run:
        text = "none secure" if found is None else f"{found:.9e} {unit}"
        lines.append(f"ambient tolerance (largest secure level): {text}")
    else:
        text = "none secure" if found is None else f"{found:.1f} deg"
        lines.append(f"refined secure-FOV boundary at {source_values[len(source_values) // 2]:.9e} {unit}: {text}")
    if report is None:
        lines.append("convergence: no reflected-light integral in this run")
    else:
        arcs, nodes = report.theta_rule
        moved = [name for name, change in (("psi order", report.rel_change), ("theta nodes", report.theta_rel_change)) if not change <= CONVERGENCE_RTOL]
        lines.append(
            f"convergence: reflected integral {report.value:.9e} at order {report.order} "
            f"and theta rule {arcs} arcs x {nodes} nodes; {report.refined_value:.9e} at order "
            f"{2 * report.order} (relative change {report.rel_change:.3e}); "
            f"{report.theta_refined_value:.9e} at {2 * nodes} theta nodes per arc "
            f"(relative change {report.theta_rel_change:.3e}); "
            + ("converged" if report.converged else "NOT converged" + (f" in the {' and '.join(moved)}" if moved else ""))
        )
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept for the process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="indoorqkd", description="Indoor wireless QKD feasibility sweeps: secure-region maps from one config file.")
    parser.add_argument("config", nargs="?", default=None, help="INI config file (defaults if omitted)")
    parser.add_argument("--scenario", choices=SCENARIOS, help="override the configured scenario")
    parser.add_argument("--resolution", type=int, metavar="N", help="bounce-quadrature rule order (resolution_patches_per_meter)")
    parser.add_argument("--strict", action="store_true", help="exit 3 when the bounce quadrature is not converged")
    parser.add_argument("--dump-defaults", action="store_true", help="print the default config and exit")
    parser.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.dump_defaults:
        sys.stdout.write(dump_defaults())
        return EXIT_OK

    config, diagnostics = load_config(args.config)
    if diagnostics:
        for line in diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.scenario:
        config.scenario = args.scenario
    if args.resolution is not None:
        config.resolution_patches_per_meter = args.resolution
    if args.strict:
        config.strict = True
    if args.out:
        config.output_dir = args.out
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
