"""Batch front-end: INI config in, ``sweep.csv`` and ``summary.txt`` out.

The config is a flat key = value file grouped into sections named after the
library modules.  ``indoorqkd --dump-defaults`` prints the nominal
configuration; edit and pass it back.  Exit codes: 0 success, 2 config
error, 3 when --strict escalates a bounce-quadrature convergence warning.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .channel import reflected_gain_convergence
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
from .spectra import KINDS, density_at, irradiance_to_psd, load_spectrum_csv

__all__ = ["RunConfig", "load_config", "validate", "dump_defaults", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_STRICT_CONVERGENCE = 3

# Largest resolution_patches_per_meter, the bounce quadrature's rule order.
# The convergence check doubles it, and the rule's nodes come from a dense
# eigensolve: a default lamp run took 1.7 s and 75 MB peak RSS at 500, and
# 5.3 s and 193 MB at 1,000, on a 2-core x86 VM.
MAX_RESOLUTION = 500
# Most (FOV, source) points a run may sweep, and so the longest axis.  Peak
# RSS is about 200 B a point on a square map and 300 B on one row; under a
# 1 GiB address-space cap 2.5e6 points run (0.49, 0.76 GB) and 3e6 on a row
# fail.  The sweep.csv writer adds nothing that grows with the map.
GRID_BUDGET = 2_500_000

_CSV_COLUMNS = (
    "h_dc", "eta", "n_b1", "n_b2", "n_n",
    "y1", "q1", "e1", "q_mu", "e_mu",
    "rate_bits_per_pulse", "secure_flag",
)

# sweep.csv cells as bytes.  '%.9e' text takes at most 17 (a sign, ten
# digits, the point and e-XXX); a cell is built in three little-endian
# 8-byte words, NUL-padded.
_E9_BYTES = 24
_POW10 = 10.0 ** np.arange(-300, 301)  # 10**k at k + 300, each within an ulp
_DIGITS3 = 48 + np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10  # "000" .. "999"
_EXPONENTS = np.zeros((601, 8), np.uint8)  # e+XX or e-XXX of the exponents -300 .. 300 at exponent + 300
_EXPONENTS[:, 0] = ord("e")
_EXPONENTS[:, 1] = ord("+")
_EXPONENTS[:300, 1] = ord("-")
_EXPONENTS[:, 2:5] = _DIGITS3[np.abs(np.arange(-300, 301))]
_EXPONENTS[201:400, 2:4] = _EXPONENTS[201:400, 3:5]  # two digits below 100
_EXPONENTS[201:400, 4] = 0
# The same tables as the integers whose little-endian bytes they are.
_DIGITS3_WORD = (_DIGITS3[:, 0] | _DIGITS3[:, 1] << 8 | _DIGITS3[:, 2] << 16).astype(np.uint64)
_EXPONENT_WORD = _EXPONENTS.view("<u8").ravel().astype(np.uint64)
_ZERO = np.frombuffer(b"0.000000000e+00".ljust(_E9_BYTES, b"\0"), np.uint8)
_FLAGS = np.frombuffer(b"false" b"true\0", np.uint8).reshape(2, 5)


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
    """Everything a batch run needs, resolved from defaults plus one file."""

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
    resolution_patches_per_meter: int = 10
    strict: bool = False

    def effective_parameters(self) -> dict[str, object]:
        """Flat view of everything that influences the run, for comparisons."""
        merged: dict[str, object] = dict(NOMINAL)
        merged.update(self.overrides)
        for name in _RUN_KEY_TYPES:
            merged[name] = getattr(self, name)
        return merged

    def fov_values(self) -> tuple[float, ...]:
        return _axis(self.fov_min_deg, self.fov_max_deg, self.fov_steps, self.fov_scale)

    def source_values(self) -> tuple[float, ...]:
        if self.lamp_spectrum_file:
            return (self._spectrum_level(),)
        return _axis(self.source_min, self.source_max, self.source_steps, self.source_scale)

    def _spectrum_level(self) -> float:
        curve = load_spectrum_csv(self.lamp_spectrum_file, self.lamp_spectrum_kind)
        wavelength = float(Scenario.named(self.scenario, self.overrides).params()["wavelength_nm"])
        if curve.kind == "irradiance" and self.scenario not in AMBIENT_SCENARIOS:
            curve = irradiance_to_psd(curve, self.lamp_spectrum_distance_m)
        return density_at(curve, wavelength)


# The run keys (every RunConfig field but the overrides) and their types,
# as annotation strings: this module has postponed evaluation of annotations.
_RUN_KEY_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "overrides"}


def _axis(lo: float, hi: float, steps: int, scale: str) -> tuple[float, ...]:
    if steps < 1:
        raise ValueError(f"steps = {steps}: must be >= 1")
    if steps > GRID_BUDGET:  # before an array of that length exists
        raise ValueError(f"steps = {steps}: more than the grid budget of {GRID_BUDGET:,} points")
    if scale not in ("linear", "log"):
        raise ValueError(f"scale = {scale!r}: must be 'linear' or 'log'")
    if lo > hi:
        raise ValueError(f"min {lo!r} exceeds max {hi!r}")
    if scale == "log" and lo <= 0.0:
        raise ValueError(f"log scale needs a positive minimum, got {lo!r}")
    if steps == 1:
        return (lo,)
    with np.errstate(all="ignore"):
        if scale == "linear":
            values = np.linspace(lo, hi, steps)
        else:
            values = np.logspace(math.log10(lo), math.log10(hi), steps)
    if not np.isfinite(values).all():
        if scale == "linear":  # the step, (max - min) / (steps - 1), overflows
            raise ValueError(f"max {hi!r} - min {lo!r} overflows to inf on a linear axis")
        end, value = ("min", lo) if not math.isfinite(values[0]) else ("max", hi)
        raise ValueError(f"{end} {value!r} overflows to inf on a log axis")
    return tuple(values.tolist())


def _format_value(key: str, value: object) -> str:
    if value is None:
        return _SENTINELS[key]
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_defaults() -> str:
    """Render the built-in defaults as a parseable config file."""
    config = RunConfig()
    lines = ["# indoorqkd run configuration (defaults)", ""]
    for section, keys in _SECTION_KEYS.items():
        lines.append(f"[{section}]")
        for key in keys:
            if key in NOMINAL:
                value = _format_value(key, NOMINAL[key])
            else:
                value = _format_value(key, getattr(config, key))
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


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
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
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
    value = float(raw)
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
) -> tuple[tuple[Scenario, tuple[float, ...], tuple[float, ...]] | None, list[str]]:
    """Scenario and both sweep axes of a run, or None plus every diagnostic.

    The range rules live in the setup dataclasses.  No axis or grid over
    ``GRID_BUDGET`` points is built, and the run is built at both corners of
    its grid.  When that fails, each overridden key is built alone on the
    nominal table so that its diagnostic names it; a failure no single key
    explains is reported as it is (a lamp outside a shrunk room, say).
    """
    out: list[str] = []
    fov_values = source_values = ()
    try:
        Scenario.named(config.scenario)
    except ValueError as exc:
        out.append(f"scenario = {config.scenario!r}: {exc}")
    resolution = config.resolution_patches_per_meter
    if not 1 <= resolution <= MAX_RESOLUTION:
        out.append(f"resolution_patches_per_meter = {resolution}: must be a positive integer no larger than {MAX_RESOLUTION:,}")
    try:
        fov_values = config.fov_values()
    except ValueError as exc:
        out.append(f"fov axis: {exc}")
    spectrum = config.lamp_spectrum_file
    if spectrum and config.lamp_spectrum_kind not in KINDS:
        out.append(f"lamp_spectrum_kind = {config.lamp_spectrum_kind!r}: must be one of {', '.join(KINDS)}")
    elif spectrum and not Path(spectrum).exists():
        out.append(f"lamp_spectrum_file = {spectrum!r}: file not found")
    elif spectrum and config.scenario in AMBIENT_SCENARIOS and config.lamp_spectrum_kind != "irradiance":
        out.append("ambient scenarios take an 'irradiance' spectrum, not a source PSD")
    elif not spectrum or config.scenario in SCENARIOS:  # a spectrum is read at the scenario's wavelength
        try:
            source_values = config.source_values()
        except (ValueError, OSError) as exc:
            out.append(f"{'lamp_spectrum_file' if spectrum else 'source axis'}: {exc}")
    if len(fov_values) * len(source_values) > GRID_BUDGET:
        grid = f"{len(fov_values)} x {len(source_values)}"
        out.append(f"fov_steps x source_steps = {grid}: more than the grid budget of {GRID_BUDGET:,} points")

    whole_run: list[str] = []
    if not out:
        try:
            scenario = Scenario.named(config.scenario, config.overrides)
            # The boundary search goes up to fov_max_deg.
            widest = max(fov_values[-1], config.fov_max_deg)
            for fov, level in ((fov_values[0], source_values[0]), (widest, source_values[-1])):
                build_setup(scenario, fov, level)
            return (scenario, fov_values, source_values), []
        except ValueError as exc:
            whole_run.append(str(exc))

    for key, value in config.overrides.items():
        try:  # a lamp scenario, so that the ambient key is checked too
            build_setup(Scenario.named("lamp-center", {key: value}), 10.0, 0.0)
        except ValueError as exc:
            out.append(f"{key} = {value!r}: {exc}")
    return None, out or whole_run


def _e9(values: np.ndarray) -> np.ndarray:
    """``'%.9e' % v`` of each value, byte for byte, as rows of ``_E9_BYTES`` NUL-padded ASCII bytes.

    A value in [1e-290, 1e290] is scaled by a power of ten to ten digits before
    the point and rounded; the scaling errs by under 4e-16 of the scaled value,
    so a fraction farther than 4e-15 of it from one half rounds as the exact
    binary value does, and only then is the fast result kept (the guard-band
    test of Loitsch's Grisu3, PLDI 2010).  Every other value (negative, -0.0,
    inf, nan, outside that range, or too near a tie) goes through ``'%.9e'``
    one at a time.
    """
    v = np.ravel(np.asarray(values, dtype=np.float64))
    with np.errstate(all="ignore"):
        fast = (v >= 1e-290) & (v <= 1e290)
        s = np.where(fast, v, 1.0)
        e = np.floor(np.log10(s)).astype(np.intp)
        s *= _POW10[9 - e + 300]  # ten digits before the point
        r = np.floor(s)
        s -= r
        fast &= (np.abs(s - 0.5) > 4e-15 * r) & (r >= 1e9) & (r < 1e10)
        r += s > 0.5  # within [1e8, 1e11] when not fast, so every index below stays valid
    del s
    carry = r == 1e10  # 9.9999999995 rounds to 1.000000000e+01
    r[carry] = 1e9
    e += carry
    # "D.DDDDDD" and "DDDe+XX" or "DDDe-XXX".  Digits by true division of
    # integers below 2**53: a quotient just under an integer stays under it,
    # so each floor is exact.
    words = np.zeros((v.size, _E9_BYTES // 8), np.uint64)
    digits = np.floor(r / 1e9)
    r -= digits * 1e9
    words[:, 0] = digits.astype(np.uint64) + (48 + 46 * 256)
    for scale, shift in ((1e6, 16), (1e3, 40)):
        digits = np.floor(r / scale)
        r -= digits * scale
        words[:, 0] |= _DIGITS3_WORD[digits.astype(np.intp)] << shift
    words[:, 1] = _DIGITS3_WORD[r.astype(np.intp)] | _EXPONENT_WORD[e + 300] << 24
    text = words.astype("<u8", copy=False).view(np.uint8)
    zero = (v == 0.0) & ~np.signbit(v)
    text[zero] = _ZERO
    for i in np.flatnonzero(~(fast | zero)).tolist():
        cell = ("%.9e" % v[i]).encode("ascii")
        text[i] = 0
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return text


def _csv_lines(
    grid: OperatingPoint, fov_values: tuple[float, ...], source_values: tuple[float, ...], block: int = 1024
) -> Iterator[bytes]:
    """The ``sweep.csv`` data rows of a ``sweep`` map over these axes, FOV-major,
    as bytes, at most ``block`` cells at a time.

    Each cell is ``'%.9e'`` text (``_e9``), and each value is formatted once:
    the FOV and gains with their FOV rows, the levels and the columns that
    repeat in every FOV row (``n_b1``, say) once per map (once per block of
    levels when one FOV row spans several blocks), the other columns of a
    block in one stacked call.  A block is a byte matrix, one row per cell and
    one slot per column as wide as the column's longest text there; dropping
    the NULs that pad the shorter texts leaves the rows.
    """
    r, b, gains = grid.report, grid.budget, grid.gains
    shape = (len(fov_values), len(source_values))
    columns = [np.broadcast_to(c, shape) for c in (b.ambient, b.lamp_bounce, b.total, r.y1, r.q1, r.e1, r.q_mu, r.e_mu, r.rate)]
    # Same bits in every row, same text in every row.
    repeats = [shape[0] > 1 and bool((c.view(np.uint64) == c[:1].view(np.uint64)).all()) for c in columns]
    fixed = [c[0] for c, same in zip(columns, repeats) if same]
    varying = [c for c, same in zip(columns, repeats) if not same]
    h_dc, eta = gains.line_of_sight.ravel(), gains.transmittance.ravel()
    secure = np.broadcast_to(r.secure, shape)

    def level_text(lo: int, hi: int) -> np.ndarray:
        text = _e9(np.concatenate([source_values[lo:hi], *(c[lo:hi] for c in fixed)]))
        return text.reshape(1 + len(fixed), 1, hi - lo, _E9_BYTES)

    fov_rows = max(1, block // shape[1])  # whole FOV rows in a block, or one row split into blocks of levels
    span = min(shape[1], block)  # levels in a block
    whole_axis = level_text(0, shape[1]) if span == shape[1] else None
    for i in range(0, shape[0], fov_rows):
        rows = slice(i, min(i + fov_rows, shape[0]))
        n_rows = rows.stop - i
        for j in range(0, shape[1], span):
            part = slice(j, min(j + span, shape[1]))
            n_levels = part.stop - j
            by_level = level_text(j, part.stop) if whole_axis is None else whole_axis
            text = _e9(np.concatenate([fov_values[rows], h_dc[rows], eta[rows], *(c[rows, part].ravel() for c in varying)]))
            by_fov = text[: 3 * n_rows].reshape(3, n_rows, 1, _E9_BYTES)
            by_cell = text[3 * n_rows :].reshape(len(varying), n_rows, n_levels, _E9_BYTES)
            # 15 bytes hold most texts; a slot widens to 16 or 17 where one of its texts does
            fov_w, level_w, cell_w = (15 + t[..., 15:17].any(axis=(1, 2)).sum(axis=1) for t in (by_fov, by_level, by_cell))
            fixed_text, varying_text = zip(by_level[1:], level_w[1:]), zip(by_cell, cell_w)
            fields = [(by_fov[0], fov_w[0]), (by_level[0], level_w[0]), (by_fov[1], fov_w[1]), (by_fov[2], fov_w[2])]
            fields += [next(fixed_text) if same else next(varying_text) for same in repeats]
            ends = np.cumsum([w + 1 for _, w in fields]).tolist()
            out = np.empty((n_rows, n_levels, ends[-1] + 6), np.uint8)
            for (f, w), end in zip(fields, ends):
                out[..., end - w - 1 : end - 1] = f[..., :w]
                out[..., end - 1] = ord(",")
            out[..., -6:-1] = _FLAGS[secure[rows, part].view(np.uint8)]
            out[..., -1] = ord("\n")
            rows_text = out.tobytes().replace(b"\0", b"")
            del text, out  # before the next block's are made
            yield rows_text


def run(config: RunConfig) -> int:
    """Execute one configured sweep; write sweep.csv and summary.txt."""
    resolved, problems = _resolve(config)
    if resolved is None:
        for line in problems:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    scenario, fov_values, source_values = resolved

    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file there or on the way, no permission
        print(f"config error: output_dir = {config.output_dir}: cannot create a directory there ({exc.strerror})", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    grid = sweep(
        scenario, fov_values, source_values,
        patches_per_meter=config.resolution_patches_per_meter,
    )

    ambient_run = config.scenario in AMBIENT_SCENARIOS
    source_column = "pn_w_per_nm_m2" if ambient_run else "psd_w_per_nm"
    with (out_dir / "sweep.csv").open("wb") as csv:
        csv.write((",".join(("fov_deg", source_column) + _CSV_COLUMNS) + "\n").encode("ascii"))
        csv.writelines(_csv_lines(grid, fov_values, source_values))

    reflects = config.scenario not in AMBIENT_SCENARIOS and max(source_values) > 0.0
    convergence_note, strict_trip = _convergence_check(config, scenario, max(fov_values), reflects)
    summary = _summarize(config, scenario, grid.report.secure, fov_values, source_values, convergence_note)
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")

    if strict_trip:
        print("convergence warning escalated by --strict", file=sys.stderr)
        return EXIT_STRICT_CONVERGENCE
    return EXIT_OK


def _convergence_check(config: RunConfig, scenario: Scenario, fov_deg: float, reflects: bool) -> tuple[str, bool]:
    """Compare the bounce integral at the run's rule order and at twice it, at the widest
    FOV of a run that ``reflects`` (a lamp scenario, a level above 0).  The sweep already
    computed the first for this room, so only the doubled order is computed here."""
    if not reflects:
        return "convergence: no reflected-light integral in this run\n", False
    room = build_setup(scenario, fov_deg, 0.0).room
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = reflected_gain_convergence(room, config.resolution_patches_per_meter)
    note = (
        f"convergence: reflected integral {report.value:.9e} at order "
        f"{report.patches_per_meter} vs {report.refined_value:.9e} at order {2 * report.patches_per_meter}; "
        f"relative change {report.rel_change:.3e}; "
        f"{'converged' if report.converged else 'NOT converged'}\n"
    )
    return note, bool(caught) and config.strict


def _summarize(
    config: RunConfig, scenario: Scenario, secure: np.ndarray,
    fov_values: tuple[float, ...], source_values: tuple[float, ...], convergence_note: str,
) -> str:
    """The summary of a run whose map has the ``secure`` flags [fov, source]."""
    ambient_run = config.scenario in AMBIENT_SCENARIOS
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
        tolerance = ambient_tolerance(scenario, fov_floor_deg=config.fov_min_deg)
        text = "none secure" if tolerance is None else f"{tolerance:.9e} {unit}"
        lines.append(f"ambient tolerance (largest secure level): {text}")
    else:
        mid = source_values[len(source_values) // 2]
        boundary = secure_fov_boundary(
            scenario, mid,
            patches_per_meter=config.resolution_patches_per_meter,
            fov_max_deg=config.fov_max_deg,
        )
        text = "none secure" if boundary is None else f"{boundary:.1f} deg"
        lines.append(f"refined secure-FOV boundary at {mid:.9e} {unit}: {text}")
    return "\n".join(lines) + "\n" + convergence_note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="indoorqkd",
        description="Indoor wireless QKD feasibility sweeps: secure-region maps from one config file.",
    )
    parser.add_argument("config", nargs="?", default=None, help="INI config file (defaults if omitted)")
    parser.add_argument("--scenario", choices=SCENARIOS, help="override the configured scenario")
    parser.add_argument("--resolution", type=int, metavar="N", help="bounce-quadrature rule order (resolution_patches_per_meter)")
    parser.add_argument("--strict", action="store_true", help="escalate convergence warnings to exit 3")
    parser.add_argument("--dump-defaults", action="store_true", help="print the default config and exit")
    parser.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    args = parser.parse_args(argv)

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
