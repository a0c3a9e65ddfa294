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
# memory grows by 200 B a point on a square map and 330 B on one row; under a
# 1 GiB address-space cap 2.5e6 points run (0.5, 0.8 GB) and 3e6 on a row fail.
GRID_BUDGET = 2_500_000

_CSV_COLUMNS = (
    "h_dc", "eta", "n_b1", "n_b2", "n_n",
    "y1", "q1", "e1", "q_mu", "e_mu",
    "rate_bits_per_pulse", "secure_flag",
)

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
    if scale == "linear":
        return tuple(np.linspace(lo, hi, steps).tolist())
    return tuple(np.logspace(math.log10(lo), math.log10(hi), steps).tolist())


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


def _csv_lines(
    grid: OperatingPoint, fov_values: tuple[float, ...], source_values: tuple[float, ...], block: int = 4096
) -> Iterator[str]:
    """The ``sweep.csv`` data rows of a ``sweep`` map over these axes, FOV-major,
    at most ``block`` lines at a time.

    The FOV and gains are formatted once per row; the levels, and the columns
    that repeat in every FOV row (``n_b1``, say), once per map.
    """
    r, b, gains = grid.report, grid.budget, grid.gains
    columns = np.broadcast_arrays(b.ambient, b.lamp_bounce, b.total, r.y1, r.q1, r.e1, r.q_mu, r.e_mu, r.rate)
    levels = ["%.9e" % level for level in source_values]
    # Same bits in every row, same text in every row.
    repeats = [len(c) > 1 and (c.view(np.uint64) == c[:1].view(np.uint64)).all() for c in columns]
    fixed = [["%.9e" % v for v in c[0].tolist()] if same else None for c, same in zip(columns, repeats)]
    tail = ",".join("%.9e" if f is None else "%s" for f in fixed) + ",%s\n"
    secure = r.secure
    h_dc, eta = gains.line_of_sight.ravel().tolist(), gains.transmittance.ravel().tolist()
    for i, fov in enumerate(fov_values):
        head = "%.9e" % fov
        gain_cells = "%.9e,%.9e" % (h_dc[i], eta[i])
        for lo in range(0, len(levels), block):
            part = slice(lo, lo + block)
            flags = np.where(secure[i, part], "true", "false").tolist()
            cells = zip(*(c[i, part].tolist() if f is None else f[part] for f, c in zip(fixed, columns)), flags)
            yield "".join(f"{head},{level},{gain_cells}," + tail % values for level, values in zip(levels[part], cells))


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
    with (out_dir / "sweep.csv").open("w", encoding="ascii") as csv:
        csv.write(",".join(("fov_deg", source_column) + _CSV_COLUMNS) + "\n")
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
    fovs = np.array(fov_values)
    for j, level in enumerate(source_values):
        secure_fovs = fovs[secure[:, j]]
        frontier = f"{secure_fovs.max():.1f} deg" if secure_fovs.size else "none"
        lines.append(f"  {level:.9e} {unit}: {frontier}")

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
