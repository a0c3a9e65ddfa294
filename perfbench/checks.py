"""Output checks for benchmark ops.

Each check returns a list of problems; an empty list means the op's output
is correct.  The checks read what a user gets (``sweep.csv``,
``summary.txt``, the returned gains) and never the library's internals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCE_COLUMNS = {"lamp": "psd_w_per_nm", "ambient": "pn_w_per_nm_m2"}
RATE_COLUMN = "rate_bits_per_pulse"
FLAG_COLUMN = "secure_flag"
# Bisection widths of secure_fov_boundary (0.1 deg, printed to 0.1 deg) and
# ambient_tolerance (0.01 decades, lower end reported).
BOUNDARY_PRECISION_DEG = 0.1
TOLERANCE_PRECISION_DECADES = 0.01
MC_REL_GAP = 0.02
MC_SIGMAS = 5.0
CLOSED_FORM_RTOL = 1e-3

_BOUNDARY = re.compile(r"refined secure-FOV boundary at (\S+) W/nm: (none secure|(\S+) deg)")
_TOLERANCE = re.compile(r"ambient tolerance \(largest secure level\): (\S+) W/nm/m\^2")
_SECURE_POINTS = re.compile(r"secure points: (\d+) of (\d+)")


@dataclass
class SweepTable:
    """Parsed ``sweep.csv``: rates and flags indexed [fov][source]."""

    fovs: np.ndarray
    levels: np.ndarray
    rates: np.ndarray
    secure: np.ndarray

    @property
    def points(self) -> int:
        return self.rates.size


def parse_sweep(text: str, ambient: bool, fov_steps: int, source_steps: int) -> tuple[SweepTable | None, list[str]]:
    """Parse and shape-check ``sweep.csv``; rows run over sources inside FOVs."""
    lines = text.splitlines()
    if not lines:
        return None, ["sweep.csv is empty"]
    header = lines[0].split(",")
    source_column = SOURCE_COLUMNS["ambient" if ambient else "lamp"]
    problems = []
    if header[:2] != ["fov_deg", source_column]:
        problems.append(f"header starts {header[:2]}, expected ['fov_deg', '{source_column}']")
    if header[-2:] != [RATE_COLUMN, FLAG_COLUMN]:
        problems.append(f"header ends {header[-2:]}, expected ['{RATE_COLUMN}', '{FLAG_COLUMN}']")
    if len(set(header)) != len(header):
        problems.append("header repeats a column name")
    rows = lines[1:]
    if len(rows) != fov_steps * source_steps:
        problems.append(f"{len(rows)} rows, expected {fov_steps} x {source_steps}")
    if problems:
        return None, problems

    values = np.empty((len(rows), len(header) - 1))
    flags = np.empty(len(rows), dtype=bool)
    for number, row in enumerate(rows, start=2):
        cells = row.split(",")
        if len(cells) != len(header):
            return None, [f"row {number}: {len(cells)} cells, expected {len(header)}"]
        try:
            values[number - 2] = [float(c) for c in cells[:-1]]
        except ValueError as exc:
            return None, [f"row {number}: {exc}"]
        if cells[-1] not in ("true", "false"):
            return None, [f"row {number}: secure_flag {cells[-1]!r} is not true/false"]
        flags[number - 2] = cells[-1] == "true"
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values).all(axis=1))) + 2
        return None, [f"row {bad}: non-finite value"]

    shape = (fov_steps, source_steps)
    fov_grid = values[:, 0].reshape(shape)
    level_grid = values[:, 1].reshape(shape)
    if not (np.all(fov_grid == fov_grid[:, :1]) and np.all(level_grid == level_grid[:1, :])):
        return None, ["rows do not form a FOV x source grid"]
    table = SweepTable(
        fovs=fov_grid[:, 0],
        levels=level_grid[0, :],
        rates=values[:, -1].reshape(shape),
        secure=flags.reshape(shape),
    )
    return table, []


def check_table(table: SweepTable) -> list[str]:
    """Secure flags match the rates, and the rate never rises along either axis."""
    problems = []
    mismatch = table.secure != (table.rates > 0.0)
    if mismatch.any():
        problems.append(f"{int(mismatch.sum())} rows with secure_flag != (rate > 0)")
    if np.any(np.diff(table.fovs) <= 0.0) or np.any(np.diff(table.levels) <= 0.0):
        problems.append("grid axes are not increasing")
    rises_fov = np.diff(table.rates, axis=0) > 0.0
    rises_source = np.diff(table.rates, axis=1) > 0.0
    if rises_fov.any():
        problems.append(f"rate rises with FOV at {int(rises_fov.sum())} grid steps")
    if rises_source.any():
        problems.append(f"rate rises with source level at {int(rises_source.sum())} grid steps")
    return problems


def check_boundary(table: SweepTable, summary: str) -> list[str]:
    """The refined boundary agrees with the grid frontier at the middle source level."""
    match = _BOUNDARY.search(summary)
    if match is None:
        return ["summary.txt has no refined secure-FOV boundary line"]
    mid = len(table.levels) // 2
    level = float(match.group(1))
    if not math.isclose(level, table.levels[mid], rel_tol=1e-8):
        return [f"boundary probed at {level:.9e}, grid middle level is {table.levels[mid]:.9e}"]
    column = table.secure[:, mid]
    secure_fovs = table.fovs[column]
    open_fovs = table.fovs[~column]
    if match.group(3) is None:
        return [f"no secure FOV refined, but the grid is secure up to {secure_fovs.max()}"] if column.any() else []
    boundary = float(match.group(3))
    # The printed value is rounded to 0.1 deg and sits on the secure side of
    # a crossing bracketed to BOUNDARY_PRECISION_DEG.
    lo = boundary - 0.05 - 1e-9
    hi = boundary + 0.05 + BOUNDARY_PRECISION_DEG + 1e-9
    problems = []
    if secure_fovs.size and secure_fovs.max() > hi:
        problems.append(f"grid secure at {secure_fovs.max()} deg beyond refined boundary {boundary} deg")
    if open_fovs.size and open_fovs.min() < lo:
        problems.append(f"grid insecure at {open_fovs.min()} deg inside refined boundary {boundary} deg")
    return problems


def check_tolerance(table: SweepTable, summary: str) -> list[str]:
    """The ambient tolerance agrees with the grid frontier.

    With an isotropic background the rate falls with the FOV, so the
    tolerance is set at the smallest FOV: no grid point may be secure above
    it, and the first grid column must be secure up to it.
    """
    match = _TOLERANCE.search(summary)
    if match is None:
        return ["summary.txt has no ambient tolerance line"]
    tolerance = float(match.group(1))
    ceiling = tolerance * 10.0**TOLERANCE_PRECISION_DECADES * (1.0 + 1e-9)
    problems = []
    secure_levels = np.broadcast_to(table.levels, table.secure.shape)[table.secure]
    if secure_levels.size and secure_levels.max() > ceiling:
        problems.append(f"grid secure at {secure_levels.max():.9e} above tolerance {tolerance:.9e}")
    open_first = table.levels[~table.secure[0]]
    if open_first.size and open_first.min() < tolerance * (1.0 - 1e-9):
        problems.append(f"grid insecure at {open_first.min():.9e} below tolerance {tolerance:.9e}")
    return problems


def check_secure_count(table: SweepTable, summary: str) -> list[str]:
    match = _SECURE_POINTS.search(summary)
    if match is None:
        return ["summary.txt has no secure-points line"]
    count, total = int(match.group(1)), int(match.group(2))
    if (count, total) != (int(table.secure.sum()), table.points):
        return [f"summary counts {count} of {total} secure, sweep.csv {int(table.secure.sum())} of {table.points}"]
    return []


def check_map_output(out_dir: Path, ambient: bool, fov_steps: int, source_steps: int) -> tuple[int, list[str]]:
    """All checks of one CLI run; returns (grid points written, problems)."""
    try:
        csv_text = (out_dir / "sweep.csv").read_text(encoding="ascii")
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return 0, [f"cannot read outputs: {exc}"]
    table, problems = parse_sweep(csv_text, ambient, fov_steps, source_steps)
    if table is None:
        return 0, problems
    problems = check_table(table) + check_secure_count(table, summary)
    problems += check_tolerance(table, summary) if ambient else check_boundary(table, summary)
    return table.points, problems


def floor_cone_closed_form(room) -> float:
    """Exact bounce gain when lamp and receiver share the ceiling center and
    the acceptance cone sees only floor (Kahn & Barry, Proc. IEEE 85(2), 1997).

    On the floor at radius r every cosine of the integrand is z / d with
    d^2 = z^2 + r^2, so the patch sum reduces to a one-dimensional integral.
    """
    m1 = -math.log(2.0) / math.log(math.cos(math.radians(room.lamp_semi_angle_deg)))
    fov = math.radians(room.fov_deg)
    z = room.room_z_m
    k = m1 + 5.0
    return (
        room.detector_area_m2 * (m1 + 1.0) * room.floor_reflectivity
        * room.concentrator_index**2 * room.filter_transmission
        * (1.0 - math.cos(fov) ** k) / (math.pi * z * z * k * math.sin(fov) ** 2)
    )


def check_mc(patch: float, mc_value: float, mc_std_error: float, room, floor_only: bool) -> list[str]:
    """Patch sum against the ray estimate, and against the closed form where it exists."""
    if not (math.isfinite(patch) and math.isfinite(mc_value) and patch > 0.0 and mc_value > 0.0):
        return [f"gains must be positive and finite: patch {patch!r}, mc {mc_value!r}"]
    problems = []
    gap = abs(patch - mc_value) / mc_value
    allowed = max(MC_REL_GAP, MC_SIGMAS * mc_std_error / mc_value)
    if gap > allowed:
        problems.append(f"patch sum {patch:.6e} vs Monte Carlo {mc_value:.6e}: gap {gap:.3%} > {allowed:.3%}")
    if floor_only:
        exact = floor_cone_closed_form(room)
        rel = abs(patch - exact) / exact
        if rel > CLOSED_FORM_RTOL:
            problems.append(f"patch sum {patch:.6e} vs closed form {exact:.6e}: {rel:.2e} > {CLOSED_FORM_RTOL:.0e}")
    return problems
