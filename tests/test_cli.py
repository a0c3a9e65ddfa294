"""Config parsing, validation diagnostics, CSV output, and exit codes."""

import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indoorqkd.cli import (
    _RUN_KEY_TYPES,
    _SECTION_KEYS,
    _SENTINELS,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_STRICT_CONVERGENCE,
    MAX_RESOLUTION,
    RunConfig,
    _csv_lines,
    _e9,
    _summarize,
    dump_defaults,
    load_config,
    main,
    run,
    validate,
)
from indoorqkd.experiments import NOMINAL, Scenario
from indoorqkd.spectra import bundled_spectrum_path

# up to the top of the float range, where squares and powers overflow
HUGE_FLOATS = ("1e13", "1e300", "1e308", repr(sys.float_info.max))
SCI_NOTATION = re.compile(r"^-?\d\.\d{9}e[+-]\d{2,3}$")

_TEXT_KEYS = {
    "scenario", "fov_scale", "source_scale", "output_dir",
    "lamp_spectrum_file", "lamp_spectrum_kind", "strict",
}
NUMERIC_KEYS = [
    (section, key)
    for section, keys in _SECTION_KEYS.items()
    for key in keys
    if key not in _TEXT_KEYS
]


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestDefaultsRoundTrip:
    def test_dump_reparses_to_identical_parameters(self, tmp_path):
        path = write_config(tmp_path, dump_defaults())
        config, diagnostics = load_config(path)
        assert diagnostics == []
        assert config.effective_parameters() == RunConfig().effective_parameters()

    def test_defaults_validate_clean(self):
        assert validate(RunConfig()) == []

    def test_missing_file_is_diagnosed(self, tmp_path):
        config, diagnostics = load_config(tmp_path / "absent.ini")
        assert diagnostics == [f"config file unreadable: {tmp_path / 'absent.ini'}: No such file or directory"]


class TestFileFailures:
    """A config file or an output directory that cannot be used ends in exit 2
    and a line naming it, not in a traceback."""

    def test_config_that_is_not_utf8_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[geometry]\nroom_x_m = 4\n# \xff\n")
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: config file is not UTF-8 text: {path}: invalid start byte at byte 26" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_directory_named(self, tmp_path, capsys):
        assert main([str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: config file unreadable: {tmp_path}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["output_dir is a file", "output_dir below a file"])
    def test_output_dir_blocked_by_a_file_named(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out_dir = blocker if where == "output_dir is a file" else blocker / "out"
        body = f"[experiments]\nfov_steps = 2\nsource_steps = 2\n[cli]\noutput_dir = {out_dir}\n"
        assert main([str(write_config(tmp_path, body))]) == EXIT_CONFIG_ERROR
        assert f"config error: output_dir = {out_dir}: cannot create a directory there" in capsys.readouterr().err
        assert blocker.read_text() == ""


class TestValidationDiagnostics:
    def test_reflectivity_out_of_range(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nwall_reflectivity = 1.5\n")
        config, diagnostics = load_config(path)
        assert diagnostics == []
        messages = validate(config)
        assert any("wall_reflectivity" in m for m in messages)

    def test_semi_angle_outside_mode_domain(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nlamp_semi_angle_deg = 95\n")
        config, _ = load_config(path)
        messages = validate(config)
        assert any("lamp_semi_angle_deg" in m and "undefined" in m for m in messages)

    def test_unknown_key_reported_with_section(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nwall_reflectivty = 0.7\n")
        _, diagnostics = load_config(path)
        assert any("unknown key" in m for m in diagnostics)

    def test_unknown_section_reported(self, tmp_path):
        path = write_config(tmp_path, "[rooms]\nx = 1\n")
        _, diagnostics = load_config(path)
        assert any("unknown section" in m for m in diagnostics)

    def test_unknown_scenario(self):
        config = RunConfig(scenario="lamp-hallway")
        assert any("scenario" in m for m in validate(config))

    def test_unknown_scenario_with_a_spectrum_reported_once(self):
        config = RunConfig(
            scenario="lamp-hallway",
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
        )
        assert len([m for m in validate(config) if "unknown scenario" in m]) == 1

    def test_dangling_spectrum_file(self):
        config = RunConfig(lamp_spectrum_file="/nowhere/led.csv")
        assert any("not found" in m for m in validate(config))

    def test_out_of_band_wavelength(self):
        config = RunConfig(
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
            overrides={"wavelength_nm": 2000.0},
        )
        assert any("band" in m for m in validate(config))

    def test_ambient_scenario_needs_irradiance_kind(self):
        config = RunConfig(
            scenario="ambient-only-center",
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
            lamp_spectrum_kind="source-psd",
        )
        assert any("irradiance" in m for m in validate(config))

    @pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf", "1e5", "1e300"])
    @pytest.mark.parametrize("section,key", NUMERIC_KEYS)
    def test_every_numeric_value_ends_in_result_or_diagnostic(self, tmp_path, section, key, raw):
        tiny = {
            "experiments": {"fov_steps": "2", "source_steps": "2"},
            "cli": {"resolution_patches_per_meter": "2"},
        }
        tiny.setdefault(section, {})[key] = raw
        body = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in tiny.items()
        )
        out_dir = tmp_path / "out"
        code = main([str(write_config(tmp_path, body)), "--out", str(out_dir)])
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
        if code == EXIT_CONFIG_ERROR:
            assert not out_dir.exists()

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(NUMERIC_KEYS),
        kind=st.sampled_from(("zero", "negative", "nan", "inf", "huge", "tiny", "valid")),
        scenario=st.sampled_from(("ambient-only-center", "lamp-center")),
        magnitude=st.floats(0.0, 1.0),
        bandwidth=st.none(),  # the matched filter; an example sets an explicit band
    )
    # the smallest huge grid axes and resolution, which must not be built
    @example(key=("experiments", "fov_steps"), kind="huge", scenario="ambient-only-center", magnitude=0.0, bandwidth=None)
    @example(key=("experiments", "source_steps"), kind="huge", scenario="lamp-center", magnitude=0.0, bandwidth=None)
    @example(key=("cli", "resolution_patches_per_meter"), kind="huge", scenario="lamp-center", magnitude=0.0, bandwidth=None)
    # a semi-angle whose cosine rounds to 1 (an infinite Lambert mode), a room
    # so low that the transmitter touches the receiver, and a wavelength with
    # no finite photon energy once an explicit band keeps the matched filter out
    @example(key=("geometry", "lamp_semi_angle_deg"), kind="tiny", scenario="lamp-center", magnitude=0.0, bandwidth=None)
    @example(key=("geometry", "room_z_m"), kind="tiny", scenario="ambient-only-center", magnitude=0.7, bandwidth=None)
    @example(key=("channel", "wavelength_nm"), kind="tiny", scenario="lamp-center", magnitude=0.0, bandwidth="0.0258")
    def test_every_numeric_key_ends_in_result_or_diagnostic_within_memory(self, key, kind, scenario, magnitude, bandwidth):
        # a value of each kind, on a 2 x 2 grid at 2/m: exit 0 or 2, and a
        # huge one is refused (or runs) without allocating anything large
        section, name = key
        integer = _RUN_KEY_TYPES.get(name) == "int"
        default = NOMINAL[name] if name in NOMINAL else getattr(RunConfig(), name)
        raw = {
            "zero": "0",
            "negative": str(-1 - round(600 * magnitude)) if integer else repr(-(10.0 ** (600.0 * magnitude - 300.0))),
            "nan": "nan",
            "inf": "inf" if magnitude < 0.5 else "-inf",
            "huge": str(10 ** round(7 + 23 * magnitude)) if integer else HUGE_FLOATS[min(3, int(4 * magnitude))],
            "tiny": ("5e-324", "1e-310", "1e-200")[min(2, int(3 * magnitude))],
            "valid": _SENTINELS[name] if default is None else str(default),
        }[kind]
        entries = {
            "experiments": {"scenario": scenario, "fov_steps": "2", "source_steps": "2"},
            "cli": {"resolution_patches_per_meter": "2"},
        }
        if bandwidth is not None:
            entries["channel"] = {"filter_bandwidth_nm": bandwidth}
        entries.setdefault(section, {})[name] = raw
        body = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in e.items()) for s, e in entries.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(body)
            tracemalloc.start()
            try:
                code = main([str(path), "--out", str(Path(tmp) / "out")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
            assert code == EXIT_OK or not (Path(tmp) / "out").exists()
        assert peak < 32 * 2**20, (key, raw, peak)

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    @pytest.mark.parametrize("scenario", ["ambient-only-center", "lamp-center"])
    def test_bad_resolution_names_its_key(self, tmp_path, capsys, scenario, resolution):
        body = (
            f"[experiments]\nscenario = {scenario}\nfov_steps = 2\nsource_steps = 2\n"
            f"[cli]\nresolution_patches_per_meter = {resolution}\n"
        )
        out_dir = tmp_path / "out"
        assert main([str(write_config(tmp_path, body)), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert f"resolution_patches_per_meter = {resolution}: must be a positive integer" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_grid_over_budget_refused_before_it_is_built(self):
        messages = validate(RunConfig(fov_steps=10**12))
        assert any(m.startswith("fov axis: steps = 1000000000000") and "grid budget" in m for m in messages)
        messages = validate(RunConfig(fov_steps=2000, source_steps=2000))
        assert any(m.startswith("fov_steps x source_steps = 2000 x 2000") and "grid budget" in m for m in messages)

    def test_grid_budget_admits_a_1500_square_map(self):
        assert validate(RunConfig(fov_steps=1500, source_steps=1500)) == []

    def test_resolution_over_its_bound_refused(self):
        messages = validate(RunConfig(resolution_patches_per_meter=MAX_RESOLUTION + 1))
        assert any(m.startswith(f"resolution_patches_per_meter = {MAX_RESOLUTION + 1}: must be a positive integer") for m in messages)
        assert validate(RunConfig(resolution_patches_per_meter=MAX_RESOLUTION)) == []

    @pytest.mark.parametrize("key", ["room_x_m", "room_y_m", "room_z_m"])
    def test_a_huge_room_runs_like_a_small_one(self, tmp_path, key):
        # the quadrature's cost does not depend on the room size
        body = f"[geometry]\n{key} = 1e5\n[experiments]\nfov_steps = 2\nsource_steps = 2\n"
        out_dir = tmp_path / "out"
        assert main([str(write_config(tmp_path, body)), "--out", str(out_dir)]) == EXIT_OK
        assert "converged" in (out_dir / "summary.txt").read_text()

    # each room side the property test above draws as tiny, and huge ones up to the top of the float range
    @pytest.mark.parametrize("value", ["5e-324", "1e-310", "1e-200", "1e13", "1e300", "1e308"])
    @pytest.mark.parametrize("key", ["room_x_m", "room_y_m", "room_z_m"])
    def test_a_room_side_at_the_float_range_ends_in_a_result_or_diagnostic(self, tmp_path, key, value):
        body = (
            f"[geometry]\n{key} = {value}\n[experiments]\nscenario = lamp-center\n"
            "fov_steps = 2\nsource_steps = 2\n[cli]\nresolution_patches_per_meter = 2\n"
        )
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_CONFIG_ERROR)

    @pytest.mark.parametrize("value", ["1e160", "1e300"])
    def test_a_huge_room_runs_with_the_steered_corner(self, tmp_path, capsys, value):
        # the transmitter is aimed across the room along an offset whose squared norm overflows
        body = (
            f"[geometry]\nroom_x_m = {value}\n[experiments]\nscenario = lamp-corner-steered\n"
            "fov_steps = 2\nsource_steps = 2\n"
        )
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "converged" in (tmp_path / "out" / "summary.txt").read_text()
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("lamp_semi_angle_deg", "1e-9", "lamp_semi_angle_deg = 1e-09: lamp_semi_angle_deg must lie in (0, 90) degrees"),
            ("room_z_m", "1e-13", "room_z_m = 1e-13: transmitter and receiver lie closer than 1e-12 m apart"),
        ],
    )
    def test_tiny_geometry_named(self, tmp_path, capsys, key, value, message):
        body = f"[geometry]\n{key} = {value}\n[experiments]\nfov_steps = 2\nsource_steps = 2\n"
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    def test_wavelength_without_a_finite_photon_energy_named(self, tmp_path, capsys):
        body = "[channel]\nwavelength_nm = 1e-320\nfilter_bandwidth_nm = 0.0258\n[experiments]\nfov_steps = 2\nsource_steps = 2\n"
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert "wavelength_nm = 1e-320: wavelength_nm must be positive and finite, with a finite photon energy" in capsys.readouterr().err

    def test_overflowing_concentrator_gain_named(self):
        messages = validate(RunConfig(overrides={"concentrator_index": 1e300}))
        assert any(m.startswith("concentrator_index = 1e+300") and "finite gain" in m for m in messages)

    def test_lamp_outside_shrunk_room(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nroom_x_m = 3\nlamp_x_m = 3.5\n")
        out_dir = tmp_path / "out"
        assert main([str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    # a band so wide that the lamp counts overflow a float, in a room that
    # reflects nothing (inf times a zero integral) and in the nominal room
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("geometry", ["wall_reflectivity = 0\nfloor_reflectivity = 0\n", ""])
    def test_overflowing_noise_counts_end_in_a_result(self, tmp_path, geometry):
        body = (
            f"[geometry]\n{geometry}[channel]\nfilter_bandwidth_nm = 1e308\n"
            "[experiments]\nscenario = lamp-center\nfov_steps = 2\nsource_steps = 2\n"
        )
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_bad_axis(self):
        config = RunConfig(source_min=1e-4, source_max=1e-6)
        assert any("exceeds max" in m for m in validate(config))
        config = RunConfig(source_scale="log", source_min=0.0)
        assert any("positive minimum" in m for m in validate(config))

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("source_max = 1.7976931348623157e308\n", "source axis: max 1.7976931348623157e+308 overflows to inf on a log axis"),
            ("source_min = 1e308\nsource_max = 1.7976931348623157e308\n", "source axis: max 1.7976931348623157e+308 overflows"),
            ("source_min = 1.7976931348623157e308\nsource_max = 1.7976931348623157e308\n", "source axis: min 1.7976931348623157e+308 overflows"),
            (
                "source_min = -1e308\nsource_max = 1e308\nsource_scale = linear\n",
                "source axis: max 1e+308 - min -1e+308 overflows to inf on a linear axis",
            ),
            ("fov_min_deg = -1e308\nfov_max_deg = 1e308\n", "fov axis: max 1e+308 - min -1e+308 overflows"),
        ],
    )
    def test_overflowing_axis_end_named(self, tmp_path, capsys, axis, message):
        body = f"[experiments]\n{axis}fov_steps = 2\nsource_steps = 2\n"
        out_dir = tmp_path / "out"
        assert main([str(write_config(tmp_path, body)), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fov_too_narrow_for_a_finite_concentrator_gain_named(self, tmp_path, capsys):
        # sin^2(1e-300 deg) underflows to 0: the FOV alone makes n^2 / sin^2(fov) infinite
        body = "[experiments]\nfov_min_deg = 1e-300\nfov_steps = 2\nsource_steps = 2\n"
        assert main([str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "config error: fov_deg must be wide enough for a finite concentrator gain n^2 / sin^2(fov) at n = 1, got 1e-300\n"
        assert "concentrator_index" not in err


def plain_csv(grid, fov_values, source_values) -> bytes:
    """sweep.csv data rows as one '%.9e' per cell, the reference for the block writer."""
    r, b, gains = grid.report, grid.budget, grid.gains
    shape = (len(fov_values), len(source_values))
    columns = [np.broadcast_to(c, shape) for c in (b.ambient, b.lamp_bounce, b.total, r.y1, r.q1, r.e1, r.q_mu, r.e_mu, r.rate)]
    h_dc, eta = gains.line_of_sight.ravel(), gains.transmittance.ravel()
    lines = []
    for i, fov in enumerate(fov_values):
        for j, level in enumerate(source_values):
            cells = [fov, level, h_dc[i], eta[i], *(c[i, j] for c in columns)]
            flag = "true" if np.broadcast_to(r.secure, shape)[i, j] else "false"
            lines.append(",".join("%.9e" % float(v) for v in cells) + f",{flag}\n")
    return "".join(lines).encode("ascii")


def synthetic_map(n_fov, n_src, seed=0):
    """A map with the fields the writer reads: values of all magnitudes, zeros,
    a few negatives, a three-digit exponent, a column the same in every FOV row,
    and a scalar column."""
    rng = np.random.default_rng(seed)
    shape = (n_fov, n_src)
    values = lambda: 10.0 ** rng.uniform(-12.0, 1.0, shape)  # noqa: E731
    rate = np.where(rng.random(shape) < 0.4, 0.0, values())
    rate.flat[::7] = 3.25e-123
    e_mu = values()
    e_mu.flat[::97] *= -1.0  # negatives take the exact fallback
    report = SimpleNamespace(
        y1=values(), q1=values(), e1=np.full(shape, 0.5), q_mu=values(), e_mu=e_mu,
        rate=rate, secure=rate > 0.0,
    )
    budget = SimpleNamespace(
        ambient=np.broadcast_to(values()[:1], shape),  # repeats in every FOV row
        lamp_bounce=0.0, total=values(),
    )
    gains = SimpleNamespace(line_of_sight=values()[:, :1], transmittance=values()[:, :1])
    grid = SimpleNamespace(report=report, budget=budget, gains=gains)
    return grid, tuple(np.linspace(2.0, 30.0, n_fov).tolist()), tuple(np.logspace(-9.0, -5.0, n_src).tolist())


def e9_text(values) -> list[str]:
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in _e9(np.asarray(values, dtype=np.float64))]


# Near-ties, rounding carries, the ends of the fast path and of the float range.
_POWERS = [10.0**k for k in range(-323, 309)]
E9_CASES = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, sys.float_info.min,
    9.9999999995, 9.99999999949999, 0.99999999995, 0.5, 0.25, 1.5, 2.5, 1.0000000005, 1.0000000015,
    # exact ties at the tenth digit, which round to even
    1234567890.5, 1234567891.5, 12345678905.0, 12345678915.0, 99999999995.0,
    1e290, 1e-290, float("inf"), float("-inf"), float("nan"),
    *_POWERS, *np.nextafter(_POWERS, 0.0).tolist(), *np.nextafter(_POWERS, np.inf).tolist(),
    *np.nextafter([1e290, 1e-290], 0.0).tolist(), *np.nextafter([1e290, 1e-290], np.inf).tolist(),
]


class TestSweepCsvText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
    def test_cells_are_python_percent_e(self, values):
        assert e9_text(values) == ["%.9e" % v for v in values]

    def test_fixed_cases(self):
        assert e9_text(E9_CASES) == ["%.9e" % v for v in E9_CASES]

    def test_ties_and_decimal_neighbours(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([np.round(rng.random(20_000), 9), np.round(10.0 * rng.random(20_000), 10), rng.random(20_000)])
        values = np.concatenate([values, values * 1e-200, values * 1e200])
        assert e9_text(values) == ["%.9e" % v for v in values.tolist()]

    @pytest.mark.parametrize("shape, block", [((1, 50), 7), ((50, 1), 7), ((13, 11), 30), ((13, 11), 11), ((3, 40), 16), ((4, 5), 4096)])
    def test_writer_equals_a_percent_per_cell(self, shape, block):
        grid, fovs, levels = synthetic_map(*shape)
        blocks = list(_csv_lines(grid, fovs, levels, block=block))
        assert b"".join(blocks) == plain_csv(grid, fovs, levels)
        assert len(blocks) > 1 or block > shape[0] * shape[1]

    def test_one_row_map_writes_in_bounded_memory(self, tmp_path):
        # a 1 x N map is one FOV row: the writer's peak must not grow with it
        grid, fovs, levels = synthetic_map(1, 200_000)
        path = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with path.open("wb") as csv:
                csv.writelines(_csv_lines(grid, fovs, levels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 30 * 2**20
        assert peak < size / 10, (peak, size)


class TestSummaryText:
    def test_frontiers_equal_a_per_level_max(self):
        # random secure masks with empty, full and sparse columns, over an unsorted FOV axis
        rng = np.random.default_rng(17)
        config = RunConfig(scenario="ambient-only-center")
        scenario = Scenario.named("ambient-only-center")
        fovs = tuple(rng.permutation(np.linspace(2.0, 30.0, 9)).tolist())
        levels = tuple(np.logspace(-9.0, -5.0, 40).tolist())
        for density in (0.0, 0.05, 0.5, 1.0):
            secure = rng.random((len(fovs), len(levels))) < density
            secure[:, ::7] = False
            text = _summarize(config, scenario, secure, fovs, levels, "")
            reference = []
            for j, level in enumerate(levels):
                secure_fovs = np.array(fovs)[secure[:, j]]
                frontier = f"{secure_fovs.max():.1f} deg" if secure_fovs.size else "none"
                reference.append(f"  {level:.9e} W/nm/m^2: {frontier}")
            lines = text.splitlines()
            start = lines.index("largest secure FOV per source level (grid resolution):") + 1
            assert lines[start : start + len(levels)] == reference


class TestAxes:
    def test_linear_axis(self):
        config = RunConfig(fov_min_deg=5.0, fov_max_deg=15.0, fov_steps=3, fov_scale="linear")
        assert config.fov_values() == (5.0, 10.0, 15.0)

    def test_log_axis(self):
        config = RunConfig(source_min=1e-7, source_max=1e-5, source_steps=3, source_scale="log")
        values = config.source_values()
        assert values[0] == pytest.approx(1e-7)
        assert values[1] == pytest.approx(1e-6)
        assert values[2] == pytest.approx(1e-5)

    def test_single_point_axis(self):
        config = RunConfig(fov_min_deg=9.0, fov_steps=1)
        assert config.fov_values() == (9.0,)

    def test_spectrum_file_sets_source_level(self):
        config = RunConfig(
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
        )
        (level,) = config.source_values()
        assert level == pytest.approx(1.0567e-5, rel=1e-3)


class TestRunOutputs:
    def small_config(self, tmp_path, scenario="lamp-center"):
        return write_config(
            tmp_path,
            "[experiments]\n"
            f"scenario = {scenario}\n"
            "fov_min_deg = 6\nfov_max_deg = 12\nfov_steps = 4\n"
            "source_min = 1e-6\nsource_max = 1e-5\nsource_steps = 2\n"
            "source_scale = log\n"
            f"[cli]\noutput_dir = {tmp_path / 'out'}\n",
        )

    def test_successful_run_writes_csv_and_summary(self, tmp_path):
        config, _ = load_config(self.small_config(tmp_path))
        assert run(config) == EXIT_OK
        csv_path = tmp_path / "out" / "sweep.csv"
        summary_path = tmp_path / "out" / "summary.txt"
        assert csv_path.exists() and summary_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == (
            "fov_deg,psd_w_per_nm,h_dc,eta,n_b1,n_b2,n_n,"
            "y1,q1,e1,q_mu,e_mu,rate_bits_per_pulse,secure_flag"
        )
        assert len(lines) == 1 + 4 * 2

    def test_csv_cells_are_locale_free_scientific(self, tmp_path):
        config, _ = load_config(self.small_config(tmp_path))
        run(config)
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] in ("true", "false")
            for cell in cells[:-1]:
                assert SCI_NOTATION.match(cell), cell

    def test_ambient_run_uses_irradiance_column(self, tmp_path):
        config, _ = load_config(self.small_config(tmp_path, scenario="ambient-only-center"))
        assert run(config) == EXIT_OK
        header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("fov_deg,pn_w_per_nm_m2,")

    def test_ambient_run_with_no_secure_level(self, tmp_path):
        path = write_config(
            tmp_path,
            "[keyrate]\nmisalignment_error = 0.5\n"
            "[experiments]\nscenario = ambient-only-center\nfov_steps = 2\nsource_steps = 2\n",
        )
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "ambient tolerance (largest secure level): none secure\n" in summary

    def test_zero_mean_photons_never_secure(self, tmp_path):
        path = write_config(
            tmp_path,
            "[keyrate]\nmean_photons_per_pulse = 0\n"
            "[experiments]\nfov_min_deg = 6\nfov_max_deg = 12\nfov_steps = 3\n"
            "source_min = 1e-6\nsource_max = 1e-6\nsource_steps = 1\n"
            f"[cli]\noutput_dir = {tmp_path / 'out'}\n",
        )
        config, _ = load_config(path)
        assert run(config) == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert all(line.endswith(",false") for line in lines[1:])

    def test_single_point_sweep_is_single_row(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiments]\nfov_steps = 1\nfov_min_deg = 9\n"
            "source_steps = 1\nsource_min = 1e-5\n"
            f"[cli]\noutput_dir = {tmp_path / 'out'}\n",
        )
        config, _ = load_config(path)
        assert run(config) == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_config_error_exit(self):
        assert run(RunConfig(scenario="nope")) == EXIT_CONFIG_ERROR


class TestQuadratureWork:
    def test_one_view_per_room_and_no_pass_twice(self, tmp_path, quadrature_passes):
        # The sweep, the boundary search and the convergence check of a lamp run
        # share one receiver view; the check finds the order-q value at the
        # widest FOV in the view's memo and computes only order 2q.
        import indoorqkd.channel as channel

        passes = quadrature_passes
        path = write_config(
            tmp_path,
            "[experiments]\nfov_min_deg = 6\nfov_max_deg = 30\nfov_steps = 5\n"
            "source_min = 1e-6\nsource_max = 1e-4\nsource_steps = 3\n"
            "[cli]\nresolution_patches_per_meter = 8\n",
        )
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(channel._VIEWS) == 1
        computed = [(order, fovs) for order, fovs, _ in passes]
        assert computed[0] == (8, [6.0, 12.0, 18.0, 24.0, 30.0])  # the sweep, one pass
        assert [p for p in computed if p[0] == 16] == [(16, [30.0])]  # the convergence check
        assert [p for p in computed if 30.0 in p[1]] == [computed[0], (16, [30.0])]
        assert {order for order, _ in computed} == {8, 16}
        fovs = [fov for order, swept in computed if order == 8 for fov in swept]
        assert len(fovs) == len(set(fovs))  # no FOV computed twice
        # the sweep sums the whole pieces below 30 degrees, and the boundary
        # probes, all below it, find them in the view: no whole piece twice per order
        [view] = channel._VIEWS.values()
        first_cut_above = int(np.searchsorted(view.bounds, np.radians(30.0), side="right")) - 1
        assert passes[0][2] == list(range(first_cut_above))
        assert len(passes) > 2 and all(not whole for order, _, whole in passes[1:] if order == 8)
        for order in (8, 16):
            whole = [index for o, _, added in passes if o == order for index in added]
            assert len(whole) == len(set(whole)) == len(view.whole_pieces[order])


class TestMainEntry:
    def test_dump_defaults_flag(self, capsys):
        assert main(["--dump-defaults"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[geometry]" in out and "wall_reflectivity" in out

    def test_exit_code_on_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "[geometry]\nwall_reflectivity = 1.5\n")
        assert main([str(path)]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_exit_code_on_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "[geometry]\ntypo_key = 1\n")
        assert main([str(path)]) == EXIT_CONFIG_ERROR

    def test_strict_escalates_a_low_order_quadrature(self, tmp_path, capsys):
        # the convergence probe runs at the widest FOV of the grid, where a
        # one-point rule per piece is visibly unconverged
        path = write_config(
            tmp_path,
            "[experiments]\nfov_min_deg = 25\nfov_max_deg = 30\nfov_steps = 2\n"
            "source_min = 1e-5\nsource_max = 1e-5\nsource_steps = 1\n",
        )
        out_dir = str(tmp_path / "strict_out")
        code = main([str(path), "--strict", "--resolution", "1", "--out", out_dir])
        assert code == EXIT_STRICT_CONVERGENCE
        # outputs are still written so the run can be inspected
        assert (tmp_path / "strict_out" / "sweep.csv").exists()
        code = main([str(path), "--resolution", "1", "--out", out_dir])
        assert code == EXIT_OK

    def test_strict_accepts_an_inf_no_order_changes(self, tmp_path):
        # a side of 1e-200 m collects an unbounded gain at every rule order: no change, converged
        path = write_config(
            tmp_path,
            "[geometry]\nroom_x_m = 1e-200\n[experiments]\nscenario = lamp-center\nfov_steps = 2\nsource_steps = 2\n",
        )
        assert main([str(path), "--strict", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "relative change 0.000e+00; converged" in (tmp_path / "out" / "summary.txt").read_text()

    def test_scenario_flag_overrides_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[experiments]\nscenario = lamp-center\n"
            "fov_min_deg = 10\nfov_max_deg = 12\nfov_steps = 2\n"
            "source_min = 1e-9\nsource_max = 1e-9\nsource_steps = 1\n",
        )
        out_dir = str(tmp_path / "amb")
        code = main([str(path), "--scenario", "ambient-only-center", "--out", out_dir])
        assert code == EXIT_OK
        header = (tmp_path / "amb" / "sweep.csv").read_text().splitlines()[0]
        assert "pn_w_per_nm_m2" in header
