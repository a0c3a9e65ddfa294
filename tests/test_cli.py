"""Config parsing, validation diagnostics, CSV output, and exit codes."""

import contextlib
import importlib
import io
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import indoorqkd.cli as cli
import indoorqkd.experiments as experiments
from indoorqkd.channel import ConvergenceReport
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
from indoorqkd.experiments import NOMINAL
from indoorqkd.spectra import bundled_spectrum_path

# up to the top of the float range, where squares and powers overflow
HUGE_FLOATS = ("1e13", "1e300", "1e308", repr(sys.float_info.max))
SCI_NOTATION = re.compile(r"^-?\d\.\d{9}e[+-]\d{2,3}$")
IRRADIANCE_FILE = str(bundled_spectrum_path("cool_white_led_irradiance_50cm.csv"))

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

    def test_dump_is_byte_identical_to_the_recorded_one(self):
        recorded = Path(__file__).parent / "data" / "dump_defaults.ini"
        assert dump_defaults().encode("utf-8") == recorded.read_bytes()

    def test_sections_hold_every_key_of_the_effective_parameters(self):
        # dump_defaults prints effective_parameters() section by section
        sectioned = [key for keys in _SECTION_KEYS.values() for key in keys]
        assert sorted(sectioned) == sorted(RunConfig().effective_parameters())

    def test_defaults_validate_clean(self):
        assert validate(RunConfig()) == []

    def test_missing_file_is_diagnosed(self, tmp_path):
        config, diagnostics = load_config(tmp_path / "absent.ini")
        assert diagnostics == [f"config file unreadable: {tmp_path / 'absent.ini'}: No such file or directory"]


class TestFileFailures:
    """A config file, an output directory or an output file that cannot be used
    ends in exit 2 and a line naming it, not in a traceback."""

    def test_config_that_is_not_utf8_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[geometry]\nroom_x_m = 4\n# \xff\n")
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: config file is not UTF-8 text: {path}: invalid start byte at byte 26" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_directory_named(self, tmp_path, capsys):
        assert main([str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: config file unreadable: {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_config_that_configparser_rejects_named(self, tmp_path, capsys):
        path = write_config(tmp_path, "room_x_m = 4\n[geometry]\n")  # a key before any section header
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config parse error: File contains no section headers.\nfile: '{path}', line: 1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["output_dir is a file", "output_dir below a file"])
    def test_output_dir_blocked_by_a_file_named(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out_dir = blocker if where == "output_dir is a file" else blocker / "out"
        body = f"[experiments]\nfov_steps = 2\nsource_steps = 2\n[cli]\noutput_dir = {out_dir}\n"
        assert main([str(write_config(tmp_path, body))]) == EXIT_CONFIG_ERROR
        assert f"config error: output_dir = {out_dir}: cannot create a directory there" in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("name", ["sweep.csv", "summary.txt"])
    def test_output_file_that_cannot_be_written_named(self, tmp_path, capsys, monkeypatch, name):
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("the map was computed"))
        body = "[experiments]\nfov_steps = 2\nsource_steps = 2\n"
        assert main([str(write_config(tmp_path, body)), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"config error: output_dir = {out_dir}: cannot write {name} there (Is a directory)\n"
        assert captured.out == ""  # no summary for a run that failed
        assert not (out_dir / "sweep.csv").is_file()  # checked before the map, and no file left behind
        assert sorted(path.name for path in out_dir.iterdir()) == [name]

    def test_an_earlier_runs_outputs_keep_their_bytes_when_one_cannot_be_written(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "sweep.csv").write_bytes(b"earlier\n")
        (out_dir / "summary.txt").mkdir()
        assert main(["--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert "cannot write summary.txt there" in capsys.readouterr().err
        assert (out_dir / "sweep.csv").read_bytes() == b"earlier\n"

    def test_config_with_a_byte_order_mark_runs_as_without(self, tmp_path):
        body = b"[experiments]\nfov_steps = 3\nsource_steps = 2\n[geometry]\nroom_x_m = 5\n"
        written = []
        for name, data in (("plain", body), ("marked", b"\xef\xbb\xbf" + body)):
            path = tmp_path / f"{name}.ini"
            path.write_bytes(data)
            assert main([str(path), "--out", str(tmp_path / name)]) == EXIT_OK
            written.append((tmp_path / name / "sweep.csv").read_bytes())
        assert written[1] == written[0]

    def test_config_with_a_byte_order_mark_names_a_bad_byte_by_its_offset_in_the_file(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xef\xbb\xbf[geometry]\n# \xff\n")
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: config file is not UTF-8 text: {path}: invalid start byte at byte 16" in capsys.readouterr().err

    def test_spectrum_file_that_is_not_utf8_named(self, tmp_path, capsys):
        spectrum = tmp_path / "lamp.csv"
        data = b"wavelength_nm,psd\n850,1e-6\n900,2e-6 \xff\n"
        spectrum.write_bytes(data)
        offset = data.index(b"\xff")
        path = write_config(tmp_path, f"[noise]\nlamp_spectrum_file = {spectrum}\n[experiments]\nfov_steps = 2\n")
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: lamp_spectrum_file: {spectrum}: not UTF-8 text: invalid start byte at byte {offset}\n"
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("raw, value", [
        ("TrUe", True), ("YeS", True), ("oN", True), ("1", True), ("FaLsE", False), ("nO", False), ("OfF", False), ("0", False),
    ])
    def test_each_boolean_word_sets_strict(self, tmp_path, raw, value):
        config, diagnostics = load_config(write_config(tmp_path, f"[cli]\nstrict = {raw}\n"))
        assert diagnostics == [] and config.strict is value

    def test_a_word_that_is_no_boolean_is_diagnosed(self, tmp_path):
        _, diagnostics = load_config(write_config(tmp_path, "[cli]\nstrict = maybe\n"))
        assert diagnostics == ["[cli] strict: expected a boolean, got 'maybe'"]

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
        assert validate(config) == ["lamp_spectrum_file: [Errno 2] No such file or directory: '/nowhere/led.csv'"]

    def test_out_of_band_wavelength(self):
        config = RunConfig(
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
            overrides={"wavelength_nm": 2000.0},
        )
        assert any("band" in m for m in validate(config))

    @pytest.mark.parametrize("raw", ["0", "-5", "1e-320"])
    @pytest.mark.parametrize("scenario, spectrum", [
        pytest.param("lamp-center", f"lamp_spectrum_file = {bundled_spectrum_path('cool_white_led.csv')}\n", id="lamp-with-a-psd-file"),
        pytest.param(
            "ambient-only-center", f"lamp_spectrum_file = {IRRADIANCE_FILE}\nlamp_spectrum_kind = irradiance\n",
            id="ambient-with-an-irradiance-file",
        ),
    ])
    def test_an_invalid_wavelength_beside_a_spectrum_is_named_once(self, tmp_path, capsys, scenario, spectrum, raw):
        # the wavelength's own rule names it; the spectrum's band line would name it a second time
        out_dir = tmp_path / "out"
        body = f"[channel]\nwavelength_nm = {raw}\n[noise]\n{spectrum}"
        assert main([str(write_config(tmp_path, body)), "--scenario", scenario, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        value = float(raw)
        assert capsys.readouterr().err == (
            f"config error: wavelength_nm = {value!r}: wavelength_nm must be positive and finite, "
            f"with a finite photon energy h c / wavelength, got {value!r}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario, body, message", [
        pytest.param(
            "ambient-only-center", "[noise]\nambient_irradiance_w_nm_m2 = -1e-9\n",
            "ambient_irradiance_w_nm_m2 = -1e-09: ambient_irradiance_w_nm_m2 must be non-negative and finite, got -1e-09",
            id="ambient-override-in-an-ambient-run",
        ),
        pytest.param(
            "lamp-center", "[noise]\nlamp_spectrum_kind = bogus\n", "lamp_spectrum_kind = 'bogus': must be one of source-psd, irradiance",
            id="spectrum-kind-without-a-file",
        ),
        pytest.param(
            "lamp-center", f"[noise]\nlamp_spectrum_file = {bundled_spectrum_path('cool_white_led.csv')}\n[experiments]\nsource_scale = bogus\n",
            "source axis: scale = 'bogus': must be 'linear' or 'log'",
            id="source-axis-with-a-file",
        ),
        # a spectrum distance that no file converts (an irradiance file in a lamp run is tested below)
        *(
            pytest.param(
                scenario, f"[noise]\n{spectrum}lamp_spectrum_distance_m = {distance}\n",
                f"lamp_spectrum_distance_m = {float(distance)!r}: distance_m must be positive and finite, got {float(distance)!r}",
                id=f"spectrum-distance-{distance}-{case}",
            )
            for case, scenario, spectrum in (
                ("lamp-without-a-file", "lamp-center", ""),
                ("ambient-without-a-file", "ambient-only-center", ""),
                ("lamp-with-a-psd-file", "lamp-center", f"lamp_spectrum_file = {bundled_spectrum_path('cool_white_led.csv')}\n"),
                ("ambient-with-an-irradiance-file", "ambient-only-center", f"lamp_spectrum_file = {IRRADIANCE_FILE}\nlamp_spectrum_kind = irradiance\n"),
            )
            for distance in ("-1", "0", "-1e-9")
        ),
    ])
    def test_a_key_the_run_does_not_read_is_checked_all_the_same(self, tmp_path, capsys, scenario, body, message):
        out_dir = tmp_path / "out"
        assert main([str(write_config(tmp_path, body)), "--scenario", scenario, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("scenario", ["lamp-center", "ambient-only-center"])
    @pytest.mark.parametrize("key, value", [
        *(("lamp_spectrum_distance_m", d) for d in (0.0, -1.0, 1e-300, 1e200, math.nan, math.inf)),
        *(("lamp_spectrum_kind", kind) for kind in ("source-psd", "irradiance", "radiance")),
        *(("lamp_spectrum_file", name) for name in ("missing", "a directory", "cool_white_led.csv")),
    ])
    def test_every_spectrum_value_ends_in_result_or_a_diagnostic_naming_its_key(self, tmp_path, capsys, scenario, key, value):
        # the bundled irradiance file set, and one spectrum key changed; a
        # RunConfig, since an INI file cannot spell a nan or inf distance
        paths = {"missing": tmp_path / "missing.csv", "a directory": tmp_path, "cool_white_led.csv": bundled_spectrum_path("cool_white_led.csv")}
        fields = {"lamp_spectrum_file": IRRADIANCE_FILE, "lamp_spectrum_kind": "irradiance"}
        fields[key] = str(paths[value]) if key == "lamp_spectrum_file" else value
        out_dir = tmp_path / "out"
        config = RunConfig(scenario=scenario, fov_steps=2, resolution_patches_per_meter=2, output_dir=str(out_dir), **fields)
        code = run(config)
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
        if code == EXIT_CONFIG_ERROR:
            err = capsys.readouterr().err.splitlines()
            assert err and all(line.startswith(f"config error: {key}") for line in err), err
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
        assert f"resolution_patches_per_meter = {resolution}: resolution_patches_per_meter must be an integer >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_grid_over_budget_refused_before_it_is_built(self):
        messages = validate(RunConfig(fov_steps=10**12))
        assert "fov axis: steps must be an integer <= 2,500,000, got 1000000000000" in messages
        messages = validate(RunConfig(fov_steps=2000, source_steps=2000))
        assert any(m.startswith("fov_steps x source_steps = 2000 x 2000") and "grid budget" in m for m in messages)

    def test_grid_budget_admits_a_1500_square_map(self):
        assert validate(RunConfig(fov_steps=1500, source_steps=1500)) == []

    def test_resolution_over_its_bound_refused(self):
        messages = validate(RunConfig(resolution_patches_per_meter=MAX_RESOLUTION + 1))
        assert "resolution_patches_per_meter = 501: resolution_patches_per_meter must be an integer <= 500, got 501" in messages
        assert validate(RunConfig(resolution_patches_per_meter=MAX_RESOLUTION)) == []
        # the count rule comes first: a non-integer is named here, not by the sweep it would fail in
        messages = validate(RunConfig(resolution_patches_per_meter=2.5))
        assert messages == ["resolution_patches_per_meter = 2.5: resolution_patches_per_meter must be an integer >= 1, got 2.5"]

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

    @pytest.mark.parametrize("key", ["room_x_m", "mean_photons_per_pulse"])
    def test_an_int_override_past_the_float_range_is_named(self, key):
        assert validate(RunConfig(overrides={key: 10**400})) == [
            f"{key} = {10**400!r}: override {key} must lie in the float range, got an int of 1329 bits"
        ]

    def test_overflowing_concentrator_gain_named(self):
        messages = validate(RunConfig(overrides={"concentrator_index": 1e300}))
        assert any(m.startswith("concentrator_index = 1e+300") and "finite gain" in m for m in messages)

    def test_lamp_outside_shrunk_room(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nroom_x_m = 3\nlamp_x_m = 3.5\n")
        out_dir = tmp_path / "out"
        assert main([str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    # an override valid beside the ones before it is not blamed for a fault elsewhere in the run
    @pytest.mark.parametrize("config, expected", [
        (RunConfig(overrides={"room_x_m": 10.0, "lamp_x_m": 5.0}, fov_max_deg=95.0, fov_steps=1), ["fov_deg must lie in (0, 90], got 95.0"]),
        (
            RunConfig(overrides={"room_x_m": 10.0, "lamp_x_m": 5.0, "wavelength_nm": 2000.0}, lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv"))),
            ["lamp_spectrum_file: wavelength 2000 nm outside sampled band [380, 1000] nm"],
        ),
        (RunConfig(overrides={"room_x_m": 10.0, "lamp_x_m": 5.0, "room_y_m": -1.0}), ["room_y_m = -1.0: room_y_m must be positive and finite, got -1.0"]),
        (
            RunConfig(overrides={"room_x_m": -1.0, "room_y_m": -2.0}),
            ["room_x_m = -1.0: room_x_m must be positive and finite, got -1.0", "room_y_m = -2.0: room_y_m must be positive and finite, got -2.0"],
        ),
        (RunConfig(overrides={"lamp_x_m": 3.5, "room_x_m": 3.0}), ["lamp_x_m = 3.5: lamp position x must lie in [0, 3], got 3.5"]),
    ], ids=["fov-past-90", "out-of-band", "bad-room-side", "two-bad-room-sides", "lamp-outside-shrunk-room"])
    def test_each_override_is_checked_beside_the_ones_before_it(self, config, expected):
        assert validate(config) == expected

    # a config built in code may mix key types, which sorted() of the keys alone cannot order
    @pytest.mark.parametrize("overrides, expected", [
        ({1: 2.0, "room_x_m": 3.0}, ["1 = 2.0: unknown override key 1"]),
        ({"room_x_m": 3.0, 1: 2.0}, ["1 = 2.0: unknown override key 1"]),
        (
            {None: 1.0, "room_x_m": -3.0},
            ["room_x_m = -3.0: room_x_m must be positive and finite, got -3.0", "None = 1.0: unknown override key None"],
        ),
    ], ids=["int-first", "int-last", "none-and-a-bad-side"])
    def test_overrides_of_mixed_key_types_end_in_a_diagnostic(self, overrides, expected):
        assert validate(RunConfig(overrides=overrides)) == expected

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
        assert validate(RunConfig(fov_steps=2.5)) == ["fov axis: steps must be an integer >= 1, got 2.5"]
        # an end set in code, which a config file would refuse: named, before min and max are compared
        for value, rule in ((math.nan, "be finite"), (math.inf, "be finite"), (None, "be a real number"), ("30", "be a number, not text")):
            for end, axis, key in (("min", "fov", "fov_min_deg"), ("max", "source", "source_max")):
                assert validate(RunConfig(**{key: value})) == [f"{axis} axis: {end} must {rule}, got {value!r}"]

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
    """_e9's texts, each cut at the width _e9 gives it; None where a byte past that width is not NUL."""
    words, widths = _e9(np.asarray(values, dtype=np.float64))
    rows = np.ascontiguousarray(words.T).view(np.uint8)
    return [None if row[w:].any() else bytes(row[:w]).decode("ascii") for row, w in zip(rows, widths.tolist())]


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


# Any float, with the values that leave the writer's fast path or widen a slot drawn often.
CELL_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 3.25e-123, -2.5e-7, 1e200, -1e290, math.nan, math.inf, -math.inf]),
)


@st.composite
def drawn_maps(draw):
    """A 1-6 x 1-6 map in the shape synthetic_map builds, every value drawn from CELL_FLOATS.
    A column repeats in every FOV row when drawn so; in half the maps every column does."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    every_column_repeats = draw(st.booleans())

    def cells(n_rows, n_cols):
        return np.array(draw(st.lists(CELL_FLOATS, min_size=n_rows * n_cols, max_size=n_rows * n_cols)), dtype=float).reshape(n_rows, n_cols)

    def column():
        return np.broadcast_to(cells(1, shape[1]), shape) if every_column_repeats or draw(st.booleans()) else cells(*shape)

    names = ("ambient", "lamp_bounce", "total", "y1", "q1", "e1", "q_mu", "e_mu", "rate")
    values = {name: column() for name in names}
    secure = np.array(draw(st.lists(st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))).reshape(shape)
    report = SimpleNamespace(secure=secure, **{name: values[name] for name in names[3:]})
    budget = SimpleNamespace(**{name: values[name] for name in names[:3]})
    fovs, levels = cells(1, shape[0])[0], cells(1, shape[1])[0]
    gains = SimpleNamespace(line_of_sight=cells(shape[0], 1), transmittance=cells(shape[0], 1))
    grid = SimpleNamespace(report=report, budget=budget, gains=gains)
    return grid, tuple(fovs.tolist()), tuple(levels.tolist())


class TestSweepCsvText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
    def test_cells_are_python_percent_e(self, values):
        assert e9_text(values) == ["%.9e" % v for v in values]

    def test_fixed_cases(self):
        assert e9_text(E9_CASES) == ["%.9e" % v for v in E9_CASES]

    def test_powers_of_ten_and_the_floats_below_them_take_the_fast_path(self, monkeypatch):
        # log10 gives the decade above for a value just under a power of ten, such as
        # 9.999999999999999e-06; _e9 steps it down, and no value here reaches '%.9e'
        powers = [10.0**k for k in range(-289, 290)]
        values = [*powers, *np.nextafter(powers, 0.0).tolist()]
        slow, flatnonzero = [], np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda x: slow.append(flatnonzero(x)) or slow[-1])
        assert e9_text(values) == ["%.9e" % v for v in values]
        assert [indices.tolist() for indices in slow] == [[]]  # the fallback's indices

    def test_word_tables_are_percent_text(self):
        for table, form, first in ((cli._DIGITS3_WORD, "%03d", 0), (cli._EXPONENT_WORD, "e%+03d", -300)):
            words = [int(w).to_bytes(8, "little") for w in table.tolist()]
            assert words == [(form % k).encode("ascii").ljust(8, b"\0") for k in range(first, first + len(table))]
        assert (len(cli._DIGITS3_WORD), len(cli._EXPONENT_WORD)) == (1000, 601)

    def test_ties_and_decimal_neighbours(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([np.round(rng.random(20_000), 9), np.round(10.0 * rng.random(20_000), 10), rng.random(20_000)])
        values = np.concatenate([values, values * 1e-200, values * 1e200])
        assert e9_text(values) == ["%.9e" % v for v in values.tolist()]

    @pytest.mark.parametrize("shape, block", [((1, 50), 7), ((50, 1), 7), ((13, 11), 30), ((13, 11), 11), ((3, 40), 16), ((4, 5), 4096)])
    def test_writer_equals_a_percent_per_cell(self, shape, block, monkeypatch):
        grid, fovs, levels = synthetic_map(*shape)
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        blocks = list(_csv_lines(grid, fovs, levels))
        assert b"".join(blocks) == plain_csv(grid, fovs, levels)
        assert len(blocks) > 1 or block > shape[0] * shape[1]

    @settings(max_examples=200, deadline=None)
    @given(drawn_maps())
    def test_writer_equals_a_percent_per_cell_at_every_block_size(self, drawn):
        # nan, +-inf, -0.0, subnormals, negatives and three-digit exponents, in any column
        grid, fovs, levels = drawn
        expected = plain_csv(grid, fovs, levels)
        with pytest.MonkeyPatch.context() as patch:  # a fixture's would outlive one example
            for block in range(1, len(fovs) * len(levels) + 1):
                patch.setattr(cli, "_CSV_BLOCK", block)
                assert b"".join(_csv_lines(grid, fovs, levels)) == expected, block

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
        fovs = tuple(rng.permutation(np.linspace(2.0, 30.0, 9)).tolist())
        levels = tuple(np.logspace(-9.0, -5.0, 40).tolist())
        for density in (0.0, 0.05, 0.5, 1.0):
            secure = rng.random((len(fovs), len(levels))) < density
            secure[:, ::7] = False
            text = _summarize(config, True, secure, fovs, levels, 1e-6, None)
            reference = []
            for j, level in enumerate(levels):
                secure_fovs = np.array(fovs)[secure[:, j]]
                frontier = f"{secure_fovs.max():.1f} deg" if secure_fovs.size else "none"
                reference.append(f"  {level:.9e} W/nm/m^2: {frontier}")
            lines = text.splitlines()
            start = lines.index("largest secure FOV per source level (grid resolution):") + 1
            assert lines[start : start + len(levels)] == reference

    @pytest.mark.parametrize("scenario, found, report, last_lines", [
        ("ambient-only-center", 3.5e-7, None, [
            "ambient tolerance (largest secure level): 3.500000000e-07 W/nm/m^2",
            "convergence: no reflected-light integral in this run",
        ]),
        ("ambient-only-corner", None, None, [
            "ambient tolerance (largest secure level): none secure",
            "convergence: no reflected-light integral in this run",
        ]),
        ("lamp-center", 12.34, ConvergenceReport(2e-7, 2.5e-7, 0.2, 2e-7, 0.0, False, 3, (4, 10)), [
            "refined secure-FOV boundary at 2.000000000e-06 W/nm: 12.3 deg",
            "convergence: reflected integral 2.000000000e-07 at order 3 and theta rule 4 arcs x 10 nodes; "
            "2.500000000e-07 at order 6 (relative change 2.000e-01); "
            "2.000000000e-07 at 20 theta nodes per arc (relative change 0.000e+00); NOT converged in the psi order",
        ]),
        ("lamp-corner", None, ConvergenceReport(1e-6, 1e-6, 0.0, 1e-6, 0.0, True, 10, (12, 12)), [
            "refined secure-FOV boundary at 2.000000000e-06 W/nm: none secure",
            "convergence: reflected integral 1.000000000e-06 at order 10 and theta rule 12 arcs x 12 nodes; "
            "1.000000000e-06 at order 20 (relative change 0.000e+00); "
            "1.000000000e-06 at 24 theta nodes per arc (relative change 0.000e+00); converged",
        ]),
        ("lamp-center", 5.0, ConvergenceReport(1e-6, 1e-6, 1e-3, 2e-6, 0.5, False, 10, (2, 2)), [
            "refined secure-FOV boundary at 2.000000000e-06 W/nm: 5.0 deg",
            "convergence: reflected integral 1.000000000e-06 at order 10 and theta rule 2 arcs x 2 nodes; "
            "1.000000000e-06 at order 20 (relative change 1.000e-03); "
            "2.000000000e-06 at 4 theta nodes per arc (relative change 5.000e-01); NOT converged in the theta nodes",
        ]),
        ("lamp-corner", 5.0, ConvergenceReport(1e-6, 2e-6, 0.5, 2e-6, 0.5, False, 1, (4, 10)), [
            "refined secure-FOV boundary at 2.000000000e-06 W/nm: 5.0 deg",
            "convergence: reflected integral 1.000000000e-06 at order 1 and theta rule 4 arcs x 10 nodes; "
            "2.000000000e-06 at order 2 (relative change 5.000e-01); "
            "2.000000000e-06 at 20 theta nodes per arc (relative change 5.000e-01); "
            "NOT converged in the psi order and theta nodes",
        ]),
    ])
    def test_search_and_convergence_lines(self, scenario, found, report, last_lines):
        config = RunConfig(scenario=scenario, resolution_patches_per_meter=3)
        levels = (1e-6, 2e-6, 3e-6)
        secure = np.array([[True, False, False], [True, True, False]])
        text = _summarize(config, scenario.startswith("ambient"), secure, (5.0, 10.0), levels, found, report)
        assert text.endswith("\n") and text.splitlines()[-2:] == last_lines
        assert "secure points: 3 of 6" in text.splitlines()


# The cli globals through which run makes its library calls, as perfbench's tracer sees them.
LIBRARY_CALLS = ("build_setup", "sweep", "reflected_gain_convergence", "secure_fov_boundary", "ambient_tolerance")
SPECTRUM_CALLS = ("load_spectrum_csv", "irradiance_to_psd", "density_at")


def spy_on_cli(monkeypatch, names):
    """Wrap each named cli global; the list returned collects [name, result] per call, in call order."""
    calls = []

    def spy(name, call):
        def wrapper(*args, **kwargs):
            entry = [name, None]
            calls.append(entry)
            entry[1] = call(*args, **kwargs)
            return entry[1]
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    return calls


def small_run(tmp_path, case, **fields):
    """A 3 x 3 map of a lamp run, a lamp run with the lamp off (one level, 0), an ambient run, or
    a lamp run whose one level comes from the bundled irradiance file."""
    axes = {
        "lamp": dict(scenario="lamp-center"),
        "lamp-off": dict(scenario="lamp-corner", source_min=0.0, source_max=0.0, source_steps=1, source_scale="linear"),
        "ambient": dict(scenario="ambient-only-center", source_min=1e-8, source_max=1e-6),
        "lamp-spectrum": dict(scenario="lamp-center", lamp_spectrum_file=IRRADIANCE_FILE, lamp_spectrum_kind="irradiance"),
    }[case]
    defaults = dict(fov_min_deg=6.0, fov_max_deg=12.0, fov_steps=3, source_min=1e-6, source_max=1e-5, source_steps=3)
    return RunConfig(**{**defaults, **axes, **fields}, resolution_patches_per_meter=4, output_dir=str(tmp_path / "out"))


class TestComputeThenRender:
    @pytest.mark.parametrize("case, expected", [
        ("lamp-spectrum", ["load_spectrum_csv", "build_setup", "irradiance_to_psd", "density_at", "build_setup", "sweep", "_csv_lines",
                           "reflected_gain_convergence", "secure_fov_boundary"]),
        ("lamp", ["build_setup", "build_setup", "sweep", "_csv_lines", "reflected_gain_convergence", "secure_fov_boundary"]),
        ("lamp-off", ["build_setup", "build_setup", "sweep", "_csv_lines", "secure_fov_boundary"]),
        ("ambient", ["build_setup", "build_setup", "sweep", "_csv_lines", "ambient_tolerance"]),
    ])
    def test_run_makes_its_library_calls_in_order(self, tmp_path, monkeypatch, case, expected):
        # the corners of the grid in _resolve, which returns the room it checked at
        # fov_max_deg, the map and its CSV, the report of a lit lamp run on that room
        # (the widest the boundary search evaluates), then the boundary or the tolerance
        calls = spy_on_cli(monkeypatch, (*LIBRARY_CALLS, *SPECTRUM_CALLS, "_csv_lines"))
        assert run(small_run(tmp_path, case)) == EXIT_OK
        assert [name for name, _ in calls] == expected

    @pytest.mark.parametrize("case", ["lamp", "lamp-off", "ambient"])
    def test_summary_renders_from_the_results_alone(self, tmp_path, monkeypatch, case):
        config = small_run(tmp_path, case)
        calls = spy_on_cli(monkeypatch, LIBRARY_CALLS)
        assert run(config) == EXIT_OK
        results = dict(calls)
        ambient_run = case == "ambient"
        found = results["ambient_tolerance" if ambient_run else "secure_fov_boundary"]
        report = results.get("reflected_gain_convergence")
        assert (report is not None) == (case == "lamp")

        def refuse(*args, **kwargs):
            raise AssertionError("the summary called the library")

        _, fov_values, source_values, _ = cli._resolve(config)[0]
        for name in LIBRARY_CALLS:
            monkeypatch.setattr(cli, name, refuse)
        secure = results["sweep"].report.secure
        text = _summarize(config, ambient_run, secure, fov_values, source_values, found, report)
        assert text.splitlines() == (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()

    def test_convergence_is_checked_at_fov_max_where_the_search_ends(self, tmp_path, monkeypatch):
        # one FOV step leaves only fov_min_deg on the axis, but the boundary search climbs to
        # fov_max_deg: the report is of the room at 30 deg, the widest FOV the run evaluates
        config = RunConfig(scenario="lamp-center", fov_min_deg=5.0, fov_max_deg=30.0, fov_steps=1, output_dir=str(tmp_path / "out"))
        checked, convergence = [], cli.reflected_gain_convergence
        monkeypatch.setattr(cli, "reflected_gain_convergence", lambda room, order: checked.append((room, convergence(room, order))) or checked[-1][1])
        resolved, resolve = [], cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda config: resolved.append(resolve(config)) or resolved[-1])
        calls = spy_on_cli(monkeypatch, ("secure_fov_boundary",))
        assert run(config) == EXIT_OK
        [(checked_room, report)] = checked
        assert checked_room.fov_deg == 30.0 and 5.0 < calls[0][1] < 30.0
        assert checked_room is resolved[0][0][3]  # the room _resolve checked, not a second build
        room = experiments.build_setup(experiments.Scenario.named("lamp-center"), 30.0, 0.0).room
        value = experiments.total_reflected_gain(room, config.resolution_patches_per_meter)
        assert report.value == value != experiments.total_reflected_gain(room, config.resolution_patches_per_meter, fov_deg=5.0)
        summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert f"convergence: reflected integral {value:.9e} at order 10" in summary

    @pytest.mark.parametrize("converged", [False, True])
    def test_strict_reads_the_report_the_summary_prints(self, tmp_path, monkeypatch, capsys, converged):
        # a report whose flag disagrees with its change: --strict follows the flag the summary prints
        report = ConvergenceReport(1.0, 2.0, 0.5, 1.0, 0.0, converged, 4, (4, 10))
        monkeypatch.setattr(cli, "reflected_gain_convergence", lambda room, order: report)
        assert run(small_run(tmp_path, "lamp", strict=True)) == (EXIT_OK if converged else EXIT_STRICT_CONVERGENCE)
        summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert summary.endswith(f"relative change 0.000e+00); {'converged' if converged else 'NOT converged in the psi order'}\n")
        assert ("exit 3 under --strict" in capsys.readouterr().err) is not converged


class TestSearchesSeededFromTheMap:
    def test_lamp_run_probes_no_rung_the_map_decides(self, tmp_path, monkeypatch):
        # a 7-FOV map from 2 to 30 deg whose middle column, at 1e-5 W/nm, turns insecure between 6.7 and 11.3 deg
        config = small_run(tmp_path, "lamp", fov_min_deg=2.0, fov_max_deg=30.0, fov_steps=7, source_max=1e-4)
        calls = spy_on_cli(monkeypatch, ("sweep",))
        probed = []
        evaluate = experiments.evaluate_point

        def spy(scenario, fov_deg, source_level, **options):
            probed.extend(np.ravel(fov_deg).tolist())
            return evaluate(scenario, fov_deg, source_level, **options)

        search = cli.secure_fov_boundary

        def boundary(*args, **kwargs):
            monkeypatch.setattr(experiments, "evaluate_point", spy)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "secure_fov_boundary", boundary)
        assert run(config) == EXIT_OK
        _, fov_values, source_values, _ = cli._resolve(config)[0]
        fovs = np.array(fov_values)
        flags = calls[0][1].report.secure[:, len(source_values) // 2]
        assert flags.any() and not flags.all()
        top, bottom = fovs[flags].max(), fovs[~flags].min()
        assert probed and all(top < fov < bottom for fov in probed), (top, bottom, probed)
        rungs = [f for f in experiments._FOV_LADDER_DEG if f < config.fov_max_deg] + [config.fov_max_deg]
        decided = [rung for rung in rungs if not top < rung < bottom]
        assert len(decided) == len(rungs) - 1  # all but 8 deg
        assert not set(decided) & set(probed)

    @pytest.mark.parametrize("scale, fov_min", [("log", 5.0), ("log", 6.0), ("linear", 5.0)])
    def test_ambient_run_seeds_only_from_a_row_at_fov_min(self, tmp_path, monkeypatch, scale, fov_min):
        config = small_run(tmp_path, "ambient", fov_min_deg=fov_min, fov_max_deg=30.0, fov_steps=4, fov_scale=scale)
        _, fov_values, source_values, _ = cli._resolve(config)[0]
        assert fov_values[0] == fov_min  # logspace alone starts a 5-30 deg log axis at 5.000000000000001
        known = []
        search = cli.ambient_tolerance

        def tolerance(*args, **kwargs):
            known.append(kwargs.get("known"))
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "ambient_tolerance", tolerance)
        assert run(config) == EXIT_OK
        assert len(known) == 1 and known[0][0] == source_values

    @pytest.mark.parametrize("case", ["lamp", "lamp-off", "ambient", "lamp-spectrum"])
    def test_outputs_equal_those_of_unseeded_searches(self, tmp_path, monkeypatch, case):
        seeded = small_run(tmp_path / "seeded", case, fov_min_deg=2.0, fov_max_deg=30.0, fov_steps=7)
        assert run(seeded) == EXIT_OK
        for name in ("secure_fov_boundary", "ambient_tolerance"):
            search = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, search=search, **kwargs: search(*args, **{**kwargs, "known": None}))
        unseeded = small_run(tmp_path / "unseeded", case, fov_min_deg=2.0, fov_max_deg=30.0, fov_steps=7)
        assert run(unseeded) == EXIT_OK
        for name in ("summary.txt", "sweep.csv"):
            assert (tmp_path / "seeded" / "out" / name).read_bytes() == (tmp_path / "unseeded" / "out" / name).read_bytes()


class TestAxes:
    def test_linear_axis(self):
        assert cli._axis(5.0, 15.0, 3, "linear") == (5.0, 10.0, 15.0)

    def test_log_axis(self):
        values = cli._axis(1e-7, 1e-5, 3, "log")
        assert values[0] == pytest.approx(1e-7)
        assert values[1] == pytest.approx(1e-6)
        assert values[2] == pytest.approx(1e-5)

    @pytest.mark.parametrize("lo, hi, steps, scale", [
        (1e-7, 1e-4, 13, "log"), (1e-10, 1e-6, 13, "log"), (2.0, 30.0, 29, "linear"),  # the golden runs' axes
        (5.0, 30.0, 4, "log"), (2.0, 30.0, 29, "log"), (1e-9, 1e-5, 90, "log"),  # whose logspace ends miss by an ulp
    ])
    def test_axis_ends_on_its_configured_values(self, lo, hi, steps, scale):
        values = cli._axis(lo, hi, steps, scale)
        assert (len(values), values[0], values[-1]) == (steps, lo, hi)

    @pytest.mark.parametrize("axis", ["fov", "source"])
    def test_unknown_scale_named(self, axis):
        config = RunConfig(**{f"{axis}_scale": "bogus"})
        assert validate(config) == [f"{axis} axis: scale = 'bogus': must be 'linear' or 'log'"]

    def test_a_spectrum_file_still_checks_the_source_axis(self):
        config = RunConfig(source_scale="bogus", lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")))
        assert validate(config) == ["source axis: scale = 'bogus': must be 'linear' or 'log'"]

    def test_single_point_axis(self):
        assert cli._axis(9.0, 30.0, 1, "linear") == (9.0,)

    def test_spectrum_file_sets_source_level(self):
        config = RunConfig(
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv")),
        )
        (level,) = cli._resolve(config)[0][2]
        assert level == pytest.approx(1.0567e-5, rel=1e-3)


README = Path(__file__).resolve().parent.parent / "README.md"
SMALL_MAPS = {  # scenario: the [experiments] lines of a 5 x 3 map with secure and insecure points
    "lamp-center": "fov_steps = 5\nsource_steps = 3\n",
    "ambient-only-center": "fov_steps = 5\nsource_steps = 3\nsource_min = 1e-9\nsource_max = 1e-5\n",
}


@pytest.fixture(scope="module")
def small_maps(tmp_path_factory):
    """The output directory of one small CLI map of each SMALL_MAPS scenario, by scenario."""
    outputs = {}
    for scenario, axes in SMALL_MAPS.items():
        root = tmp_path_factory.mktemp(scenario)
        config = write_config(root, f"[experiments]\nscenario = {scenario}\n{axes}")
        with contextlib.redirect_stdout(io.StringIO()):  # the summary the CLI prints
            assert main([str(config), "--out", str(root / "out")]) == EXIT_OK
        outputs[scenario] = root / "out"
    return outputs


@pytest.fixture
def perfbench_checks(monkeypatch):
    """perfbench's output checks, imported as perfbench's own tests import them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("checks")


class TestOutputsOthersRead:
    """perfbench's checks and README read sweep.csv's header; a renamed column fails here first."""

    @pytest.mark.parametrize("scenario", sorted(SMALL_MAPS))
    def test_map_passes_perfbench_output_checks(self, small_maps, perfbench_checks, scenario):
        ambient = scenario.startswith("ambient")
        assert perfbench_checks.check_map_output(small_maps[scenario], ambient, 5, 3) == (15, [])

    def test_readme_column_list_is_the_header(self, small_maps):
        section = README.read_text(encoding="utf-8").split("### sweep.csv\n", 1)[1].split("\n## ", 1)[0]
        listed = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
        lamp, ambient = ((small_maps[s] / "sweep.csv").read_text().split("\n", 1)[0].split(",") for s in SMALL_MAPS)
        assert [name.strip() for name in listed.split(",")] == lamp
        assert ambient == [lamp[0], "pn_w_per_nm_m2", *lamp[2:]]
        assert "Ambient scenarios name the source column `pn_w_per_nm_m2`." in " ".join(section.split())


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
        # widest FOV in the view's memo and computes only order 2q under the
        # view's theta rule and, in the one theta-check pass, order q under twice
        # its theta nodes per arc.
        import indoorqkd.channel as channel

        passes = quadrature_passes
        path = write_config(
            tmp_path,
            "[experiments]\nfov_min_deg = 6\nfov_max_deg = 30\nfov_steps = 5\n"
            "source_min = 1e-6\nsource_max = 1e-4\nsource_steps = 3\n"
            "[cli]\nresolution_patches_per_meter = 8\n",
        )
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        [view] = channel._VIEWS.values()
        arcs, nodes = rule = view.theta_rule
        base, psi_check, theta_check = (8, rule), (16, rule), (8, (arcs, 2 * nodes))
        computed = [(key, fovs) for key, fovs, _ in passes]
        assert computed[0] == (base, [6.0, 12.0, 18.0, 24.0, 30.0])  # the sweep, one pass
        assert [p for p in computed if p[0] == psi_check] == [(psi_check, [30.0])]  # the convergence check
        assert [p for p in computed if p[0][1] != rule] == [(theta_check, [30.0])]  # one theta-check pass
        assert [p for p in computed if 30.0 in p[1]] == [computed[0], (psi_check, [30.0]), (theta_check, [30.0])]
        assert {key for key, _ in computed} == {base, psi_check, theta_check}
        fovs = [fov for key, swept in computed if key == base for fov in swept]
        assert len(fovs) == len(set(fovs))  # no FOV computed twice
        # the sweep sums the whole pieces below 30 degrees, and the boundary
        # probes, all below it, find them in the view: no whole piece twice per key
        first_cut_above = int(np.searchsorted(view.bounds, np.radians(30.0), side="right")) - 1
        assert passes[0][2] == list(range(first_cut_above))
        assert len(passes) > 3 and all(not whole for key, _, whole in passes[1:] if key == base)
        for key in base, psi_check, theta_check:
            whole = [index for k, _, added in passes if k == key for index in added]
            assert len(whole) == len(set(whole)) == len(view.whole_pieces[key])


class TestThetaCheck:
    def test_a_coarse_theta_rule_is_named_and_fails_strict(self, tmp_path, monkeypatch, capsys):
        # a 10 degree lamp 0.7 m off under 2 arcs x 2 nodes: the theta check moves the
        # integral, the psi doubling does not, and the summary line says which
        import indoorqkd.channel as channel

        monkeypatch.setattr(channel, "_THETA_RULES", ((math.inf, 2, 2),))
        monkeypatch.setattr(channel, "_VIEWS", {})  # views of the coarse rule leave with the test
        path = write_config(
            tmp_path,
            "[geometry]\nlamp_x_m = 2.7\nlamp_semi_angle_deg = 10\n"
            "[experiments]\nfov_min_deg = 6\nfov_max_deg = 30\nfov_steps = 3\nsource_steps = 2\n",
        )
        assert main([str(path), "--strict", "--out", str(tmp_path / "out")]) == EXIT_STRICT_CONVERGENCE
        line = (tmp_path / "out" / "summary.txt").read_text().splitlines()[-1]
        assert "theta rule 2 arcs x 2 nodes" in line and line.endswith("; NOT converged in the theta nodes")
        assert "exit 3 under --strict" in capsys.readouterr().err


class TestMinusZeroPrintsUnsigned:
    """A value written -0 is 0.0 from the parser on, so no output cell reads -0.000000000e+00."""

    def run_map(self, tmp_path, body, scenario="lamp-center", axis=""):
        path = write_config(tmp_path, body + "[experiments]\nfov_steps = 2\nsource_steps = 3\n" + axis)
        assert main([str(path), "--scenario", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK
        csv, summary = ((tmp_path / "out" / name).read_text() for name in ("sweep.csv", "summary.txt"))
        assert "-0." not in csv + summary
        header, *rows = csv.splitlines()
        return header.split(","), [row.split(",") for row in rows]

    @pytest.mark.parametrize("section,key", [(s, k) for s, k in NUMERIC_KEYS if _RUN_KEY_TYPES.get(k, "float") == "float"])
    def test_every_float_key_parses_minus_zero_as_plus_zero(self, tmp_path, section, key):
        config, problems = load_config(write_config(tmp_path, f"[{section}]\n{key} = -0\n"))
        assert problems == []
        value = config.overrides[key] if key in NOMINAL else getattr(config, key)
        assert math.copysign(1.0, value) == 1.0

    def test_mean_photon_number(self, tmp_path):
        header, rows = self.run_map(tmp_path, "[keyrate]\nmean_photons_per_pulse = -0\n")
        assert {row[header.index("q1")] for row in rows} == {"0.000000000e+00"}

    @pytest.mark.parametrize("scenario, column", [("lamp-center", "n_b2"), ("ambient-only-center", "n_b1")])
    def test_source_min_on_a_linear_axis(self, tmp_path, scenario, column):
        header, rows = self.run_map(tmp_path, "", scenario, axis="source_min = -0\nsource_scale = linear\n")
        assert rows[0][1] == rows[0][header.index(column)] == "0.000000000e+00"

    def test_a_spectrum_sample(self, tmp_path):
        # the signal's 880 nm is the band's last sample, read without interpolating
        spectrum = tmp_path / "lamp.csv"
        spectrum.write_text("wavelength_nm,psd\n850,1e-6\n880,-0\n")
        header, rows = self.run_map(tmp_path, f"[noise]\nlamp_spectrum_file = {spectrum}\n")
        assert {row[1] for row in rows} == {"0.000000000e+00"}


class TestColdProcess:
    def test_a_lamp_map_never_imports_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma, 17-30 ms of CPU that a run does not need
        import os
        import subprocess

        src = Path(cli.__file__).resolve().parent.parent
        path = write_config(tmp_path, "[experiments]\nscenario = lamp-corner\nfov_steps = 5\nsource_steps = 3\n")
        script = (
            "import contextlib, io, sys\n"
            "from indoorqkd.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{str(path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert (tmp_path / "out" / "summary.txt").exists()
        assert done.stdout == "False\n"


class TestParserReuse:
    def test_each_call_in_one_process_behaves_as_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        # main's parser is built once a process; five calls in a row (a scenario override,
        # none, --strict, an unknown option, a plain run) each give a fresh process's exit
        # code, stdout, stderr and output bytes
        import os
        import subprocess

        path = write_config(tmp_path, "[experiments]\nscenario = lamp-corner\nfov_steps = 3\nsource_steps = 2\n")
        calls = [["--scenario", "ambient-only-center"], [], ["--strict", "--resolution", "1"], ["--no-such-option"], ["--resolution", "12"]]
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        monkeypatch.setenv("COLUMNS", "80")

        def outputs(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None

        capsys.readouterr()
        codes, hits = [], cli._parser.cache_info().hits
        for k, args in enumerate(calls):
            argv = [str(path), *args, "--out", str(tmp_path / f"fresh{k}")]
            fresh = subprocess.run([sys.executable, "-m", "indoorqkd.cli", *argv], capture_output=True, text=True, env=env)
            try:
                code = main([*argv[:-1], str(tmp_path / f"reused{k}")])
            except SystemExit as exc:  # argparse's exit on a bad option
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), args
            assert outputs(tmp_path / f"reused{k}") == outputs(tmp_path / f"fresh{k}"), args
            codes.append((code, captured.err.startswith("usage: indoorqkd")))
        assert codes == [(EXIT_OK, False), (EXIT_OK, False), (EXIT_STRICT_CONVERGENCE, False), (EXIT_CONFIG_ERROR, True), (EXIT_OK, False)]
        assert cli._parser.cache_info().hits >= hits + len(calls) - 1  # built at most once here


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
        line = (tmp_path / "out" / "summary.txt").read_text().splitlines()[-1]
        assert line.count("(relative change 0.000e+00)") == 2 and line.endswith("; converged")

    @pytest.mark.parametrize("wavelength, density", [("800", "nan"), ("850", "nan"), ("850", "inf")])
    def test_nan_or_inf_spectrum_density_is_a_config_error(self, tmp_path, capsys, wavelength, density):
        # 880 nm falls between 850 and 900: a bad row there, or away from it, stops the run alike
        spectrum = tmp_path / "lamp.csv"
        rows = {"800": "1e-6", "850": "2e-6", "900": "3e-6", wavelength: density}
        spectrum.write_text("wavelength_nm,psd\n" + "".join(f"{w},{v}\n" for w, v in rows.items()))
        path = write_config(tmp_path, f"[noise]\nlamp_spectrum_file = {spectrum}\n[experiments]\nfov_steps = 2\n")
        out_dir = tmp_path / "out"
        assert main([str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"config error: lamp_spectrum_file: {spectrum}: " in err and "non-negative and finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "missing two-column header row"),
        ("wavelength_nm,psd\n880,1e-6\n", "fewer than two data rows"),
    ], ids=["empty", "one-data-row"])
    def test_too_short_spectrum_file_is_a_config_error(self, tmp_path, capsys, text, message):
        spectrum = tmp_path / "lamp.csv"
        spectrum.write_text(text)
        path = write_config(tmp_path, f"[noise]\nlamp_spectrum_file = {spectrum}\n[experiments]\nfov_steps = 2\n")
        out_dir = tmp_path / "out"
        assert main([str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: lamp_spectrum_file: {spectrum}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("distance", [math.nan, math.inf])
    def test_nan_or_inf_spectrum_distance_is_a_config_error(self, tmp_path, capsys, distance):
        # an INI file cannot spell one (its floats must be finite); a RunConfig can
        config = RunConfig(
            lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led_irradiance_50cm.csv")),
            lamp_spectrum_kind="irradiance",
            lamp_spectrum_distance_m=distance,
            output_dir=str(tmp_path / "out"),
        )
        assert validate(config) == [f"lamp_spectrum_distance_m = {distance!r}: distance_m must be positive and finite, got {distance!r}"]
        assert run(config) == EXIT_CONFIG_ERROR
        assert "distance_m must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("distance, message", [
        (0.0, "distance_m must be positive and finite, got 0.0"),
        (-1.0, "distance_m must be positive and finite, got -1.0"),
        (1e200, "4 pi d^2 E overflows at distance_m = 1e+200"),
        (1e-300, "4 pi d^2 E underflows at distance_m = 1e-300"),
    ], ids=["zero", "negative", "overflowing", "underflowing"])
    def test_zero_negative_or_overflowing_spectrum_distance_named(self, tmp_path, capsys, distance, message):
        path = write_config(
            tmp_path,
            f"[noise]\nlamp_spectrum_file = {IRRADIANCE_FILE}\nlamp_spectrum_kind = irradiance\n"
            f"lamp_spectrum_distance_m = {distance!r}\n[experiments]\nfov_steps = 2\n",
        )
        out_dir = tmp_path / "out"
        assert main([str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: lamp_spectrum_distance_m = {distance!r}: {message}\n"
        assert not out_dir.exists()

    def test_a_bad_spectrum_distance_and_a_bad_file_are_each_named_once(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            f"[noise]\nlamp_spectrum_file = {tmp_path / 'missing.csv'}\nlamp_spectrum_kind = irradiance\n"
            "lamp_spectrum_distance_m = -1\n[experiments]\nfov_steps = 2\n",
        )
        assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "config error: lamp_spectrum_distance_m = -1.0: distance_m must be positive and finite, got -1.0",
            f"config error: lamp_spectrum_file: [Errno 2] No such file or directory: '{tmp_path / 'missing.csv'}'",
        ]

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
