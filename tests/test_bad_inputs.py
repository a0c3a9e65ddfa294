"""Every bad value a caller can pass ends in a result or in a ValueError, never in another exception.

Each numeric argument of the public functions and dataclasses of geometry, channel, noise, keyrate,
experiments, spectra and montecarlo takes each value of ``BAD``, every other input valid.  So does
each ``RunConfig`` field, and each ``NOMINAL`` key as an override (with no spectrum file and with each bundled
one), through ``validate``, which must return its diagnostics.
"""

import math
from dataclasses import fields, replace

import pytest

from indoorqkd.channel import ChannelGains, DetectorParams, los_gain_for, reflected_gain_convergence, total_reflected_gain
from indoorqkd.cli import EXIT_CONFIG_ERROR, RunConfig, run, validate
from indoorqkd.experiments import (
    NOMINAL,
    Scenario,
    ambient_tolerance,
    build_setup,
    evaluate_point,
    path_loss_profile,
    secure_fov_boundary,
    sweep,
)
from indoorqkd.geometry import Point3, Pose, RoomScenario, concentrator_gain, lambert_mode, wall_and_floor_grids
from indoorqkd.keyrate import ProtocolParams, binary_entropy, secret_key_rate
from indoorqkd.montecarlo import estimate_reflected_gain
from indoorqkd.noise import NoiseBudget, isotropic_noise_power, lamp_noise_photons, photons_per_pulse
from indoorqkd.spectra import SpectralCurve, bundled_spectrum_path, density_at, irradiance_to_psd

BAD = {
    "text": "10", "none": None, "complex": 1 + 1j, "dict": {}, "ragged": [10.0, [20.0]],
    "huge": 10**400, "past-text-limit": -(10**5000), "nan": math.nan,
}
# An int of any size passes the count rule of a patch density, and a count that large
# exhausts memory, so that count skips the huge ints.  The rule order and the sampler's
# ray count have most values, so they take them.
HUGE = ("huge", "past-text-limit")

_LAMP = Scenario.named("lamp-center")
_SETUP = build_setup(_LAMP, 10.0, 1e-5)
_ROOM, _DETECTOR = _SETUP.room, _SETUP.detector
_CURVE = SpectralCurve((800.0, 900.0), (1.0, 2.0), "irradiance")
_DETECTOR_ARGS = {f.name: getattr(_DETECTOR, f.name) for f in fields(DetectorParams)}
_GAINS = dict(line_of_sight=1e-3, transmittance=1e-3, reflected_integral=1e-3)
_BUDGET = dict(ambient=1e-6, lamp_bounce=1e-6, dark=1e-7)
_PROTOCOL = dict(mean_photons_per_pulse=0.5, sift_factor=1.0, error_correction_inefficiency=1.16, misalignment_error=0.0)


def _set(record, name):
    """A call that builds ``record`` with ``name`` set to its argument."""
    return lambda v: record(**{name: v})


# Each numeric argument: a call with it set to the given value and every other input valid.
ARGUMENTS = {
    **{f"Point3.{axis}": _set(lambda **k: Point3(**{"x": 1.0, "y": 1.0, "z": 1.0, **k}), axis) for axis in "xyz"},
    **{f"RoomScenario.{f.name}": _set(lambda **k: replace(_ROOM, **k), f.name) for f in fields(RoomScenario) if f.type == "float"},
    **{f"Pose.axis.{axis}": _set(lambda **k: Pose(Point3(1.0, 1.0, 1.0), Point3(**{"x": 0.0, "y": 0.0, "z": 1.0, **k})), axis) for axis in "xyz"},
    **{
        f"RoomScenario.{pose}.position.{axis}": (
            lambda v, pose=pose, axis=axis: replace(_ROOM, **{pose: Pose(replace(getattr(_ROOM, pose).position, **{axis: v}), getattr(_ROOM, pose).axis)})
        )
        for pose in ("lamp", "transmitter", "receiver") for axis in "xyz"
    },
    "concentrator_gain.index": lambda v: concentrator_gain(v, 10.0),
    "concentrator_gain.fov_deg": lambda v: concentrator_gain(1.5, v),
    "lambert_mode.semi_angle_deg": lambert_mode,
    "wall_and_floor_grids.patches_per_meter": lambda v: wall_and_floor_grids(_ROOM, v),
    **{f"DetectorParams.{name}": _set(lambda **k: DetectorParams(**{**_DETECTOR_ARGS, **k}), name) for name in _DETECTOR_ARGS},
    **{f"ChannelGains.{name}": _set(lambda **k: ChannelGains(**{**_GAINS, **k}), name) for name in _GAINS},
    "los_gain_for.fov_deg": lambda v: los_gain_for(_ROOM, fov_deg=v),
    "total_reflected_gain.order": lambda v: total_reflected_gain(_ROOM, v),
    "total_reflected_gain.fov_deg": lambda v: total_reflected_gain(_ROOM, fov_deg=v),
    "reflected_gain_convergence.order": lambda v: reflected_gain_convergence(_ROOM, v),
    **{f"NoiseBudget.{name}": _set(lambda **k: NoiseBudget(**{**_BUDGET, **k}), name) for name in _BUDGET},
    "isotropic_noise_power.ambient_irradiance_w_nm_m2": lambda v: isotropic_noise_power(v, _ROOM),
    "photons_per_pulse.power_w": lambda v: photons_per_pulse(v, _DETECTOR),
    "lamp_noise_photons.lamp_psd_w_per_nm": lambda v: lamp_noise_photons(v, _ROOM, _DETECTOR, 1e-3),
    "lamp_noise_photons.reflected_integral": lambda v: lamp_noise_photons(1e-5, _ROOM, _DETECTOR, v),
    **{f"ProtocolParams.{name}": _set(lambda **k: ProtocolParams(**{**_PROTOCOL, **k}), name) for name in _PROTOCOL},
    "binary_entropy.x": binary_entropy,
    "secret_key_rate.transmittance": lambda v: secret_key_rate(_SETUP.protocol, v, 1e-6),
    "secret_key_rate.noise": lambda v: secret_key_rate(_SETUP.protocol, 1e-3, v),
    **{f"Scenario.overrides.{key}": (lambda v, key=key: build_setup(Scenario.named("lamp-center", {key: v}), 10.0, 1e-5)) for key in NOMINAL},
    "build_setup.fov_deg": lambda v: build_setup(_LAMP, v, 1e-5),
    "build_setup.source_level": lambda v: build_setup(_LAMP, 10.0, v),
    "evaluate_point.fov_deg": lambda v: evaluate_point(_LAMP, v, 1e-5),
    "evaluate_point.source_level": lambda v: evaluate_point(_LAMP, 10.0, v),
    "evaluate_point.order": lambda v: evaluate_point(_LAMP, 10.0, 1e-5, order=v),
    "sweep.fov_values_deg": lambda v: sweep(_LAMP, v, (1e-5,)),
    "sweep.source_values": lambda v: sweep(_LAMP, (10.0,), v),
    "sweep.order": lambda v: sweep(_LAMP, (10.0,), (1e-5,), order=v),
    "secure_fov_boundary.source_level": lambda v: secure_fov_boundary(_LAMP, v),
    "secure_fov_boundary.order": lambda v: secure_fov_boundary(_LAMP, 1e-5, order=v),
    "secure_fov_boundary.fov_max_deg": lambda v: secure_fov_boundary(_LAMP, 1e-5, fov_max_deg=v),
    "secure_fov_boundary.known": lambda v: secure_fov_boundary(_LAMP, 1e-5, known=v),
    "ambient_tolerance.fov_floor_deg": lambda v: ambient_tolerance(Scenario.named("ambient-only-center"), fov_floor_deg=v),
    "ambient_tolerance.known": lambda v: ambient_tolerance(Scenario.named("ambient-only-center"), known=v),
    "path_loss_profile.tx_semi_angle_deg": lambda v: path_loss_profile(Point3(2.0, 2.0, 0.0), v, (10.0, 20.0)),
    "path_loss_profile.fov_values_deg": lambda v: path_loss_profile(Point3(2.0, 2.0, 0.0), 60.0, v),
    "SpectralCurve.wavelengths_nm": lambda v: SpectralCurve(v, (1.0, 2.0), "source-psd"),
    "SpectralCurve.values": lambda v: SpectralCurve((800.0, 900.0), v, "source-psd"),
    "density_at.wavelength_nm": lambda v: density_at(_CURVE, v),
    "irradiance_to_psd.distance_m": lambda v: irradiance_to_psd(_CURVE, v),
    "estimate_reflected_gain.samples": lambda v: estimate_reflected_gain(_ROOM, v),
    "estimate_reflected_gain.seed": lambda v: estimate_reflected_gain(_ROOM, 100, seed=v),
}
COUNTS = {"wall_and_floor_grids.patches_per_meter"}


def escapes(call, values):
    """The values, by label, for which ``call`` raises anything but a ValueError, with what it raised."""
    found = {}
    for label in values:
        try:
            call(BAD[label])
        except ValueError:
            pass
        except Exception as exc:  # any other exception is what this test looks for
            found[label] = f"{type(exc).__name__}: {exc}"[:200]
    return found


@pytest.mark.parametrize("argument", list(ARGUMENTS))
def test_each_bad_value_is_a_result_or_a_value_error(argument):
    values = [label for label in BAD if not (argument in COUNTS and label in HUGE)]
    assert escapes(ARGUMENTS[argument], values) == {}


# overrides takes each NOMINAL key below
_RUN_FIELDS = [f.name for f in fields(RunConfig) if f.name != "overrides"]


def _validated(config):
    diagnostics = validate(config)
    assert isinstance(diagnostics, list) and all(isinstance(line, str) for line in diagnostics)
    return diagnostics


@pytest.mark.parametrize("field", _RUN_FIELDS)
def test_validate_returns_diagnostics_for_each_bad_field(field):
    assert escapes(lambda v: _validated(RunConfig(**{field: v})), BAD) == {}
    for label, value in BAD.items():
        if not (field == "output_dir" and label == "text"):  # "10" names a directory
            assert any(line.startswith(field) or "axis:" in line for line in _validated(RunConfig(**{field: value}))), label


_IRRADIANCE_FILE = str(bundled_spectrum_path("cool_white_led_irradiance_50cm.csv"))
# No spectrum file, then each bundled spectrum in a scenario that reads its level at the run's wavelength.
SPECTRA = {
    "none": {},
    "psd-in-a-lamp-run": dict(scenario="lamp-center", lamp_spectrum_file=str(bundled_spectrum_path("cool_white_led.csv"))),
    "irradiance-in-a-lamp-run": dict(
        scenario="lamp-center", lamp_spectrum_file=_IRRADIANCE_FILE, lamp_spectrum_kind="irradiance", lamp_spectrum_distance_m=0.5,
    ),
    "irradiance-in-an-ambient-run": dict(scenario="ambient-only-center", lamp_spectrum_file=_IRRADIANCE_FILE, lamp_spectrum_kind="irradiance"),
}


@pytest.mark.parametrize("key", list(NOMINAL))
def test_validate_returns_diagnostics_for_each_bad_override(key):
    for spectrum, run_fields in SPECTRA.items():
        assert escapes(lambda v: _validated(RunConfig(**run_fields, overrides={key: v})), BAD) == {}, spectrum
        for label, value in BAD.items():
            if not (value is None and NOMINAL[key] is None):  # None is the key's own default
                assert any(line.startswith(f"{key} = ") for line in _validated(RunConfig(**run_fields, overrides={key: value}))), (spectrum, label)


@pytest.mark.parametrize("spectrum", [name for name in SPECTRA if name != "none"])
def test_a_wavelength_that_is_no_number_beside_a_spectrum_is_named_once(spectrum):
    # the wavelength's own rule names it; the spectrum is read only at a checked wavelength
    assert validate(RunConfig(**SPECTRA[spectrum], overrides={"wavelength_nm": "abc"})) == [
        "wavelength_nm = 'abc': override wavelength_nm must be a number, got 'abc'"
    ]


# Inputs that ended in another exception, or in numpy's unnamed one, each with the argument its ValueError names
# (the huge ints of lambert_mode, concentrator_gain and DetectorParams are in test_geometry, the seed in test_montecarlo).
NAMED = {
    "RoomScenario-huge-index": (lambda: replace(_ROOM, concentrator_index=10**400), "concentrator_index"),
    "secure_fov_boundary-huge-fov-max": (lambda: secure_fov_boundary(_LAMP, 1e-5, fov_max_deg=10**400), "fov_max_deg"),
    "concentrator_gain-ragged-fov": (lambda: concentrator_gain(1.5, [10.0, [20.0]]), "fov_deg"),
    "evaluate_point-ragged-fov": (lambda: evaluate_point(_LAMP, [10.0, [20.0]], 1e-6), "fov_deg"),
    "sweep-ragged-fov": (lambda: sweep(_LAMP, [10.0, [20.0]], (1e-6,)), "fov_deg"),
    "SpectralCurve-text-wavelengths": (lambda: SpectralCurve(("800", "900"), (1.0, 2.0), "source-psd"), "wavelengths_nm"),
    "SpectralCurve-text-values": (lambda: SpectralCurve((800.0, 900.0), ("1", "2"), "source-psd"), "values"),
    "density_at-text": (lambda: density_at(_CURVE, "850"), "wavelength_nm"),
}


@pytest.mark.parametrize("case", list(NAMED))
def test_each_mended_input_names_its_argument(case):
    call, argument = NAMED[case]
    with pytest.raises(ValueError, match=f"^{argument} must "):
        call()


_BITS = (10**5000).bit_length()


@pytest.mark.parametrize("config, expected", [
    (RunConfig(overrides={"room_x_m": 10**5000}),
     [f"room_x_m = an int of {_BITS} bits: override room_x_m must lie in the float range, got an int of {_BITS} bits"]),
    (RunConfig(resolution_patches_per_meter=10**5000),
     [f"resolution_patches_per_meter = an int of {_BITS} bits: resolution_patches_per_meter must be an integer <= 500, got an int of {_BITS} bits"]),
    (RunConfig(scenario=-(10**5000)), [f"scenario = an int of {_BITS} bits: unknown scenario an int of {_BITS} bits; choose one of "]),
    (RunConfig(fov_steps=10**5000), [f"fov axis: steps must be an integer <= 2,500,000, got an int of {_BITS} bits"]),
    (RunConfig(source_steps=[10**5000]), ["source axis: steps must be an integer >= 1, got a list holding an int too long to print"]),
    (RunConfig(lamp_spectrum_file=1 + 1j), ["lamp_spectrum_file = (1+1j): must be a file path, as text"]),
    (RunConfig(lamp_spectrum_file=0), ["lamp_spectrum_file = 0: must be a file path, as text"]),
    (RunConfig(output_dir=1 + 1j), ["output_dir = (1+1j): must be a directory path"]),
    (RunConfig(strict="false"), ["strict = 'false': must be True or False"]),
], ids=[
    "override", "resolution", "scenario", "fov-steps", "steps-in-a-list", "complex-spectrum-file", "int-spectrum-file",
    "complex-output-dir", "text-strict",
])
def test_a_value_past_the_text_limit_or_not_a_path_is_a_diagnostic(config, expected, tmp_path, monkeypatch):
    diagnostics = validate(config)
    assert len(diagnostics) == len(expected)
    for line, start in zip(diagnostics, expected):
        assert line.startswith(start)
    monkeypatch.chdir(tmp_path)  # where a relative output_dir would be made
    assert run(config) == EXIT_CONFIG_ERROR and not any(tmp_path.iterdir())
