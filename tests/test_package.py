"""The package namespace, and the library names the benchmark's tracer wraps."""

import importlib
from pathlib import Path

import pytest

import indoorqkd
from indoorqkd import channel, cli, experiments, geometry, keyrate, montecarlo, noise, spectra
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.geometry import wall_and_floor_grids

LAYERS = (geometry, spectra, channel, noise, keyrate, experiments)
# What the package exported when it kept its own copy of the list.
EARLIER_EXPORTS = [
    "__version__",
    "Point3", "Pose", "LinkGeometry", "SurfaceGrid", "RoomScenario", "DegenerateGeometryError",
    "link_geometry", "wall_and_floor_grids",
    "SpectralCurve", "OutOfBandError", "SpectrumFormatError", "SpectrumKindError",
    "density_at", "irradiance_to_psd", "load_spectrum_csv", "bundled_spectrum_path",
    "DetectorParams", "ChannelGains", "ConvergenceReport", "ReflectionConvergenceWarning",
    "los_gain_for", "total_reflected_gain", "reflected_gain_convergence",
    "NoiseBudget", "BLACKBODY_AMBIENT_W_NM_M2", "matched_filter_bandwidth_nm", "isotropic_noise_power",
    "photons_per_pulse", "lamp_noise_photons", "dark_counts_per_pulse",
    "ProtocolParams", "KeyRateReport", "binary_entropy", "secret_key_rate",
    "SCENARIOS", "AMBIENT_SCENARIOS", "LAMP_SCENARIOS", "NOMINAL", "Scenario", "Setup", "OperatingPoint",
    "build_setup", "evaluate_point", "sweep", "secure_fov_boundary", "ambient_tolerance", "path_loss_profile",
]


class TestPackageNamespace:
    def test_all_is_the_version_and_each_layers_all_once(self):
        assert indoorqkd.__all__ == ["__version__", *(name for layer in LAYERS for name in layer.__all__)]
        assert len(set(indoorqkd.__all__)) == len(indoorqkd.__all__)

    def test_each_name_is_its_layers_own_object(self):
        for layer in LAYERS:
            for name in layer.__all__:
                assert getattr(indoorqkd, name) is getattr(layer, name), (layer.__name__, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from indoorqkd import *", namespace)
        assert set(indoorqkd.__all__) <= namespace.keys()

    def test_earlier_exports_still_exported(self):
        assert len(EARLIER_EXPORTS) == 48
        assert set(EARLIER_EXPORTS) <= set(indoorqkd.__all__)

    def test_oracle_and_cli_names_stay_in_their_modules(self):
        for module in (montecarlo, cli):
            for name in module.__all__:
                assert name not in indoorqkd.__all__ and not hasattr(indoorqkd, name), (module.__name__, name)


@pytest.fixture
def tracing(monkeypatch):
    """perfbench's tracer module, imported as perfbench's own tests import it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing")


class TestBenchmarkHooks:
    """The tracer stops a traced benchmark run when a name it wraps is gone;
    these fail first, on the library's side."""

    def test_every_wrapped_name_is_callable(self, tracing):
        for module_name, attr, _ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"

    def test_grid_counter_reads_the_grids(self, tracing):
        room = build_setup(Scenario.named("lamp-center"), 30.0, 1e-5).room
        count = tracing.COUNTERS["geometry.grids"]((room, 1), {}, wall_and_floor_grids(room, 1))
        assert count == 4 * 4 + 4 * (4 * 3)  # the floor and four walls of the 4 x 4 x 3 m room at 1/m
