"""The package namespace, the library names the benchmark's tracer wraps,
and a library that leaves printing to the CLI."""

import ast
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
    "DetectorParams", "ChannelGains", "ConvergenceReport",
    "los_gain_for", "total_reflected_gain", "reflected_gain_convergence",
    "NoiseBudget", "matched_filter_bandwidth_nm", "isotropic_noise_power",
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
        assert len(EARLIER_EXPORTS) == 46
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


class TestOnlyTheCliPrints:
    """Results and diagnostics leave the library as values; only cli.py writes to the console."""

    @pytest.mark.parametrize(
        "path", sorted(p for p in Path(indoorqkd.__file__).parent.glob("*.py") if p.name != "cli.py"), ids=lambda p: p.name
    )
    def test_no_print_or_warnings_warn(self, path):
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id in ("print", "warn"))
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "warn"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "warnings")
            )
        ]
        assert calls == [], f"{path.name}: print or warnings.warn at lines {calls}"


def private_definitions(tree: ast.Module) -> list[str]:
    """The module's underscore names that are not dunders: module-level functions, classes and
    constants, and the methods of its classes."""
    nodes = [*tree.body, *(n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body if isinstance(n, ast.FunctionDef))]
    names = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:  # a name or a tuple of names; a subscript defines nothing
                names += [t.id for t in getattr(target, "elts", [target]) if isinstance(t, ast.Name)]
    return [name for name in dict.fromkeys(names) if name.startswith("_") and not name.endswith("__")]


class TestEveryPrivateNameIsRead:
    """Code that nothing in the library reads is gone, not kept alive by a test."""

    def test_each_private_name_in_src_is_read_in_src(self):
        trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(indoorqkd.__file__).parent.glob("*.py")}
        read = {
            node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        defined = [(module, name) for module, tree in sorted(trees.items()) for name in private_definitions(tree)]
        assert len(defined) > 50  # the walk finds the library's private names
        assert [f"{module}.{name}" for module, name in defined if name not in read] == []

    def test_each_name_a_src_module_imports_is_read_in_it(self):
        # No module re-exports an imported name through its __all__; __future__ imports set compiler flags.
        unread, imported_count = [], 0
        for path in sorted(Path(indoorqkd.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = [
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
                if alias.name != "*"
            ]
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}" for name in imported if name not in read]
            imported_count += len(imported)
        assert imported_count > 50  # the walk finds the library's imports
        assert unread == []
