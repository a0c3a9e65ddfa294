"""Span tracing from outside the library.

The tracer replaces public functions with timing wrappers in the module
namespace where their callers look them up (``indoorqkd.experiments``
calls ``total_reflected_gain`` through its own globals, so that is the name
that gets wrapped), keeps spans in memory, and puts every original back on
``uninstall``.  Per-layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path
from typing import Callable

import numpy as np

from workloads import LAMP_SCENARIOS

# (module, attribute, span name).  The attribute is looked up by the code
# named in the comment, so wrapping it there sees every such call.
TARGETS = (
    # cli.run and its helpers
    ("indoorqkd.cli", "sweep", "experiments.sweep"),
    ("indoorqkd.cli", "secure_fov_boundary", "experiments.boundary"),
    ("indoorqkd.cli", "ambient_tolerance", "experiments.tolerance"),
    ("indoorqkd.cli", "build_setup", "experiments.build_setup"),
    ("indoorqkd.cli", "reflected_gain_convergence", "channel.convergence"),
    ("indoorqkd.cli", "load_spectrum_csv", "spectra.load"),
    ("indoorqkd.cli", "density_at", "spectra.density"),
    ("indoorqkd.cli", "irradiance_to_psd", "spectra.convert"),
    # sweep, boundary and tolerance searches, evaluate_point
    ("indoorqkd.experiments", "evaluate_point", "experiments.point"),
    ("indoorqkd.experiments", "build_setup", "experiments.build_setup"),
    ("indoorqkd.experiments", "los_gain_for", "channel.los"),
    ("indoorqkd.experiments", "total_reflected_gain", "channel.reflected"),
    ("indoorqkd.experiments", "matched_filter_bandwidth_nm", "noise.bandwidth"),
    ("indoorqkd.experiments", "isotropic_noise_power", "noise.ambient"),
    ("indoorqkd.experiments", "photons_per_pulse", "noise.photons"),
    ("indoorqkd.experiments", "lamp_noise_photons", "noise.lamp"),
    ("indoorqkd.experiments", "dark_counts_per_pulse", "noise.dark"),
    ("indoorqkd.experiments", "secret_key_rate", "keyrate.rate"),
    # the channel module itself, and callers of indoorqkd.channel.* (the benchmark)
    ("indoorqkd.channel", "total_reflected_gain", "channel.reflected"),
    ("indoorqkd.channel", "link_geometry", "geometry.link"),
    ("indoorqkd.channel", "wall_and_floor_grids", "geometry.grids"),
    ("indoorqkd.montecarlo", "estimate_reflected_gain", "montecarlo.estimate"),
)


def _integral_requested(args: tuple, kwargs: dict, result) -> int:
    # evaluate_point(scenario, fov_deg, source_level, ...) needs the bounce
    # integral whenever a lamp scenario has the lamp on.
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
    if getattr(scenario, "name", None) not in LAMP_SCENARIOS:
        return 0
    level = kwargs["source_level"] if "source_level" in kwargs else args[2]
    return int(np.count_nonzero(np.asarray(level) > 0.0))


# Work counted from a call's inputs or result, per span name.  Counting
# elementwise keeps working if a function starts taking or returning arrays.
COUNTERS: dict[str, Callable[[tuple, dict, object], int]] = {
    "geometry.grids": lambda a, k, r: sum(g.n_u * g.n_v for g in r),
    "keyrate.rate": lambda a, k, r: int(np.count_nonzero(r.degenerate)),
    "montecarlo.estimate": lambda a, k, r: int(r.samples),
    "experiments.point": _integral_requested,
}


_COLUMNS = {
    "name": np.int16, "start": np.float64, "end": np.float64,
    "parent": np.int64, "op": np.int64, "count": np.int64,
}


class TracerError(RuntimeError):
    """Tracing no longer fits the library, or a wrapper survived uninstall.

    The library raises only ValueError and TypeError subclasses, so this
    passes through it and stops the run instead of failing one op.
    """


class Tracer:
    """Records spans (name, start, end, parent, op id, count) in memory.

    While an op runs its spans are small lists; when it ends they are packed
    into numpy columns, since an ambient map alone makes about 10^5 spans.
    ``parent`` is the index of the enclosing span, -1 for an op's root.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._current: list[list] = []
        self._stack: list[int] = []
        self._chunks: list[dict[str, np.ndarray]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        """Trace one op: wrappers installed, a root span open, all removed after."""
        self.install()
        root = [self._code(name), time.perf_counter(), 0.0, -1, 0]
        self._stack.append(0)
        self._current.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.clear()
            self.uninstall()
            self._pack(op_id)
        leftover = wrapped_targets()
        if leftover:
            raise TracerError(f"tracing wrappers left installed: {leftover}")

    def _pack(self, op_id: int) -> None:
        rows = np.array(self._current, dtype=np.float64)
        self._current.clear()
        base = sum(len(c["name"]) for c in self._chunks)
        parent = rows[:, 3].astype(np.int64)
        columns = {
            "name": rows[:, 0],
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": np.where(parent >= 0, parent + base, -1),
            "op": np.full(len(rows), op_id),
            "count": rows[:, 4],
        }
        self._chunks.append({k: v.astype(_COLUMNS[k]) for k, v in columns.items()})

    def spans(self) -> dict[str, np.ndarray]:
        if not self._chunks:
            return {k: np.zeros(0, dtype) for k, dtype in _COLUMNS.items()}
        return {k: np.concatenate([c[k] for c in self._chunks]) for k in _COLUMNS}

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        code = self._code(name)
        spans, stack, clock = self._current, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [code, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except Exception as exc:
                    raise TracerError(f"counter of {name} no longer fits {fn.__qualname__}: {exc!r}") from exc
            return result

        traced.perfbench_span = name
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise TracerError(f"wrap target {module_name}.{attr} is gone")
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        """Spans as compressed numpy columns; ``names`` decodes the name codes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def wrapped_targets() -> list[str]:
    """Targets whose current attribute is a tracing wrapper (should be none)."""
    found = []
    for module_name, attr, _ in TARGETS:
        value = getattr(importlib.import_module(module_name), attr, None)
        if hasattr(value, "perfbench_span"):
            found.append(f"{module_name}.{attr}")
    return found


def layer_metrics(tracer: Tracer, ops: int, spectrum_ops: int, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced op unless the unit says otherwise."""
    spans = tracer.spans()
    name, parent, counts = spans["name"], spans["parent"], spans["count"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
    self_time = duration - child_time

    def codes(*wanted: str) -> list[int]:
        return [tracer.names.index(w) for w in wanted if w in tracer.names]

    def pick(*wanted: str, parent: str | None = None) -> np.ndarray:
        mask = np.isin(name, codes(*wanted))
        if parent is not None:
            mask &= np.isin(parent_name, codes(parent))
        return mask

    def busy(*wanted: str) -> float:
        # Outermost spans only, so a layer calling itself is not counted twice.
        return float(duration[pick(*wanted) & ~np.isin(parent_name, codes(*wanted))].sum())

    def count(*wanted: str, parent: str | None = None) -> int:
        return int(pick(*wanted, parent=parent).sum())

    def counted(wanted: str) -> int:
        return int(counts[pick(wanted)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    noise = ("noise.bandwidth", "noise.ambient", "noise.photons", "noise.lamp", "noise.dark")
    spectra = ("spectra.load", "spectra.density", "spectra.convert")
    points = count("experiments.point")
    reflected_busy = busy("channel.reflected")
    keyrate_busy = busy("keyrate.rate")
    mc_busy = busy("montecarlo.estimate")
    requests = counted("experiments.point")
    misses = count("channel.reflected", parent="experiments.point")
    per_op = {
        "geometry.cells": (counted("geometry.grids"), "count/op"),
        "geometry.link_calls": (count("geometry.link"), "count/op"),
        "spectra.busy_s": (busy(*spectra), "s/op"),
        "channel.reflected_calls": (count("channel.reflected"), "count/op"),
        "channel.reflected_busy_s": (reflected_busy, "s/op"),
        "channel.integral_requests": (requests, "count/op"),
        "channel.convergence_busy_s": (busy("channel.convergence"), "s/op"),
        "channel.los_calls": (count("channel.los"), "count/op"),
        "channel.los_busy_s": (busy("channel.los"), "s/op"),
        "noise.calls": (count(*noise), "count/op"),
        "noise.busy_s": (busy(*noise), "s/op"),
        "keyrate.calls": (count("keyrate.rate"), "count/op"),
        "keyrate.busy_s": (keyrate_busy, "s/op"),
        "keyrate.degenerate": (counted("keyrate.rate"), "count/op"),
        "montecarlo.rays": (counted("montecarlo.estimate"), "count/op"),
        "montecarlo.busy_s": (mc_busy, "s/op"),
        "experiments.points": (points, "count/op"),
        "experiments.build_setup_busy_s": (busy("experiments.build_setup"), "s/op"),
        "experiments.sweep_busy_s": (busy("experiments.sweep"), "s/op"),
        "experiments.boundary_busy_s": (busy("experiments.boundary"), "s/op"),
        "experiments.boundary_probes": (count("experiments.point", parent="experiments.boundary"), "count/op"),
        "experiments.tolerance_busy_s": (busy("experiments.tolerance"), "s/op"),
        "experiments.tolerance_probes": (count("experiments.point", parent="experiments.tolerance"), "count/op"),
        "cli.self_s": (float(self_time[pick("cli.main")].sum()), "s/op"),
        "cli.bytes_written": (bytes_written, "B/op"),
    }
    metrics = {key: (ratio(value, ops), unit) for key, (value, unit) in per_op.items()}
    metrics.update({
        "spectra.loads": (ratio(count("spectra.load"), spectrum_ops), "count/spec_op"),
        "channel.reflected_ms_per_call": (1e3 * ratio(reflected_busy, count("channel.reflected")), "ms"),
        "channel.integral_reuse_ratio": (ratio(requests - misses, requests), "ratio"),
        "keyrate.us_per_call": (1e6 * ratio(keyrate_busy, count("keyrate.rate")), "us"),
        "montecarlo.rays_per_s": (ratio(counted("montecarlo.estimate"), mc_busy), "1/s"),
        "experiments.point_self_us": (1e6 * ratio(float(self_time[pick("experiments.point")].sum()), points), "us"),
    })
    return metrics
