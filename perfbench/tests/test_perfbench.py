"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

QKD = run.load_package()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    generate = workloads.GENERATORS[workload]
    first = [generate(7, i) for i in range(-1, 40)]
    assert first == [generate(7, i) for i in range(-1, 40)]
    other = [generate(8, i) for i in range(-1, 40)]
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_no_two_ops_share_a_room(workload):
    generate = workloads.GENERATORS[workload]
    # Indices below -1 are the cold starts' small ops.
    ops = [generate(3, i) for i in range(-1 - run.COLD_STARTS, 400)]
    rooms = [dataclasses.astuple(op.room) for op in ops]
    assert len(set(rooms)) == len(rooms)


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.TARGETS
    }


def test_wrappers_are_removed_after_traced_ops():
    before = _originals()
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner(QKD, "lamp-map", 5, Path(tmp))
        tracer = tracing.Tracer()
        result = runner.op(0, tracer)
        assert not result.problems
        with pytest.raises(ZeroDivisionError):
            with tracer.op(1, "cli.main"):
                assert tracing.wrapped_targets()
                1 / 0
    assert all(before[k] is v for k, v in _originals().items())
    assert tracing.wrapped_targets() == []
    names = {tracer.names[code] for code in tracer.spans()["name"]}
    assert {"cli.main", "experiments.sweep", "channel.reflected", "keyrate.rate"} <= names


def test_tracer_stops_when_a_target_is_gone(monkeypatch):
    before = _originals()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("indoorqkd.cli", "no_such_function", "x"),))
    with pytest.raises(tracing.TracerError, match="no_such_function"):
        tracing.Tracer().install()
    monkeypatch.undo()
    assert all(before[k] is v for k, v in _originals().items())


def test_tracer_stops_when_a_counter_no_longer_fits(monkeypatch):
    def broken(args, kwargs, result):
        return result.no_such_field

    monkeypatch.setitem(tracing.COUNTERS, "keyrate.rate", broken)
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner(QKD, "ambient-map", 5, Path(tmp))
        with pytest.raises(tracing.TracerError, match="keyrate.rate"):
            runner.run(workloads.small_op("ambient-map", 5, 0), tracing.Tracer())
    assert tracing.wrapped_targets() == []


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_run_holds_the_same_mix_of_op_kinds(workload):
    cycle = workloads.CYCLE_OPS[workload]
    for seconds in (0, 10, 30, 60):
        count = run.op_count(workload, seconds)
        assert count % cycle == 0 and count >= max(run.MIN_TIMED_OPS, 2 * cycle)

    def mix(seed, start):
        ops = [workloads.GENERATORS[workload](seed, i) for i in range(start, start + cycle)]
        kinds = sorted(repr((getattr(op, "scenario", None), getattr(op, "resolution", None),
                             getattr(op, "floor_only", None))) for op in ops)
        return kinds, sum(getattr(op, "spectrum", None) is not None for op in ops)

    assert all(mix(seed, start) == mix(1, 0) for seed in (1, 2) for start in range(0, 6 * cycle, cycle))


def test_op_time_is_cpu_time_over_the_host_slowdown_around_it(monkeypatch):
    slowdowns = iter([1.5, 2.5, 3.0])
    monkeypatch.setattr(run.hostspeed.Reference, "slowdown", lambda self: next(slowdowns))
    monkeypatch.setattr(run, "run_mc_op", lambda qkd, spec, work_dir, tracer: run.OpResult(4.0, 5.0, 1, 0, []))
    runner = run.Runner(QKD, "mc-oracle", 1, Path("."))
    first, second = runner.op(0), runner.op(1)
    assert (first.cpu_s, first.slowdown, first.seconds) == (4.0, 2.0, 2.0)
    assert (second.slowdown, second.seconds) == (2.75, 4.0 / 2.75)


def test_reference_refuses_unknown_parts():
    with pytest.raises(ValueError):
        run.hostspeed.Reference(("interpreter", "disk"))
    assert all(run.hostspeed.Reference(parts).slowdown() > 0.0 for parts in set(run.REFERENCE_PARTS.values()))


def _traced_counts(seed: int) -> dict[str, float]:
    # A fresh process each time: within one process the library's own
    # integral cache would serve the repeated rooms.
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lamp-map", "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {
        k: m["value"] for k, m in metrics.items()
        if m["unit"].startswith("count") or k == "channel.integral_reuse_ratio"
    }


def test_traced_counts_repeat_on_one_seed():
    first = _traced_counts(9)
    assert first["channel.integral_requests"] > 0
    assert 0.0 < first["channel.integral_reuse_ratio"] < 1.0
    assert first["experiments.boundary_probes"] > 0
    assert first == _traced_counts(9)


@pytest.fixture(scope="module")
def map_output(tmp_path_factory):
    """A real small lamp map and a real small ambient map."""
    out = {}
    for workload in ("lamp-map", "ambient-map"):
        op = next(o for o in map(lambda i: workloads.GENERATORS[workload](4, i), range(12)) if o.spectrum is None)
        op = dataclasses.replace(op, fov_steps=6, source_steps=5)
        work = tmp_path_factory.mktemp(workload)
        (work / "run.ini").write_text(op.ini())
        assert QKD.cli.main([str(work / "run.ini"), "--out", str(work / "out")]) == 0
        out[workload] = (op, work / "out")
    return out


def _check(op, out_dir):
    ambient = op.scenario in workloads.AMBIENT_SCENARIOS
    return checks.check_map_output(out_dir, ambient, op.fov_steps, op.source_steps)


def _corrupt(out_dir: Path, edit) -> Path:
    copy = Path(tempfile.mkdtemp(dir=out_dir.parent))
    for name in ("sweep.csv", "summary.txt"):
        shutil.copy(out_dir / name, copy / name)
    lines = (copy / "sweep.csv").read_text().splitlines()
    (copy / "sweep.csv").write_text("\n".join(edit(lines)) + "\n")
    return copy


def _set_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return lines


def _secure_row(lines):
    return next(i for i, line in enumerate(lines) if line.endswith("true"))


CORRUPTIONS = {
    "header": lambda lines: [lines[0].replace("fov_deg", "fov")] + lines[1:],
    "missing row": lambda lines: lines[:-1],
    "nan": lambda lines: _set_cell(lines, 3, 2, "nan"),
    "flag": lambda lines: _set_cell(lines, _secure_row(lines), -1, "false"),
    "rate rises": lambda lines: _set_cell(lines, len(lines) - 1, -2, "1.0e-02"),
    "not a number": lambda lines: _set_cell(lines, 2, 4, "x"),
}


@pytest.mark.parametrize("workload", ["lamp-map", "ambient-map"])
def test_checks_accept_real_output(map_output, workload):
    op, out_dir = map_output[workload]
    points, problems = _check(op, out_dir)
    assert problems == []
    assert points == op.fov_steps * op.source_steps


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("workload", ["lamp-map", "ambient-map"])
def test_checks_reject_corrupted_sweep(map_output, workload, corruption):
    op, out_dir = map_output[workload]
    _, problems = _check(op, _corrupt(out_dir, CORRUPTIONS[corruption]))
    assert problems


def _edit_summary(out_dir: Path, pattern: str, replace) -> Path:
    copy = _corrupt(out_dir, lambda lines: lines)
    summary = (copy / "summary.txt").read_text()
    edited = re.sub(pattern, replace, summary)
    assert edited != summary
    (copy / "summary.txt").write_text(edited)
    return copy


def test_checks_reject_boundary_off_the_grid_frontier(map_output):
    op, out_dir = map_output["lamp-map"]
    # Move the refined boundary to the other end of the FOV axis.
    moved = _edit_summary(
        out_dir, r"(boundary at \S+ W/nm: )(\S+) deg",
        lambda m: m.group(1) + ("1.0" if float(m.group(2)) > 16.0 else "29.0") + " deg",
    )
    assert _check(op, moved)[1]
    assert _check(op, _edit_summary(out_dir, r"refined secure-FOV boundary", "boundary"))[1]


def test_checks_reject_tolerance_off_the_grid_frontier(map_output):
    op, out_dir = map_output["ambient-map"]
    for factor in (10.0, 0.1):
        moved = _edit_summary(
            out_dir, r"(largest secure level\): )(\S+)",
            lambda m: m.group(1) + f"{float(m.group(2)) * factor:.9e}",
        )
        assert _check(op, moved)[1]


def test_closed_form_matches_fine_patch_sum():
    op = next(o for o in map(lambda i: workloads.mc_oracle_op(2, i), range(10)) if o.floor_only)
    overrides = {k: v for k, v in op.room.overrides().items() if v is not None}
    room = QKD.experiments.build_setup(QKD.experiments.Scenario.named("lamp-center", overrides), op.fov_deg, 1e-5).room
    patch = QKD.channel.total_reflected_gain(room, workloads.MC_PATCHES_PER_METER)
    assert abs(patch / checks.floor_cone_closed_form(room) - 1.0) < checks.CLOSED_FORM_RTOL


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lamp-map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
