#!/usr/bin/env python3
"""Feasibility-map benchmark for indoorqkd.

    python3 perfbench/run.py --workload lamp-map --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One in-process client sends
one op at a time and waits for it (a closed loop), as a user waits for a
map.  Every op's output is checked.  The last line of standard output is
the result JSON; the line before it records the machine and the run.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` traces every
second cycle of ops and reports per-layer metrics plus the tracing
overhead.  Either runs a fixed number of whole cycles (see workloads.py),
chosen from ``--seconds`` so that the run lasts about that long on a
2-core x86 box; the op count, and so the mix of op kinds, never depends
on how fast the host or the library is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
MIN_TIMED_OPS = TAIL_BEYOND + 1
WALL_LIMIT_S = 150.0
# Seconds of op time one cycle (workloads.CYCLE_OPS) takes on a
# 2-core x86 box; used only to turn --seconds into a whole number of cycles.
CYCLE_SECONDS = {"lamp-map": 15.0, "ambient-map": 2.0, "mc-oracle": 2.2}
# Reference work of the kind of each workload's op (see hostspeed.py).  Cold
# starts use the array part: CPU time spent importing follows the host's
# slow phases about as little as whole-array passes do (both are bound by
# memory and the kernel more than by the interpreter).
REFERENCE_PARTS = {
    "lamp-map": ("interpreter", "array"),
    "ambient-map": ("interpreter",),
    "mc-oracle": ("array",),
}
SETUP_REFERENCE_PARTS = ("array",)
COLD_STARTS = 5
MODULES = ("indoorqkd", "indoorqkd.cli", "indoorqkd.montecarlo")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    if not (SRC / "indoorqkd" / "__init__.py").is_file():
        raise BenchError(f"no indoorqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        importlib.import_module(name)
    qkd = sys.modules["indoorqkd"]
    if not Path(qkd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"indoorqkd imported from {qkd.__file__}, not from {SRC}")
    return qkd


@dataclass
class OpResult:
    seconds: float  # CPU time of the process during the op; Runner scales it to full host speed
    wall_s: float
    points: int
    bytes_written: int
    problems: list[str]
    cpu_s: float = math.nan  # the unscaled CPU time, set by Runner
    slowdown: float = math.nan  # the host slowdown it was divided by, set by Runner


class Clock:
    """CPU and wall time of a block.

    The ops are single-threaded and write only to the page cache, so their
    CPU time is the latency a user on an idle machine waits.  Unlike wall
    time it leaves out the time a shared host keeps the process off the
    CPU; Runner also takes out the host's slow phases (hostspeed.py).
    """

    def __enter__(self) -> "Clock":
        self.cpu, self.wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self.cpu
        self.wall = time.perf_counter() - self.wall


def timed(tracer: tracing.Tracer | None, op_id: int, name: str):
    """Context for the part of an op a user waits for; traced when a tracer is given."""
    return tracer.op(op_id, name) if tracer else contextlib.nullcontext()


def run_map_op(qkd, op: workloads.MapOp, work_dir: Path, tracer: tracing.Tracer | None) -> OpResult:
    spectrum_path = None
    if op.spectrum is not None:
        spectrum_path = str(qkd.spectra.bundled_spectrum_path(op.spectrum[0]))
    ini = work_dir / f"op{op.index}.ini"
    out = work_dir / f"op{op.index}"
    ini.write_text(op.ini(spectrum_path), encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with Clock() as clock, timed(tracer, op.index, "cli.main"):
            code = qkd.cli.main([str(ini), "--out", str(out)])
    if code != 0:
        problems = [f"exit code {code}: {sink.getvalue()[-500:]}"]
        points = written = 0
    else:
        source_steps = 1 if op.spectrum is not None else op.source_steps
        ambient = op.scenario in workloads.AMBIENT_SCENARIOS
        points, problems = checks.check_map_output(out, ambient, op.fov_steps, source_steps)
        written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    shutil.rmtree(out, ignore_errors=True)
    ini.unlink()
    return OpResult(clock.cpu, clock.wall, points, written, problems)


def run_mc_op(qkd, op: workloads.McOp, work_dir: Path, tracer: tracing.Tracer | None) -> OpResult:
    overrides = {k: v for k, v in op.room.overrides().items() if v is not None}
    scenario = qkd.experiments.Scenario.named("lamp-center", overrides)
    room = qkd.experiments.build_setup(scenario, op.fov_deg, 1e-5).room
    with Clock() as clock, timed(tracer, op.index, "op"):
        estimate = qkd.montecarlo.estimate_reflected_gain(room, samples=op.rays, seed=op.mc_seed)
        patch = qkd.channel.total_reflected_gain(room, workloads.MC_PATCHES_PER_METER)
    problems = checks.check_mc(patch, estimate.value, estimate.std_error, room, op.floor_only)
    # Every ray is one sample point of the bounce integral.
    return OpResult(clock.cpu, clock.wall, estimate.samples, 0, problems)


def run_op_of(workload: str):
    return run_mc_op if workload == "mc-oracle" else run_map_op


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "indoorqkd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    """Runs ops one at a time, with the reference work before and after each.

    An op's ``seconds`` is its CPU time divided by the mean slowdown of the
    reference work just before and just after it.
    """

    def __init__(self, qkd, workload: str, seed: int, work_dir: Path):
        self.qkd = qkd
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.generate = workloads.GENERATORS[workload]
        self.run_op = run_op_of(workload)
        self.reference = hostspeed.Reference(REFERENCE_PARTS[workload])
        self.last_slowdown = self.reference.slowdown()
        self.attempted = 0
        self.failures: list[tuple[int | str, list[str]]] = []

    def op(self, index: int, tracer: tracing.Tracer | None = None) -> OpResult:
        return self.run(self.generate(self.seed, index), tracer)

    def run(self, spec, tracer: tracing.Tracer | None = None) -> OpResult:
        self.attempted += 1
        try:
            result = self.run_op(self.qkd, spec, self.work_dir, tracer)
        except tracing.TracerError:
            raise
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            result = OpResult(math.nan, math.nan, 0, 0, [f"{type(exc).__name__}: {exc}"])
        before, self.last_slowdown = self.last_slowdown, self.reference.slowdown()
        result.slowdown = (before + self.last_slowdown) / 2.0
        result.cpu_s = result.seconds
        result.seconds /= result.slowdown
        if result.problems:
            self.failures.append((spec.index, result.problems))
        return result


def op_count(workload: str, seconds: float) -> int:
    """Ops in the whole cycles that fill about ``seconds`` on the reference box;
    at least MIN_TIMED_OPS, and two cycles so that a traced run traces one."""
    per_cycle = workloads.CYCLE_OPS[workload]
    cycles = max(2, math.ceil(MIN_TIMED_OPS / per_cycle), round(seconds / CYCLE_SECONDS[workload]))
    return cycles * per_cycle


def cold_start(workload: str, seed: int, start: int, work_dir: Path) -> None:
    """One fresh process's first request: prints its CPU time split into
    start-up and imports (numpy and indoorqkd included) and the first op,
    and the host's slowdown right after."""
    qkd = load_package()
    ready = time.process_time()
    try:
        result = run_op_of(workload)(qkd, workloads.small_op(workload, seed, start), work_dir, None)
    except Exception as exc:  # counts as a failed op, like a timed op that raises
        result = OpResult(math.nan, math.nan, 0, 0, [f"{type(exc).__name__}: {exc}"])
    reference = hostspeed.Reference(SETUP_REFERENCE_PARTS)
    reference.slowdown()  # faults in the reference's arrays
    slowdown = statistics.mean(reference.slowdown() for _ in range(2))
    print(json.dumps({"import_s": ready, "first_op_s": result.seconds, "slowdown": slowdown,
                      "problems": result.problems}))


def setup_seconds(runner: Runner) -> tuple[float, dict]:
    """Median CPU time of fresh processes from start to their first small op's
    answer, each divided by the host's slowdown measured in that process.

    Set-up is what a user pays before the first map: the interpreter, the
    imports of indoorqkd and its dependencies, and whatever the library
    builds on first use.  Work moved into import time or into a lazily
    built table shows here.
    """
    imports, firsts, totals, slowdowns = [], [], [], []
    for start in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", runner.workload,
             "--seed", str(runner.seed), "--seconds", "0", "--cold-start", str(start)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"cold start failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        runner.attempted += 1
        if probe["problems"]:
            runner.failures.append(("cold start", probe["problems"]))
            continue
        imports.append(probe["import_s"])
        firsts.append(probe["first_op_s"])
        slowdowns.append(probe["slowdown"])
        totals.append((probe["import_s"] + probe["first_op_s"]) / probe["slowdown"])
    if not totals:
        return math.nan, {}
    info = {
        "cold_cpu_import_s": statistics.median(imports),
        "cold_cpu_first_op_s": statistics.median(firsts),
        "cold_slowdown_p50": statistics.median(slowdowns),
    }
    return statistics.median(totals), info


def run_cycles(runner: Runner, seconds: float, tracer: tracing.Tracer | None = None) -> list[list[OpResult]]:
    """The run's whole cycles, after one untimed warm-up op; with a tracer,
    every second cycle is traced."""
    runner.op(-1)
    per_cycle = workloads.CYCLE_OPS[runner.workload]
    cycles = []
    start = time.perf_counter()
    for cycle in range(op_count(runner.workload, seconds) // per_cycle):
        if time.perf_counter() - start >= WALL_LIMIT_S:
            break
        traced = tracer if cycle % 2 else None
        cycles.append([runner.op(cycle * per_cycle + slot, traced) for slot in range(per_cycle)])
    return cycles


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    cycles = run_cycles(runner, seconds)
    results = [r for c in cycles for r in c]
    ok = [r for r in results if not r.problems]
    times = [r.seconds for r in ok] or [math.nan]
    busy = sum(times)
    tail_value, tail_pct = tail(times) if len(times) > TAIL_BEYOND else (max(times), 100.0)
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "points_per_s": (sum(r.points for r in ok) / busy, "1/s"),
        "ok_ops_ratio": (len(ok) / len(results), "ratio"),
    }
    wall = [r.wall_s for r in ok] or [math.nan]
    info = {
        "timed_ops": len(results), "planned_ops": op_count(runner.workload, seconds),
        "cycle_seconds": [round(sum(r.seconds for r in c), 4) for c in cycles],
        "tail_percentile": tail_pct, "tail_samples": len(times),
        "wall_op_p50_s": statistics.median(wall), "wall_ops_per_s": len(ok) / sum(wall),
        "cpu_op_p50_s": statistics.median(r.cpu_s for r in results),
        "slowdown_p50": statistics.median(r.slowdown for r in results),
        "slowdown_min_max": [min(r.slowdown for r in results), max(r.slowdown for r in results)],
    }
    return metrics, info


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, tracing.Tracer]:
    """The ops of ``measure``, every second cycle traced."""
    tracer = tracing.Tracer()
    cycles = run_cycles(runner, seconds, tracer)
    plain = [r.seconds for c in cycles[0::2] for r in c]
    traced = [r for c in cycles[1::2] for r in c]
    per_cycle = workloads.CYCLE_OPS[runner.workload]
    spectrum_ops = sum(
        getattr(runner.generate(runner.seed, cycle * per_cycle + slot), "spectrum", None) is not None
        for cycle in range(1, len(cycles), 2) for slot in range(per_cycle)
    )
    metrics = tracing.layer_metrics(tracer, len(traced), spectrum_ops, sum(r.bytes_written for r in traced))
    overhead = statistics.median(r.seconds for r in traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    info = {"traced_ops": len(traced), "untraced_ops": len(plain), "spans": len(tracer.spans()["name"])}
    return metrics, info, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", type=int, metavar="K", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        STATE_DIR.mkdir(exist_ok=True)
        if args.cold_start is not None:
            with tempfile.TemporaryDirectory(dir=STATE_DIR) as tmp:
                cold_start(args.workload, args.seed, args.cold_start, Path(tmp))
            return 0
        qkd = load_package()
        with tempfile.TemporaryDirectory(dir=STATE_DIR) as tmp:
            runner = Runner(qkd, args.workload, args.seed, Path(tmp))
            if args.trace:
                metrics, info, tracer = measure_traced(runner, args.seconds)
                tracer.write(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            else:
                setup_s, setup_info = setup_seconds(runner)
                metrics, info = measure(runner, args.seconds)
                info.update(setup_info)
                metrics["setup_s"] = (setup_s, "s")
                metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    except (BenchError, tracing.TracerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for index, problems in runner.failures[:20]:
        print(f"perfbench: op {index} failed: {'; '.join(problems)}", file=sys.stderr)
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "attempted_ops": runner.attempted,
        "failed_ops": len(runner.failures),
        **info,
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        # A failed run can leave NaN, which JSON cannot carry; `correct` is false then.
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps({"run": run_info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
