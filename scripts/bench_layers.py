#!/usr/bin/env python3
"""Per-layer timings of the feasibility-map pipeline, written to a JSON file.

Each layer is timed as the median and interquartile range over ROUNDS
runs, after one untimed warm-up run.  A round's time is CPU time, this
process's plus that of the child processes it waited for, divided by the
host's slowdown: perfbench's fixed reference work (``hostspeed.Reference``)
runs before and after each round, and the mean of its two slowdown factors
scales the round to the reference box at full speed, as perfbench does for
its op times.  Next to each time the row records the minor page faults
per call (``ru_minflt``, counted the same way: this process's plus the
waited-for children's), the pages the allocator handed back to the system
and faulted in again, among others.  The layers:

* total_reflected_gain, lamp-center at FOV 20 deg, at patches_per_meter
  10/20/40/80 (a rule order since the quadrature replaced the patch sum),
  each call with the room's receiver view already built and the integral
  not yet in it;
* one block of ``_PSI_BLOCK`` psi nodes (0.01-1.5 rad) of the quadrature's
  ring integrals, lamp-center with the lamp at (1.3, 2.0), in a work array
  made beforehand and sized as a quadrature pass sizes the one its blocks
  share: the row divided by the block size is the cost of one psi node;
  and the same for a probe-sized block, the 10 nodes of the order-10 rule
  on 15-20 deg, where the kernel's fixed cost per call shows;
* one evaluate_point of lamp-center at order 10 and 1e-5 W/nm, each call at
  a FOV the room's view does not hold yet (20 deg plus 1e-5 deg per call,
  all in one psi panel): the cost of one boundary probe;
* one cold 100 x 100 sweep (FOV 0.9-90 deg x lamp PSD 1e-7-1e-4 W/nm) of
  lamp-center at 10 patches_per_meter;
* one cold secure_fov_boundary of lamp-center at 1e-5 W/nm, 10 patches_per_meter;
* one scalar secret_key_rate call, and one call over a batch of 90 noise
  counts (eta 1e-3, noise 1e-9-1e-2);
* one evaluate_point, lamp-center at FOV 20 deg and 1e-5 W/nm, with the
  bounce integral already cached;
* one cold 90 x 90 sweep (FOV 2-30 deg x ambient 1e-9-1e-5 W/nm/m^2) of
  ambient-only-center;
* one cold ambient_tolerance of ambient-only-center at a FOV floor of 2 deg;
* estimate_reflected_gain with 1e6 and 1e7 rays (seed 7), lamp-center at
  FOV 20 deg; these rows also record the peak bytes that ``tracemalloc``
  sees in one more call, made after the timed rounds because tracing slows
  every allocation;
* a CLI run with the default config, a CLI run of the 90 x 90
  ambient-only-center map above (the shape of a perfbench ambient-map op:
  sweep, ambient tolerance, sweep.csv and summary.txt), and
  scripts/run_all_scenarios.py, each in a fresh Python process so that
  imports count; their value is the sha256 of the files they write;
* the same 90 x 90 ambient CLI run through ``cli.main`` in this process,
  cold, so the map's own cost shows without process start-up and imports.

Rows that take microseconds time CALLS calls per round and report the time
per call.  Each row runs in a fresh child process of this script
(``--row NAME``), so that no row inherits the heap an earlier one left:
glibc raises its mmap threshold after freeing a large block, and a row's
page faults would otherwise depend on the rows before it.

"Cold" clears every per-room memo (the receiver views, which hold the
integrals, and the reflected-integral tables of trees that keep them apart)
before every run.  Each layer
also records a value it computed, so runs of two source trees can be
checked for identical results, and the run records the line count of
``src/indoorqkd/*.py``.  --src picks the source tree to import
(default: src/ of this checkout), so one copy of the script times any
checkout.  --label names the run inside the output file; runs stored there
under other labels are kept, so one file can hold a before/after pair:

    python3 scripts/bench_layers.py --src ../parent/src --label parent --out BENCH.json
    python3 scripts/bench_layers.py --label change --out BENCH.json
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hostspeed import Reference  # noqa: E402

RESOLUTIONS = (10, 20, 40, 80)
ROUNDS = 7
CALLS = 200


def git_sha(path: Path) -> tuple[str, bool]:
    """HEAD of the checkout holding ``path`` and whether its src/ has edits."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True, check=True).stdout
    try:
        return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain", "--", ".").strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


REFERENCE = Reference(("interpreter", "array"))


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def minor_faults() -> int:
    """Minor page faults of this process and of the children it has waited for."""
    return sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def timed(run, before=lambda: None, calls: int = 1) -> dict:
    before()
    value = run()  # warm-up, and the value recorded for the layer
    times, slowdowns, faults = [], [], []
    for _ in range(ROUNDS):
        before()
        slow_before = REFERENCE.slowdown()
        start, faults_before = cpu_s(), minor_faults()
        for _ in range(calls):
            run()
        spent, faults_spent = cpu_s() - start, minor_faults() - faults_before
        slowdowns.append(0.5 * (slow_before + REFERENCE.slowdown()))
        times.append(spent / calls / slowdowns[-1])
        faults.append(faults_spent / calls)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "median_s": median, "iqr_s": q3 - q1, "rounds": ROUNDS, "calls_per_round": calls,
        "times_s": times, "host_slowdowns": slowdowns,
        "minor_faults_per_call": statistics.median(faults), "minor_faults_per_round": faults, "value": value,
    }


def traced_peak_bytes(run) -> int:
    """Peak of the memory ``tracemalloc`` sees allocated during one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def outputs_digest(write) -> str:
    """Call ``write(DIR)`` on an empty directory and hash the files it writes there."""
    with tempfile.TemporaryDirectory() as out:
        write(out)
        digest = hashlib.sha256()
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def subprocess_digest(command: list[str], src: Path) -> str:
    """Run ``command --out DIR`` against ``src`` and hash the files it writes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return outputs_digest(lambda out: subprocess.run([*command, "--out", out], check=True, capture_output=True, env=env))


def secure_count(point) -> int:
    # sweep returns one OperatingPoint over the whole (FOV, level) grid
    return int(np.count_nonzero(point.report.secure))


def line_count(package: Path) -> int:
    """Lines of the package's modules, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def layer_rows(src: Path) -> dict:
    """Each row's name and the function that measures it, in the order the rows run."""
    sys.path.insert(0, str(src))
    from indoorqkd import channel, cli, experiments
    from indoorqkd.channel import total_reflected_gain
    from indoorqkd.experiments import (
        Scenario, ambient_tolerance, build_setup, evaluate_point, secure_fov_boundary, sweep,
    )
    from indoorqkd.keyrate import secret_key_rate
    from indoorqkd.montecarlo import estimate_reflected_gain

    scenario = Scenario.named("lamp-center")
    setup = build_setup(scenario, 20.0, 1e-5)
    room = setup.room
    # Bounce-integral memos that older trees keep outside the receiver views:
    # per room and FOV before the quadrature, per room and order after it.
    caches = [getattr(experiments, name) for name in ("_integral_table", "_cached_reflected_integral") if hasattr(experiments, name)]
    views = getattr(channel, "_VIEWS", {})  # the per-room receiver views, where the tree memoizes them

    def cold() -> None:
        for cache in caches:
            cache.cache_clear()
        views.clear()

    def without_integrals() -> None:  # keep the views, drop the integrals and whole-piece sums a view holds
        for view in views.values():
            getattr(view, "integrals", {}).clear()
            getattr(view, "whole_pieces", {}).clear()

    fovs = tuple(0.9 * (k + 1) for k in range(100))
    levels = tuple(10.0 ** (-7.0 + 3.0 * k / 99) for k in range(100))
    ambient = Scenario.named("ambient-only-center")
    ambient_fovs = tuple(np.linspace(2.0, 30.0, 90).tolist())
    ambient_levels = tuple(np.logspace(-9.0, -5.0, 90).tolist())
    noises = np.logspace(-9.0, -2.0, 90)

    def batch_rates() -> float:
        return sum(secret_key_rate(setup.protocol, 1e-3, noises).rate.tolist())

    def ring_block(psi: np.ndarray) -> dict:
        view = channel._ReceiverView(build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), 20.0, 1e-5).room)
        # the work array a quadrature pass makes once for all its blocks, sized as piece_sums sizes it
        work = np.empty(8 * channel._THETA_ORDER * (channel._THETA_ARCS + 2 * view.edge_length.size) * len(psi))
        return timed(lambda: float(view.ring_integrals(psi, work).sum()), calls=20)

    def new_fov_probe() -> dict:
        # every call at a FOV not yet in the room's view, inside the 15-30 deg psi panel, whose
        # lower pieces the first call sums: one partial piece, as a boundary probe computes it;
        # the value is the bounce integral (the rate is 0 there)
        probes = (20.0 + 1e-5 * k for k in itertools.count())
        return timed(lambda: float(evaluate_point(scenario, next(probes), 1e-5, patches_per_meter=10).gains.reflected_integral), calls=20)

    def ambient_cli(kind: str) -> dict:
        with tempfile.TemporaryDirectory() as config_dir:
            ambient_ini = Path(config_dir) / "ambient_90x90.ini"
            ambient_ini.write_text(
                "[experiments]\nscenario = ambient-only-center\n"
                "fov_min_deg = 2\nfov_max_deg = 30\nfov_steps = 90\n"
                "source_min = 1e-9\nsource_max = 1e-5\nsource_steps = 90\nsource_scale = log\n"
            )
            if kind == "subprocess":
                return timed(lambda: subprocess_digest([sys.executable, "-m", "indoorqkd.cli", str(ambient_ini)], src))

            def ambient_in_process(out: str) -> None:
                with contextlib.redirect_stdout(io.StringIO()):  # the summary the CLI prints
                    cli.main([str(ambient_ini), "--out", out])

            return timed(lambda: outputs_digest(ambient_in_process), cold)

    def monte_carlo(rays: int) -> dict:
        def estimate() -> float:
            return estimate_reflected_gain(room, samples=rays, seed=7).value

        layer = timed(estimate)
        layer["tracemalloc_peak_bytes"] = traced_peak_bytes(estimate)
        return layer

    rows = {f"total_reflected_gain_{res}_per_m": (lambda res=res: timed(lambda: total_reflected_gain(room, res), without_integrals)) for res in RESOLUTIONS}
    block = channel._PSI_BLOCK
    rows[f"ring_integrals_{block}_psi_block"] = lambda: ring_block(np.linspace(0.01, 1.5, block))
    # a partial piece of an order-10 probe: the rule's nodes on 15-20 deg
    rows["ring_integrals_10_psi_block"] = lambda: ring_block(np.radians(15.0) + np.radians(5.0) * channel._mapped_rule(10)[0])
    rows["boundary_probe_new_fov_10"] = new_fov_probe
    rows["sweep_100x100_cold_10_per_m"] = lambda: timed(lambda: secure_count(sweep(scenario, fovs, levels, patches_per_meter=10)), cold)
    rows["secure_fov_boundary_cold_10_per_m"] = lambda: timed(lambda: secure_fov_boundary(scenario, 1e-5, patches_per_meter=10), cold)
    rows["secret_key_rate_scalar"] = lambda: timed(lambda: float(secret_key_rate(setup.protocol, 1e-3, 1e-6).rate), calls=CALLS)
    rows["secret_key_rate_batch_90"] = lambda: timed(batch_rates, calls=CALLS)
    rows["evaluate_point_warm_10_per_m"] = lambda: timed(
        lambda: float(evaluate_point(scenario, 20.0, 1e-5, patches_per_meter=10).report.rate), calls=CALLS
    )
    rows["sweep_90x90_ambient_only_center_cold"] = lambda: timed(lambda: secure_count(sweep(ambient, ambient_fovs, ambient_levels)), cold)
    rows["ambient_tolerance_cold"] = lambda: timed(lambda: ambient_tolerance(ambient, fov_floor_deg=2.0), cold)
    rows["estimate_reflected_gain_1e6_rays"] = lambda: monte_carlo(1_000_000)
    rows["estimate_reflected_gain_1e7_rays"] = lambda: monte_carlo(10_000_000)
    rows["cli_default_run_subprocess"] = lambda: timed(lambda: subprocess_digest([sys.executable, "-m", "indoorqkd.cli"], src))
    rows["cli_ambient_90x90_subprocess"] = lambda: ambient_cli("subprocess")
    rows["cli_ambient_90x90_in_process"] = lambda: ambient_cli("in_process")
    rows["run_all_scenarios_subprocess"] = lambda: timed(
        lambda: subprocess_digest([sys.executable, str(src.parent / "scripts" / "run_all_scenarios.py")], src)
    )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write (runs with other labels stay)")
    parser.add_argument("--row", help="measure this one row in this process and print it as JSON (how each row's child runs)")
    args = parser.parse_args()

    src = args.src.resolve()
    if args.row:
        print(json.dumps(layer_rows(src)[args.row]()))
        return 0
    layers = {}
    for name in layer_rows(src):
        child = [sys.executable, __file__, "--src", str(src), "--label", args.label, "--out", str(args.out), "--row", name]
        layers[name] = json.loads(subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True).stdout)

    sha, dirty = git_sha(src)
    run = {
        "git_sha": sha,
        "src_has_uncommitted_edits": dirty,
        "source_sha256": source_digest(src / "indoorqkd"),
        "src_lines": line_count(src / "indoorqkd"),
        "clock": "CPU s (children included) / host slowdown of perfbench hostspeed.Reference",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "layers": layers,
    }
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[args.label] = run
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    for name, layer in layers.items():
        print(
            f"{args.label:>8} {name:38s} median {layer['median_s'] * 1e3:10.3f} ms  IQR {layer['iqr_s'] * 1e3:8.3f} ms"
            f"  faults/call {layer['minor_faults_per_call']:10.1f}"
            + (f"  traced peak {layer['tracemalloc_peak_bytes'] / 1e6:7.2f} MB" if "tracemalloc_peak_bytes" in layer else "")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
