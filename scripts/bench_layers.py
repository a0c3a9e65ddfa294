#!/usr/bin/env python3
"""Per-layer timings of the feasibility-map pipeline, written to a JSON file.

Each layer is timed as the median and interquartile range over ROUNDS
runs, after one untimed warm-up run.  A round's time is the CPU seconds
per call of this process plus the child processes it waited for, as
measured: no reference work scales it, since a host-speed factor taken
between rounds swings more than the rows it would correct.  Next to each
time the row records the minor page faults per call (``ru_minflt``,
counted the same way: this process's plus the waited-for children's), the
pages the allocator handed back to the system and faulted in again, among
others.  The layers:

* total_reflected_gain, lamp-center at FOV 20 deg, at rule order
  10/20/40/80, CALLS calls a round, each with the room's receiver view
  already built and the integral not yet in it (one call of 0.3-0.5 ms a
  round swung past its IQR); and the same at order 10 with the lamp 0.7 m
  off centre, for a 70 deg lamp and for a 10 deg one, whose theta rules differ;
* one cold reflected_gain_convergence of lamp-center at order 10: the
  order-10 value, the order-20 one and the theta check, in a new view;
  and one warm, after the view is built and holds the order-10 value, as
  after a CLI run's sweep: the refined passes alone;
* building the receiver view of lamp-center with the lamp at (1.3, 2.0),
  what a call for a new room costs before its quadrature (the value is the
  sum of the view's psi cuts);
* one ring_integrals call of the quadrature, in that room's view, over the
  63 psi rings of 0.01-1.5 rad, whose 4,320 rays fit in one ray block
  (``channel._RAY_BLOCK``, 8,192; they were 8,080 while every ring was cut
  at every edge plane it crosses), given the rings' cos and sin psi as a
  pass gives them: the row divided by 63 is the cost of one ring; and one
  probe-sized call, the 10 rings of the order-10 rule on
  15-20 deg (400 rays, 800 before), where the kernel's fixed cost per call
  shows; and the 63 rings of 0.01-0.55 rad, which meet no room edge and
  keep their equal arcs (2,520 rays, one block of the equal-arc route); and
  the 204 rings of 0.01-0.55 rad, all in the floor cap (8,160 rays, one
  full block of the cap's route: every ray leaves through the floor);
* one evaluate_point of lamp-center at order 10 and 1e-5 W/nm, each call at
  a FOV the room's view does not hold yet (20 deg plus 1e-5 deg per call,
  all in one psi panel): the cost of one boundary probe;
* one cold 100 x 100 sweep (FOV 0.9-90 deg x lamp PSD 1e-7-1e-4 W/nm) of
  lamp-center at order 10;
* one cold secure_fov_boundary of lamp-center at 1e-5 W/nm, order 10;
* one scalar secret_key_rate call, one call over a batch of 90 noise
  counts (eta 1e-3, noise 1e-9-1e-2), and one call over a 90 x 90 grid in
  the layout sweep passes: a column of 90 transmittances (1e-4-1e-2)
  against those 90 counts broadcast (stride 0) to the whole grid;
* one evaluate_point, lamp-center at FOV 20 deg and 1e-5 W/nm, with the
  bounce integral already cached;
* one build_setup of lamp-corner-steered at FOV 20 deg and 1e-5 W/nm, the
  scenario that builds its room twice, the second time with the transmitter
  aimed at the receiver (the value is that aim's z component), each a
  whole build (a scenario kept by build_setup is dropped first), and one of
  lamp-center at a FOV not yet asked for (20 deg plus 1e-5 deg per call)
  with the same Scenario object, a boundary probe's setup: where
  build_setup keeps the scenario in use, only the room is made anew;
* one cold 90 x 90 sweep (FOV 2-30 deg x ambient 1e-9-1e-5 W/nm/m^2) of
  ambient-only-center;
* one cold ambient_tolerance of ambient-only-center at a FOV floor of 2 deg;
* the two searches as a CLI run makes them, after their map: a
  secure_fov_boundary of lamp-center at order 10 after a
  29 x 13 map (FOV 2-30 deg x lamp PSD 1e-7-1e-4 W/nm, the shape of a
  perfbench lamp-map op) at the map's middle level, and an ambient_tolerance
  at 2 deg after the 90 x 90 ambient map above; each round builds the map
  cold, untimed, and the search starts from the map's flags at its level or
  FOV; these four search rows also record the evaluate_point calls one
  search makes (``evaluate_point_calls``), the ladder's included;
* the sweep.csv writer alone, ``b"".join(cli._csv_lines(...))`` over a map
  built before the timed rounds: the 90 x 90 ambient-only-center map above,
  a 1 x 5,000 one (FOV 2 deg, ambient 1e-9-1e-5 W/nm/m^2), a 300 x 7 one
  (FOV 2-30 deg, the same ambient range) and the 29 x 13 lamp-center map
  above; the value is the sha256 of the rows, and each row also records the
  peak bytes that ``tracemalloc`` sees in one more call;
* estimate_reflected_gain with 1e6 and 1e7 rays (seed 7), lamp-center at
  FOV 20 deg, where the cone bound skips most rays, and with 1e6 rays with
  the lamp at (1.3, 2.0) and a 55 deg cone, where it can skip few, and a
  10 deg cone, where the azimuth-sector table skips most of what the
  threshold keeps; these rows also record the peak bytes that
  ``tracemalloc`` sees in one more call, made after the timed rounds
  because tracing slows every allocation;
* a CLI run with the default config, a CLI run of the 90 x 90
  ambient-only-center map above (the shape of a perfbench ambient-map op:
  sweep, ambient tolerance, sweep.csv and summary.txt), and
  scripts/run_all_scenarios.py, each in a fresh Python process so that
  imports count; their value is the sha256 of the files they write (the
  last row is recorded as skipped, with the reason, when --src has no
  scripts/ beside it);
* the same 90 x 90 ambient CLI run through ``cli.main`` in this process,
  cold, so the map's own cost shows without process start-up and imports.

Rows that take microseconds time CALLS calls per round and report the time
per call.  Each row runs in a fresh child process of this script
(``--row NAME``), so that no row inherits the heap an earlier one left:
glibc raises its mmap threshold after freeing a large block, and a row's
page faults would otherwise depend on the rows before it.  Each child
runs with OPENBLAS_NUM_THREADS=1: OpenBLAS's idle worker threads otherwise
spin after a call wakes them and give single rounds several times the
others' CPU time.  Before each timed round the child prints "ready" and
waits for a line on its stdin, so the parent paces it; from /dev/null it
runs straight through.

"Cold" clears every per-room memo (the receiver views, which hold the
integrals) before every run.  Each layer also records a value it computed,
so runs of two source trees can be checked for identical results, and the
run records the line count of ``src/indoorqkd/*.py``, in all and per
module.  --src picks the source tree to import (default: src/ of this
checkout), so one copy of the script times this checkout and its parent.
--label names the run inside the output file; runs stored there under
other labels are kept, so one file can hold a before/after pair.  With
--pair PARENT_SRC the script times both trees itself: each row starts one
child per tree, sets both up and warms them, then alternates their timed
rounds (ABAB...), the tree that goes first alternating from row to row.
A row's rounds take a fraction of a second each, so both trees' rounds
fall in the same phases of a host whose speed drifts, which whole rows
back to back did not.  The parent's run is stored as "parent":

    python3 scripts/bench_layers.py --pair ../parent/src --label change --out BENCH.json
    python3 scripts/bench_layers.py --src ../parent/src --label parent --out BENCH.json  # one tree alone
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

RESOLUTIONS = (10, 20, 40, 80)
ROUNDS = 7
CALLS = 200
READY = "ready"  # a child's line before each timed round; its last line is the row's JSON


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


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def minor_faults() -> int:
    """Minor page faults of this process and of the children it has waited for."""
    return sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def await_round() -> None:
    """Say this child is ready for its next timed round and wait for the parent's go (a line on stdin, or its end)."""
    print(READY, flush=True)
    sys.stdin.readline()


def timed(run, before=lambda: None, calls: int = 1) -> dict:
    before()
    value = run()  # warm-up, and the value recorded for the layer
    times, faults = [], []
    for _ in range(ROUNDS):
        await_round()
        before()
        start, faults_before = cpu_s(), minor_faults()
        for _ in range(calls):
            run()
        times.append((cpu_s() - start) / calls)
        faults.append((minor_faults() - faults_before) / calls)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "median_s": median, "iqr_s": q3 - q1, "rounds": ROUNDS, "calls_per_round": calls,
        "times_s": times,
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


def line_counts(package: Path) -> dict[str, int]:
    """Lines of each of the package's modules, as ``wc -l`` counts them, by file name."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}


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

    def cold() -> None:  # drop the per-room receiver views, where the bounce integrals are memoized
        channel._VIEWS.clear()

    def without_integrals() -> None:  # keep the views, drop the integrals and whole-piece sums a view holds
        for view in channel._VIEWS.values():
            view.integrals.clear()
            view.whole_pieces.clear()

    fovs = tuple(0.9 * (k + 1) for k in range(100))
    levels = tuple(10.0 ** (-7.0 + 3.0 * k / 99) for k in range(100))
    ambient = Scenario.named("ambient-only-center")
    ambient_fovs = tuple(np.linspace(2.0, 30.0, 90).tolist())
    ambient_levels = tuple(np.logspace(-9.0, -5.0, 90).tolist())
    noises = np.logspace(-9.0, -2.0, 90)
    map_fovs = tuple(np.linspace(2.0, 30.0, 29).tolist())
    map_levels = tuple(np.logspace(-7.0, -4.0, 13).tolist())

    def batch_rates() -> float:
        return sum(secret_key_rate(setup.protocol, 1e-3, noises).rate.tolist())

    grid_etas = np.logspace(-4.0, -2.0, 90)[:, None]
    grid_noises = np.broadcast_to(noises, (len(grid_etas), len(noises)))

    def grid_rates() -> float:
        return float(secret_key_rate(setup.protocol, grid_etas, grid_noises).rate.sum())

    offset_room = build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), 20.0, 1e-5).room

    def ring_call(psi: np.ndarray) -> dict:
        view, cos_psi, sin_psi = channel._ReceiverView(offset_room), np.cos(psi), np.sin(psi)
        return timed(lambda: float(view.ring_integrals(psi, view.theta_rule, cos_psi, sin_psi).sum()), calls=20)

    def new_fov_probe() -> dict:
        # every call at a FOV not yet in the room's view, inside the 15-30 deg psi panel, whose
        # lower pieces the first call sums: one partial piece, as a boundary probe computes it;
        # the value is the bounce integral (the rate is 0 there)
        probes = (20.0 + 1e-5 * k for k in itertools.count())
        return timed(lambda: float(evaluate_point(scenario, next(probes), 1e-5).gains.reflected_integral), calls=20)

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

    def searched(search, before) -> dict:
        """Time ``search()`` after ``before()``, and count the evaluate_point calls of one more search."""
        layer, calls, evaluate = timed(search, before), [], experiments.evaluate_point
        before()
        experiments.evaluate_point = lambda *args, **kwargs: calls.append(args[1]) or evaluate(*args, **kwargs)
        try:
            search()
        finally:
            experiments.evaluate_point = evaluate
        layer["evaluate_point_calls"] = len(calls)
        return layer

    def after_map(search, grid, known) -> dict:
        """Time ``search(**seed)`` after its map, built cold before each round, seeded from it as cli.run seeds it."""
        seed = {}

        def build() -> None:
            cold()
            seed["known"] = known(grid())

        return searched(lambda: search(**seed), build)

    def csv_writer(scenario: Scenario, fov_values: tuple, levels: tuple) -> dict:
        grid = sweep(scenario, fov_values, levels)

        def write() -> bytes:
            return b"".join(cli._csv_lines(grid, fov_values, levels))

        layer = timed(lambda: len(write()), calls=10)
        layer["value"] = hashlib.sha256(write()).hexdigest()
        layer["tracemalloc_peak_bytes"] = traced_peak_bytes(write)
        return layer

    def monte_carlo(rays: int, room=room) -> dict:
        def estimate() -> float:
            return estimate_reflected_gain(room, samples=rays, seed=7).value

        layer = timed(estimate)
        layer["tracemalloc_peak_bytes"] = traced_peak_bytes(estimate)
        return layer

    def fresh_integral(room, order: int) -> dict:  # CALLS calls a round, each in the built view without the integral
        return timed(lambda: (without_integrals(), total_reflected_gain(room, order))[1], calls=CALLS)

    rows = {f"total_reflected_gain_{res}_per_m": (lambda res=res: fresh_integral(room, res)) for res in RESOLUTIONS}
    for semi_angle in 70, 10:
        off = build_setup(Scenario.named("lamp-center", {"lamp_x_m": 2.7, "lamp_semi_angle_deg": float(semi_angle)}), 20.0, 1e-5).room
        rows[f"total_reflected_gain_10_per_m_lamp_0.7m_off_{semi_angle}deg"] = lambda off=off: fresh_integral(off, 10)
    rows["reflected_gain_convergence_cold_10_per_m"] = lambda: timed(lambda: channel.reflected_gain_convergence(room, 10).refined_value, cold)

    def order_10_known() -> None:  # a new view holding the order-10 value, as a CLI run's sweep leaves it
        cold()
        total_reflected_gain(room, 10)

    rows["reflected_gain_convergence_warm"] = lambda: timed(lambda: channel.reflected_gain_convergence(room, 10).refined_value, order_10_known)
    rows["receiver_view_new_room"] = lambda: timed(lambda: float(channel._ReceiverView(offset_room).bounds.sum()), calls=CALLS)
    rows["ring_integrals_full_ray_block"] = lambda: ring_call(np.linspace(0.01, 1.5, 63))
    # rings below every room edge, which keep their equal arcs: one block of the equal-arc route
    rows["ring_integrals_equal_arc_block"] = lambda: ring_call(np.linspace(0.01, 0.55, 63))
    # rings in the floor cap (below 0.588 rad there) filling one ray block: the cap's route
    rows["ring_integrals_cap_block"] = lambda: ring_call(np.linspace(0.01, 0.55, channel._RAY_BLOCK // 40))
    # a partial piece of an order-10 probe: the rule's nodes on 15-20 deg
    rows["ring_integrals_probe_10_rings"] = lambda: ring_call(np.radians(15.0) + np.radians(5.0) * channel._mapped_rule(10)[0])
    rows["boundary_probe_new_fov_10"] = new_fov_probe
    rows["sweep_100x100_cold_10_per_m"] = lambda: timed(lambda: secure_count(sweep(scenario, fovs, levels)), cold)
    rows["secure_fov_boundary_cold_10_per_m"] = lambda: searched(lambda: secure_fov_boundary(scenario, 1e-5), cold)
    rows["secret_key_rate_scalar"] = lambda: timed(lambda: float(secret_key_rate(setup.protocol, 1e-3, 1e-6).rate), calls=CALLS)
    rows["secret_key_rate_batch_90"] = lambda: timed(batch_rates, calls=CALLS)
    rows["secret_key_rate_grid_90x90"] = lambda: timed(grid_rates, calls=20)
    rows["evaluate_point_warm_10_per_m"] = lambda: timed(
        lambda: float(evaluate_point(scenario, 20.0, 1e-5).report.rate), calls=CALLS
    )
    steered = Scenario.named("lamp-corner-steered")
    kept = getattr(experiments, "_SETUPS", {})  # build_setup's scenario in use, where it keeps one: cleared for a whole build
    rows["build_setup_lamp_corner_steered"] = lambda: timed(
        lambda: (kept.clear(), build_setup(steered, 20.0, 1e-5))[1].room.transmitter.axis.z, calls=CALLS
    )
    setup_fovs = (20.0 + 1e-5 * k for k in itertools.count())
    rows["build_setup_hit_new_fov"] = lambda: timed(lambda: build_setup(scenario, next(setup_fovs), 1e-5).room.fov_deg, calls=CALLS)
    rows["sweep_90x90_ambient_only_center_cold"] = lambda: timed(lambda: secure_count(sweep(ambient, ambient_fovs, ambient_levels)), cold)
    rows["ambient_tolerance_cold"] = lambda: searched(lambda: ambient_tolerance(ambient, fov_floor_deg=2.0), cold)
    rows["secure_fov_boundary_after_map_10_per_m"] = lambda: after_map(
        lambda **seed: secure_fov_boundary(scenario, map_levels[6], **seed),
        lambda: sweep(scenario, map_fovs, map_levels),
        lambda grid: (map_fovs, grid.report.secure[:, 6]),
    )
    rows["ambient_tolerance_after_map"] = lambda: after_map(
        lambda **seed: ambient_tolerance(ambient, fov_floor_deg=2.0, **seed),
        lambda: sweep(ambient, ambient_fovs, ambient_levels),
        lambda grid: (ambient_levels, grid.report.secure[0]),
    )
    rows["csv_lines_90x90_ambient_only_center"] = lambda: csv_writer(ambient, ambient_fovs, ambient_levels)
    rows["csv_lines_1x5000_ambient_only_center"] = lambda: csv_writer(ambient, (2.0,), tuple(np.logspace(-9.0, -5.0, 5000).tolist()))
    rows["csv_lines_300x7_ambient_only_center"] = lambda: csv_writer(
        ambient, tuple(np.linspace(2.0, 30.0, 300).tolist()), tuple(np.logspace(-9.0, -5.0, 7).tolist())
    )
    rows["csv_lines_29x13_lamp_center"] = lambda: csv_writer(scenario, map_fovs, map_levels)
    rows["estimate_reflected_gain_1e6_rays"] = lambda: monte_carlo(1_000_000)
    rows["estimate_reflected_gain_1e6_rays_offset_55deg"] = lambda: monte_carlo(
        1_000_000, build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), 55.0, 1e-5).room
    )
    rows["estimate_reflected_gain_1e6_rays_offset_10deg"] = lambda: monte_carlo(
        1_000_000, build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), 10.0, 1e-5).room
    )
    rows["estimate_reflected_gain_1e7_rays"] = lambda: monte_carlo(10_000_000)
    rows["cli_default_run_subprocess"] = lambda: timed(lambda: subprocess_digest([sys.executable, "-m", "indoorqkd.cli"], src))
    rows["cli_ambient_90x90_subprocess"] = lambda: ambient_cli("subprocess")
    rows["cli_ambient_90x90_in_process"] = lambda: ambient_cli("in_process")
    script = src.parent / "scripts" / "run_all_scenarios.py"
    rows["run_all_scenarios_subprocess"] = (
        (lambda: timed(lambda: subprocess_digest([sys.executable, str(script)], src))) if script.exists()
        else (lambda: {"skipped": f"no {script} beside --src"})
    )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write (runs with other labels stay)")
    parser.add_argument("--pair", type=Path, metavar="PARENT_SRC", help="also time this source tree, stored as 'parent', alternating round by round")
    parser.add_argument("--row", help="measure this one row in this process and print it as JSON (how each row's child runs; "
                        "it waits for a line on stdin before each round)")
    args = parser.parse_args()

    src = args.src.resolve()
    if args.row:
        print(json.dumps(layer_rows(src)[args.row]()))
        return 0
    trees = {args.label: src, **({"parent": args.pair.resolve()} if args.pair else {})}
    layers = {label: {} for label in trees}
    for k, name in enumerate(layer_rows(src)):
        order = sorted(trees, reverse=k % 2 == 1)  # with --pair, the tree that goes first alternates from row to row
        rows = run_row(name, {label: trees[label] for label in order}, args)
        for label in trees:
            layers[label][name] = rows[label]
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, tree in trees.items():
        results[label] = run_record(tree, layers[label], args.pair is not None)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    for label in trees:
        print_layers(label, layers[label])
    return 0


def run_row(name: str, trees: dict[str, Path], args: argparse.Namespace) -> dict[str, dict]:
    """One row in a child per tree, in ``trees``' order: each set up and warmed in turn, then their timed rounds
    alternated, one child running at a time; each child's JSON by label."""
    children, rows = {}, {}

    def advance(label: str) -> None:  # wait until the child is ready for its next round, or take its JSON
        child = children[label]
        line = child.stdout.readline()
        if line.strip() == READY:
            return
        if child.wait() != 0 or not line:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        rows[label] = json.loads(line)

    try:
        for label, tree in trees.items():
            command = [sys.executable, __file__, "--src", str(tree), "--label", label, "--out", str(args.out), "--row", name]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # one BLAS thread, read when numpy loads
            children[label] = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
            advance(label)
        while len(rows) < len(trees):
            for label in trees:
                if label not in rows:
                    children[label].stdin.write("go\n")
                    children[label].stdin.flush()
                    advance(label)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
            child.wait()
    return rows


def run_record(src: Path, layers: dict, paired: bool) -> dict:
    """One tree's run as the output file stores it."""
    sha, dirty = git_sha(src)
    lines = line_counts(src / "indoorqkd")
    return {
        "git_sha": sha,
        "src_has_uncommitted_edits": dirty,
        "source_sha256": source_digest(src / "indoorqkd"),
        "src_lines": sum(lines.values()),
        "src_lines_by_module": lines,
        "clock": "CPU s per call, this process and its waited-for children, not scaled",
        "order": "each row's timed rounds alternate between the two trees (ABAB), the tree that goes first alternating by row"
        if paired else "one tree, row after row",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 in every row's child",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "layers": layers,
    }


def print_layers(label: str, layers: dict) -> None:
    for name, layer in layers.items():
        if "skipped" in layer:
            print(f"{label:>8} {name:46s} skipped: {layer['skipped']}")
            continue
        print(
            f"{label:>8} {name:46s} median {layer['median_s'] * 1e3:10.3f} ms  IQR {layer['iqr_s'] * 1e3:8.3f} ms"
            f"  faults/call {layer['minor_faults_per_call']:10.1f}"
            + (f"  traced peak {layer['tracemalloc_peak_bytes'] / 1e6:7.2f} MB" if "tracemalloc_peak_bytes" in layer else "")
            + (f"  calls/search {layer['evaluate_point_calls']}" if "evaluate_point_calls" in layer else "")
        )


if __name__ == "__main__":
    raise SystemExit(main())
