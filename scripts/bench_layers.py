#!/usr/bin/env python3
"""Per-layer timings of the feasibility-map pipeline, written to a JSON file.

Each layer is timed as the median and interquartile range over ROUNDS
runs, after one untimed warm-up run.  A round's time is CPU time, this
process's plus that of the child processes it waited for, divided by the
host's slowdown: perfbench's fixed reference work (``hostspeed.Reference``)
runs before and after each round, and the mean of its two slowdown factors
scales the round to the reference box at full speed, as perfbench does for
its op times.  The layers:

* total_reflected_gain, lamp-center at FOV 20 deg, at patches_per_meter
  10/20/40/80 (a rule order since the quadrature replaced the patch sum),
  each call with the room's receiver view already built and the integral
  not yet in it;
* one block of 64 psi nodes (0.01-1.5 rad) of the quadrature's ring
  integrals, lamp-center with the lamp at (1.3, 2.0): the row divided by 64
  is the cost of one psi node;
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
  FOV 20 deg;
* a CLI run with the default config, a CLI run of the 90 x 90
  ambient-only-center map above (the shape of a perfbench ambient-map op:
  sweep, ambient tolerance, sweep.csv and summary.txt), and
  scripts/run_all_scenarios.py, each in a fresh Python process so that
  imports count; their value is the sha256 of the files they write.

Rows that take microseconds time CALLS calls per round and report the time
per call.

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
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
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


def timed(run, before=lambda: None, calls: int = 1) -> dict:
    before()
    value = run()  # warm-up, and the value recorded for the layer
    times, slowdowns = [], []
    for _ in range(ROUNDS):
        before()
        slow_before = REFERENCE.slowdown()
        start = cpu_s()
        for _ in range(calls):
            run()
        spent = cpu_s() - start
        slowdowns.append(0.5 * (slow_before + REFERENCE.slowdown()))
        times.append(spent / calls / slowdowns[-1])
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "median_s": median, "iqr_s": q3 - q1, "rounds": ROUNDS, "calls_per_round": calls,
        "times_s": times, "host_slowdowns": slowdowns, "value": value,
    }


def outputs_digest(command: list[str], src: Path) -> str:
    """Run ``command --out DIR`` against ``src`` and hash the files it writes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([*command, "--out", out], check=True, capture_output=True, env=env)
        digest = hashlib.sha256()
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def secure_count(point) -> int:
    # sweep returns one OperatingPoint over the whole (FOV, level) grid
    return int(np.count_nonzero(point.report.secure))


def line_count(package: Path) -> int:
    """Lines of the package's modules, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write (runs with other labels stay)")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from indoorqkd import channel, experiments
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

    def without_integrals() -> None:  # keep the views, drop the integrals a view holds
        for view in views.values():
            getattr(view, "integrals", {}).clear()

    fovs = tuple(0.9 * (k + 1) for k in range(100))
    levels = tuple(10.0 ** (-7.0 + 3.0 * k / 99) for k in range(100))
    ambient = Scenario.named("ambient-only-center")
    ambient_fovs = tuple(np.linspace(2.0, 30.0, 90).tolist())
    ambient_levels = tuple(np.logspace(-9.0, -5.0, 90).tolist())
    noises = np.logspace(-9.0, -2.0, 90)

    def batch_rates() -> float:
        return sum(secret_key_rate(setup.protocol, 1e-3, noises).rate.tolist())

    layers = {}
    for res in RESOLUTIONS:
        layers[f"total_reflected_gain_{res}_per_m"] = timed(lambda: total_reflected_gain(room, res), without_integrals)
    offset = build_setup(Scenario.named("lamp-center", {"lamp_x_m": 1.3}), 20.0, 1e-5).room
    view, psi = channel._ReceiverView(offset), np.linspace(0.01, 1.5, 64)
    layers["ring_integrals_64_psi_nodes"] = timed(lambda: float(view.ring_integrals(psi).sum()), calls=20)
    layers["sweep_100x100_cold_10_per_m"] = timed(
        lambda: secure_count(sweep(scenario, fovs, levels, patches_per_meter=10)), cold
    )
    layers["secure_fov_boundary_cold_10_per_m"] = timed(
        lambda: secure_fov_boundary(scenario, 1e-5, patches_per_meter=10), cold
    )
    layers["secret_key_rate_scalar"] = timed(
        lambda: float(secret_key_rate(setup.protocol, 1e-3, 1e-6).rate), calls=CALLS
    )
    layers["secret_key_rate_batch_90"] = timed(batch_rates, calls=CALLS)
    layers["evaluate_point_warm_10_per_m"] = timed(
        lambda: float(evaluate_point(scenario, 20.0, 1e-5, patches_per_meter=10).report.rate), calls=CALLS
    )
    layers["sweep_90x90_ambient_only_center_cold"] = timed(
        lambda: secure_count(sweep(ambient, ambient_fovs, ambient_levels)), cold
    )
    layers["ambient_tolerance_cold"] = timed(
        lambda: ambient_tolerance(ambient, fov_floor_deg=2.0), cold
    )
    for label, rays in (("1e6", 1_000_000), ("1e7", 10_000_000)):
        layers[f"estimate_reflected_gain_{label}_rays"] = timed(
            lambda: estimate_reflected_gain(room, samples=rays, seed=7).value
        )
    layers["cli_default_run_subprocess"] = timed(
        lambda: outputs_digest([sys.executable, "-m", "indoorqkd.cli"], src)
    )
    with tempfile.TemporaryDirectory() as config_dir:
        ambient_ini = Path(config_dir) / "ambient_90x90.ini"
        ambient_ini.write_text(
            "[experiments]\nscenario = ambient-only-center\n"
            "fov_min_deg = 2\nfov_max_deg = 30\nfov_steps = 90\n"
            "source_min = 1e-9\nsource_max = 1e-5\nsource_steps = 90\nsource_scale = log\n"
        )
        layers["cli_ambient_90x90_subprocess"] = timed(
            lambda: outputs_digest([sys.executable, "-m", "indoorqkd.cli", str(ambient_ini)], src)
        )
    layers["run_all_scenarios_subprocess"] = timed(
        lambda: outputs_digest([sys.executable, str(src.parent / "scripts" / "run_all_scenarios.py")], src)
    )

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
        print(f"{args.label:>8} {name:38s} median {layer['median_s'] * 1e3:10.3f} ms  IQR {layer['iqr_s'] * 1e3:8.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
