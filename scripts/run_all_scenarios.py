#!/usr/bin/env python3
"""Produce the standard feasibility maps for all five built-in scenarios.

Writes one sweep.csv + summary.txt pair per scenario under --out.  Lamp
scenarios sweep the lamp PSD over the run's default axis, ambient scenarios
the ambient irradiance over their own; both straddle each scenario's
secure/insecure frontier.  Every other setting is the run's default.
"""

import argparse
from pathlib import Path

from indoorqkd.cli import RunConfig, run
from indoorqkd.experiments import AMBIENT_SCENARIOS, SCENARIOS

AMBIENT_AXIS = dict(source_min=1e-10, source_max=1e-6, source_steps=13, source_scale="log")


def main() -> int:
    defaults = RunConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--resolution", type=int, default=defaults.resolution_patches_per_meter, help="bounce-quadrature rule order (resolution_patches_per_meter)")
    parser.add_argument("--fov-steps", type=int, default=defaults.fov_steps)
    args = parser.parse_args()

    worst = 0
    for name in SCENARIOS:
        axis = AMBIENT_AXIS if name in AMBIENT_SCENARIOS else {}
        config = RunConfig(
            scenario=name,
            fov_steps=args.fov_steps,
            output_dir=str(Path(args.out) / name),
            resolution_patches_per_meter=args.resolution,
            **axis,
        )
        print(f"=== {name} ===")
        worst = max(worst, run(config))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
