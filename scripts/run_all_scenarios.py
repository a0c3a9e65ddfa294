#!/usr/bin/env python3
"""Produce the standard feasibility maps for all five built-in scenarios.

Writes one sweep.csv + summary.txt pair per scenario under --out.  Lamp
scenarios sweep the lamp PSD, ambient scenarios the ambient irradiance; axes
are chosen to straddle each scenario's secure/insecure frontier.
"""

import argparse
from pathlib import Path

from indoorqkd.channel import DEFAULT_ORDER
from indoorqkd.cli import RunConfig, run
from indoorqkd.experiments import AMBIENT_SCENARIOS, SCENARIOS

LAMP_AXIS = dict(source_min=1e-7, source_max=1e-4, source_steps=13, source_scale="log")
AMBIENT_AXIS = dict(source_min=1e-10, source_max=1e-6, source_steps=13, source_scale="log")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--resolution", type=int, default=DEFAULT_ORDER, help="bounce-quadrature rule order (resolution_patches_per_meter)")
    parser.add_argument("--fov-steps", type=int, default=29)
    args = parser.parse_args()

    worst = 0
    for name in SCENARIOS:
        axis = AMBIENT_AXIS if name in AMBIENT_SCENARIOS else LAMP_AXIS
        config = RunConfig(
            scenario=name,
            fov_min_deg=2.0,
            fov_max_deg=30.0,
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
