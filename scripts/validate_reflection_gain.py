#!/usr/bin/env python3
"""Cross-check the bounce integral three ways: quadrature, Monte Carlo, closed form.

The closed form only covers acceptance cones that see nothing but floor
(about 33 degrees for the nominal room); wider cones print the two numeric
estimates and '-' for the exact value.
"""

import argparse

from indoorqkd.channel import total_reflected_gain
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.montecarlo import estimate_reflected_gain, floor_cone_closed_form


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=10, help="quadrature rule order")
    parser.add_argument(
        "--fov", type=float, nargs="+", default=[5.0, 11.0, 20.0, 30.0, 45.0, 60.0]
    )
    args = parser.parse_args()

    print(f"{'fov':>5} {'quadrature':>13} {'monte carlo':>13} {'mc stderr':>10} "
          f"{'closed form':>13} {'mc gap':>8}")
    for fov in args.fov:
        room = build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
        quadrature = total_reflected_gain(room, args.resolution)
        mc = estimate_reflected_gain(room, samples=args.samples, seed=args.seed)
        exact = floor_cone_closed_form(room)
        gap = abs(quadrature - mc.value) / mc.value
        exact_text = f"{exact:13.5e}" if exact is not None else f"{'-':>13}"
        print(f"{fov:5.1f} {quadrature:13.5e} {mc.value:13.5e} {mc.std_error:10.1e} "
              f"{exact_text} {gap:8.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
