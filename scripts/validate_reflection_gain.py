#!/usr/bin/env python3
"""Cross-check the bounce integral three ways: quadrature, Monte Carlo, closed form.

The closed form only covers acceptance cones that see nothing but floor
(about 33 degrees for the nominal room); wider cones print the two numeric
estimates and '-' for the exact value.  A cone so narrow that no sampled ray
lands in it prints a Monte-Carlo value of 0 and '-' for the gap.
"""

import argparse

from indoorqkd.channel import DEFAULT_ORDER, MAX_ORDER, total_reflected_gain
from indoorqkd.experiments import Scenario, build_setup
from indoorqkd.geometry import _count
from indoorqkd.montecarlo import _MOST_SAMPLES, estimate_reflected_gain, floor_cone_closed_form


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=DEFAULT_ORDER, help="quadrature rule order")
    parser.add_argument(
        "--fov", type=float, nargs="+", default=[5.0, 11.0, 20.0, 30.0, 45.0, 60.0]
    )
    args = parser.parse_args()
    # the library's count rule and bounds, before any row prints
    for name, least, most in (("samples", 1, _MOST_SAMPLES), ("resolution", 1, MAX_ORDER), ("seed", 0, None)):
        try:
            _count(name, getattr(args, name), least, most)
        except ValueError as error:
            parser.error(f"argument --{name}: {error}")
    try:  # the room's own rules name a bad FOV, before any row prints
        rooms = [build_setup(Scenario.named("lamp-center"), fov, 1e-5).room for fov in args.fov]
    except ValueError as error:
        parser.error(f"argument --fov: {error}")

    print(f"{'fov':>5} {'quadrature':>13} {'monte carlo':>13} {'mc stderr':>10} "
          f"{'closed form':>13} {'mc gap':>8}")
    for fov, room in zip(args.fov, rooms):
        quadrature = total_reflected_gain(room, args.resolution)
        mc = estimate_reflected_gain(room, samples=args.samples, seed=args.seed)
        exact = floor_cone_closed_form(room)
        exact_text = f"{exact:13.5e}" if exact is not None else f"{'-':>13}"
        # no ray landed in the cone: there is no estimate to measure a gap against
        gap_text = f"{abs(quadrature - mc.value) / mc.value:8.2%}" if mc.value > 0.0 else f"{'-':>8}"
        print(f"{fov:>5g} {quadrature:13.5e} {mc.value:13.5e} {mc.std_error:10.1e} "
              f"{exact_text} {gap_text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
