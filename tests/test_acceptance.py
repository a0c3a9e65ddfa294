"""Acceptance gate: end-to-end checks of the shipped feasibility numbers.

Every test prints exactly one [PASS]/[FAIL] line naming its criterion and
the measured value, then asserts.  Tolerances are part of each criterion.
Run `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import math
import time

import numpy as np
import pytest

from indoorqkd.channel import reflected_gain_convergence, total_reflected_gain
from indoorqkd.experiments import (
    Scenario,
    _largest_secure,
    ambient_tolerance,
    build_setup,
    evaluate_point,
    path_loss_profile,
    secure_fov_boundary,
    sweep,
)
from indoorqkd.geometry import Point3, wall_and_floor_grids
from indoorqkd.keyrate import (
    ProtocolParams,
    binary_entropy,
    secret_key_rate,
)
from indoorqkd.montecarlo import estimate_reflected_gain
from indoorqkd.noise import (
    isotropic_noise_power,
    lamp_noise_photons,
    photons_per_pulse,
)

RUNTIME_LIMIT_S = 30.0


def check(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def psd_tolerance_at_fov(scenario, fov_deg):
    """Largest lamp PSD with a positive rate at a fixed field of view: decades
    from 1e-9 W/nm up to 1e30 W/nm, far past any secure level, then a
    bisection to 0.01 decades."""

    def secure(decades):
        return evaluate_point(scenario, fov_deg, 10.0**decades).report.secure

    decades = _largest_secure(secure, np.arange(-9.0, 31.0).tolist(), 0.01)
    return 0.0 if decades is None else 10.0**decades


def _fmt_boundary(boundary):
    return "none secure" if boundary is None else f"{boundary:.2f} deg"


def test_criterion_1_secure_boundary_center():
    start = time.perf_counter()
    boundary = secure_fov_boundary(Scenario.named("lamp-center"), 1e-5)
    elapsed = time.perf_counter() - start
    ok = boundary is not None and abs(boundary - 11.0) <= 2.0 and elapsed < RUNTIME_LIMIT_S
    check(
        "criterion 1: secure-FOV boundary, center, 1e-5 W/nm",
        ok,
        f"boundary = {_fmt_boundary(boundary)} (target 11 +- 2 deg), {elapsed:.1f} s",
    )


def test_criterion_2_secure_boundary_corner():
    start = time.perf_counter()
    boundary = secure_fov_boundary(Scenario.named("lamp-corner"), 1e-5)
    elapsed = time.perf_counter() - start
    ok = boundary is not None and abs(boundary - 5.0) <= 2.0 and elapsed < RUNTIME_LIMIT_S
    check(
        "criterion 2: secure-FOV boundary, corner, 1e-5 W/nm",
        ok,
        f"boundary = {_fmt_boundary(boundary)} (target 5 +- 2 deg), {elapsed:.1f} s",
    )


def test_criterion_3_key_rate_magnitude():
    point = evaluate_point(Scenario.named("lamp-center"), 5.0, 1e-5)
    rate = point.report.rate
    ok = 1.5e-4 <= rate <= 6.0e-4  # within a factor of two of 3e-4
    check(
        "criterion 3: key rate, center, FOV 5 deg, 1e-5 W/nm",
        ok,
        f"rate = {rate:.3e} bits/pulse (target 3e-4 within factor 2; 30 kbps at 100 MHz)",
    )


def test_criterion_4_ambient_tolerance():
    center = ambient_tolerance(Scenario.named("ambient-only-center"))
    corner = ambient_tolerance(Scenario.named("ambient-only-corner"))
    ok = 1e-9 <= center <= 1e-7 and corner < center
    check(
        "criterion 4: ambient tolerance",
        ok,
        f"center = {center:.2e} W/nm/m^2 (target 1e-8 within a decade), "
        f"corner = {corner:.2e} (must be smaller)",
    )


def test_criterion_5_path_loss_band():
    fovs = tuple(float(f) for f in range(10, 26))
    corner = path_loss_profile(Point3(0.0, 0.0, 0.0), 30.0, fovs)
    center = path_loss_profile(Point3(2.0, 2.0, 0.0), 7.0, fovs)
    in_band = all(40.0 <= loss <= 50.0 for loss in corner)
    ordered = all(c < k for c, k in zip(center, corner))
    check(
        "criterion 5: path-loss band and curve ordering",
        in_band and ordered,
        f"corner 30 deg spans {min(corner):.1f}..{max(corner):.1f} dB over FOV 10..25 deg "
        f"(target 40..50); aligned center 7 deg lower at every FOV: {ordered}",
    )


def test_criterion_6_steering_dominance():
    fovs = (2.0, 5.0, 8.0, 12.0, 20.0, 30.0)
    psds = tuple(float(p) for p in np.logspace(-7, -4, 7))
    plain = sweep(Scenario.named("lamp-corner"), fovs, psds)
    steered = sweep(Scenario.named("lamp-corner-steered"), fovs, psds)
    dominated = bool(np.all(steered.report.rate >= plain.report.rate))
    tol_plain = psd_tolerance_at_fov(Scenario.named("lamp-corner"), 5.0)
    tol_steered = psd_tolerance_at_fov(Scenario.named("lamp-corner-steered"), 5.0)
    ok = dominated and tol_steered > tol_plain
    check(
        "criterion 6: steered corner dominates unsteered corner",
        ok,
        f"pointwise rate dominance on a {len(fovs)}x{len(psds)} grid: {dominated}; "
        f"tolerable PSD at FOV 5 deg: {tol_steered:.2e} vs {tol_plain:.2e} W/nm",
    )


def test_criterion_7_monte_carlo_oracle():
    worst = 0.0
    details = []
    for fov in (5.0, 11.0, 30.0):
        room = build_setup(Scenario.named("lamp-center"), fov, 1e-5).room
        deterministic = total_reflected_gain(room, 10)
        estimate = estimate_reflected_gain(room, samples=10_000_000, seed=7)
        rel = abs(deterministic - estimate.value) / estimate.value
        worst = max(worst, rel)
        details.append(f"{fov:g} deg: {rel:.2%}")
    ok = worst <= 0.02
    check(
        "criterion 7: bounce quadrature vs Monte-Carlo ray sampling (1e7 rays)",
        ok,
        f"relative gap {', '.join(details)} (tolerance 2%)",
    )


def test_criterion_8_property_suite():
    problems = []

    # binary-entropy identities to 1e-12
    if abs(binary_entropy(0.5) - 1.0) > 1e-12:
        problems.append("h(0.5) != 1")
    if binary_entropy(0.0) != 0.0 or binary_entropy(1.0) != 0.0:
        problems.append("h(0)/h(1) != 0")
    for x in np.linspace(0.0, 1.0, 101):
        if abs(binary_entropy(float(x)) - binary_entropy(float(1.0 - x))) > 1e-12:
            problems.append(f"h symmetry broken at {x:.2f}")
            break

    # rate monotone in transmittance and noise on a 50x50 grid, never negative
    protocol = ProtocolParams(mean_photons_per_pulse=0.5)
    etas = np.logspace(-6, 0, 50)
    noises = np.logspace(-9, -2, 50)
    rates = np.array(
        [[secret_key_rate(protocol, float(e), float(n)).rate for n in noises] for e in etas]
    )
    if not np.all(np.diff(rates, axis=0) >= -1e-15):
        problems.append("rate not monotone in transmittance")
    if not np.all(np.diff(rates, axis=1) <= 1e-15):
        problems.append("rate not monotone in noise")
    if rates.min() < 0.0:
        problems.append("negative clamped rate")

    # matched-filter noise counts independent of pulse width, 1e-12 relative
    reference = None
    for tau in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        # the nominal receiver behind the filter matched to tau
        setup = build_setup(Scenario.named("lamp-center", {"pulse_width_s": tau}), 10.0, 0.0)
        ambient = photons_per_pulse(isotropic_noise_power(1e-8, setup.room), setup.detector)
        bounce = lamp_noise_photons(1e-5, setup.room, setup.detector, 6.5e-7)
        if reference is None:
            reference = (ambient, bounce)
        else:
            if abs(ambient - reference[0]) / reference[0] > 1e-12:
                problems.append("ambient counts depend on pulse width")
            if abs(bounce - reference[1]) / reference[1] > 1e-12:
                problems.append("bounce counts depend on pulse width")

    # tessellation conserves area; bounce quadrature converged at the default order
    room = build_setup(Scenario.named("lamp-center"), 30.0, 1e-5).room
    area = sum(g.area() for g in wall_and_floor_grids(room, 10))
    if not math.isclose(area, 4.0 * 4.0 + 4.0 * (4.0 * 3.0), rel_tol=1e-12):
        problems.append("tessellation does not conserve area")
    report = reflected_gain_convergence(room, 10)
    if not report.converged or report.rel_change >= 5e-3:
        problems.append(f"quadrature convergence {report.rel_change:.2%} at the default order")

    check(
        "criterion 8: property suite",
        not problems,
        "entropy identities, 50x50 rate monotonicity and clamping, "
        "matched-filter invariance, area conservation, quadrature convergence"
        + ("" if not problems else "; problems: " + "; ".join(problems)),
    )
