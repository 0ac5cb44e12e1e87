"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Grid sizes are pinned per criterion so every stated tolerance is met
with measured margin; the whole module runs in well under two minutes.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import ai_zeros

from eigenshift.cli import main
from eigenshift.ground_state import (
    Domain,
    richardson_lambda,
    solve_ground_state,
)
from eigenshift.potentials import convexity_on, make_potential
from eigenshift.sensitivity import (
    compute_sensitivity,
    fd_derivatives,
    lambda_dot_flux,
    solve_u_dot,
)
from eigenshift.sweep import blowup_profile, sweep

NEG_INF = float("-inf")
PI2 = math.pi * math.pi
AIRY_CONSTANT = 2.33810741          # -a_1, first zero of Ai
assert abs(AIRY_CONSTANT + float(ai_zeros(1)[0][0])) < 5e-9

# battery members with per-member N chosen so the 1e-5 route agreement
# resolves above the O(h^2) floor (half-infinite domains carry a wall about
# 25 energy units deep, hence wide grids)
BATTERY = {
    "free": (make_potential("affine"), 0.0, 1.0, 2001),
    "quadratic": (make_potential("quadratic", c2=1.0), NEG_INF, 0.0, 8001),
    "abs": (make_potential("abs_shift"), NEG_INF, 1.0, 16001),
    "exp": (make_potential("exp_growth"), 0.0, 1.0, 2001),
    "airy": (make_potential("affine", c1=-1.0), NEG_INF, 2.0, 24001),
    "neg_abs": (make_potential("neg_abs", slope=2.0, amp=1.0), NEG_INF, 1.0, 16001),
    "neg_quad_fin": (make_potential("neg_quadratic"), 0.0, 1.0, 2001),
}
ROUTE_MATCH_MEMBERS = ("free", "quadratic", "abs", "exp", "airy")
CONVEX_NONAFFINE = ("quadratic", "abs", "exp")
CONCAVE_NONAFFINE_INF = ("neg_abs",)

SWEEPS = {
    "free": (0.5, 2.0), "quadratic": (-1.0, 2.0), "abs": (0.5, 2.0),
    "exp": (0.5, 2.0), "airy": (0.0, 4.0), "neg_abs": (0.5, 2.5),
    "neg_quad_fin": (0.5, 1.5),
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bundles():
    out = {}
    for key, (spec, a, t, n) in BATTERY.items():
        gs = solve_ground_state(spec, Domain(a, t), n)
        out[key] = (spec, gs, compute_sensitivity(gs, spec))
    return out


def test_criterion_01_free_particle_oracle():
    free = make_potential("affine")
    lam, _, fine = richardson_lambda(free, Domain(0.0, 1.0), 2000)
    rel_lam = abs(lam - PI2) / PI2
    rel_flux = abs(abs(fine.flux_t) - math.sqrt(2) * math.pi) / (math.sqrt(2) * math.pi)
    report("criterion 1 (free-particle oracle)",
           rel_lam <= 1e-8 and rel_flux <= 1e-5,
           f"richardson lambda rel err {rel_lam:.2e} (tol 1e-8), "
           f"u_x(1) rel err {rel_flux:.2e} (tol 1e-5)")


def test_criterion_02_flux_derivative(bundles):
    _, gs, sens = bundles["free"]
    rel = abs(sens.lambda_dot_flux + 2 * PI2) / (2 * PI2)
    free = make_potential("affine")
    centre = solve_ground_state(free, Domain(0.0, 1.0), 4001)
    fd, _, _ = fd_derivatives(free, centre, solve_u_dot(centre, lambda_dot_flux(centre)))
    rel_fd = abs(sens.lambda_dot_flux - fd) / abs(fd)
    report("criterion 2 (boundary-flux first derivative)",
           rel <= 1e-4 and rel_fd <= 1e-4,
           f"lambda_dot rel err {rel:.2e}, vs FD {rel_fd:.2e} (tol 1e-4 each)")


def test_criterion_03_route_agreement(bundles):
    worst_key, worst = "", 0.0
    for key in ROUTE_MATCH_MEMBERS:
        _, gs, sens = bundles[key]
        rel = abs(sens.lambda_dot_flux - sens.lambda_dot_integral) / abs(sens.lambda_dot_flux)
        if rel > worst:
            worst_key, worst = key, rel
    report("criterion 3 (flux vs potential-slope route)",
           worst <= 1e-5,
           f"worst relative mismatch {worst:.2e} on '{worst_key}' (tol 1e-5)")


def test_criterion_04_airy_affine_case(bundles):
    spec, gs, sens = bundles["airy"]
    sw = sweep(spec, NEG_INF, 0.0, 4.0, 9, 24001)
    dev_lam = float(np.max(np.abs(sw.lambdas + sw.ts - AIRY_CONSTANT)))
    dev_ld = float(np.max(np.abs(sw.lambda_dots + 1.0)))
    dev_ldd = abs(sens.lambda_ddot)
    report("criterion 4 (affine tilt / Airy case)",
           dev_lam <= 1e-5 and dev_ld <= 1e-5 and dev_ldd <= 1e-5,
           f"max|lambda+t-{AIRY_CONSTANT}| = {dev_lam:.2e}, "
           f"max|lambda_dot+1| = {dev_ld:.2e}, |lambda_ddot| = {dev_ldd:.2e} "
           "(tol 1e-5 each)")


def test_criterion_05_half_oscillator():
    spec = make_potential("quadratic", c2=1.0)
    gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 6001)
    rel = abs(gs.lam - 3.0) / 3.0
    report("criterion 5 (half harmonic oscillator)",
           rel <= 1e-6, f"lambda = {gs.lam:.9f}, rel err {rel:.2e} (tol 1e-6)")


def test_criterion_06_second_derivative(bundles):
    free, free_gs, free_sens = bundles["free"]
    rel = abs(free_sens.lambda_ddot - 6 * PI2) / (6 * PI2)
    ldd_fd = fd_derivatives(free, free_gs, free_sens.u_dot)[1]
    rel_fd = abs(free_sens.lambda_ddot - ldd_fd) / abs(ldd_fd)
    signs_ok, sign_note = True, []
    for key in CONVEX_NONAFFINE:
        val = bundles[key][2].lambda_ddot
        signs_ok &= val > 0
        sign_note.append(f"{key}:{val:+.3f}")
    for key in CONCAVE_NONAFFINE_INF:
        val = bundles[key][2].lambda_ddot
        signs_ok &= val < 0
        sign_note.append(f"{key}:{val:+.3f}")
    report("criterion 6 (second-derivative formula)",
           rel <= 1e-3 and rel_fd <= 1e-2 and signs_ok,
           f"free rel err {rel:.2e} (tol 1e-3), vs FD {rel_fd:.2e} (tol 1e-2), "
           f"curvature signs {' '.join(sign_note)}")


def test_criterion_07_structure_suite(bundles):
    failures = []
    for key, (spec, gs, sens) in bundles.items():
        umax = float(np.max(gs.u))
        if not (umax > 0 and float(np.min(gs.u[1:-1])) > -1e-9 * umax):
            failures.append(f"{key}: positivity")
        if abs(gs.quad_norm - 1.0) > 1e-12:
            failures.append(f"{key}: norm")
        if sens.orth_residual > 1e-10:
            failures.append(f"{key}: orthogonality {sens.orth_residual:.1e}")
        if not gs.domain.a_eff < sens.t0 < gs.domain.t:
            failures.append(f"{key}: nodal point")
    report("criterion 7 (structure suite)", not failures,
           "u > 0, ||u|| = 1 (tol 1e-12), |<u,u_dot>| <= 1e-10, single interior "
           f"sign change on all {len(bundles)} members"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_08_theorem_sweeps():
    failures = []
    for key, (lo, hi) in SWEEPS.items():
        spec, a, _, _ = BATTERY[key]
        sw = sweep(spec, a, lo, hi, 31, 4001)
        if not sw.monotone_decreasing:
            failures.append(f"{key}: not decreasing")
        cls = convexity_on(spec)
        if cls.is_convex() and not sw.convex_in_t:
            failures.append(f"{key}: convexity clause")
        if cls.is_concave() and not math.isfinite(a) and not sw.concave_in_t:
            failures.append(f"{key}: concavity clause")
    report("criterion 8 (theorem sweep suite)", not failures,
           f"31-point sweeps on {len(SWEEPS)} members: strict decrease plus "
           "curvature clauses within tol_thm"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_09_blowup_rate():
    devs = {}
    for name, spec in [("V=0", make_potential("affine")),
                       ("V=x^2", make_potential("quadratic", c2=1.0))]:
        prof = blowup_profile(spec, 0.0, [0.02, 0.01], 2001)
        devs[name] = abs(prof[-1] - PI2) / PI2
    report("criterion 9 (blow-up rate)",
           all(d <= 1e-3 for d in devs.values()),
           "lambda(a+eps)*eps^2 vs pi^2 at eps=1e-2: "
           + ", ".join(f"{k}: {v:.2e}" for k, v in devs.items()) + " (tol 1e-3)")


def test_criterion_10_determinism(tmp_path):
    runs = {
        "sweep": ["sweep", "--potential", "quadratic:c2=1", "--a", "-inf",
                  "--t-range", "-0.5:1.5:7", "--N", "301", "--format", "csv,json,plot"],
        # verify_report.txt holds verify's stdout
        "verify": ["verify", "--N", "64", "--n-t", "5"],
    }
    same, names = True, []
    for key, args in runs.items():
        d1, d2 = tmp_path / key / "r1", tmp_path / key / "r2"
        code1 = main(args + ["--out-dir", str(d1)])
        code2 = main(args + ["--out-dir", str(d2)])
        same &= code1 == code2 == 0
        pair = sorted(p.name for p in d1.iterdir()) if same else []
        for name in pair:
            same &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
        names += pair
    report("criterion 10 (byte-identical reruns)", same,
           f"{len(names)} artifacts compared byte-for-byte across two runs")
