"""Seeded randomized pipeline runs: every invariant on varied configurations.

Complements the closed-form oracle tests with breadth: random members of each
family, finite and half-infinite domains, full solve + derivative bundle, and
the invariant set checked on each. Deterministic via a fixed seed.
"""

import math

import numpy as np

from eigenshift import (
    Domain,
    compute_sensitivity,
    fd_derivatives,
    make_potential,
    rayleigh_energy,
    solve_ground_state,
)

NEG_INF = float("-inf")


def random_case(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        spec = make_potential("quadratic", c0=rng.uniform(-5, 5),
                              c1=rng.uniform(-3, 3), c2=rng.uniform(0.05, 4))
        a = NEG_INF if rng.random() < 0.5 else float(rng.uniform(-4, -0.5))
    elif kind == 1:
        spec = make_potential("abs_shift", shift=rng.uniform(-2, 2))
        a = NEG_INF if rng.random() < 0.5 else float(rng.uniform(-4, -0.5))
    elif kind == 2:
        spec = make_potential("exp_growth", amp=rng.uniform(0.1, 3),
                              rate=rng.uniform(-2, -0.2))
        a = NEG_INF
    elif kind == 3:
        spec = make_potential("exp_growth", amp=rng.uniform(0.1, 3),
                              rate=rng.uniform(0.2, 2))
        a = float(rng.uniform(-3, 0))
    elif kind == 4:
        amp = rng.uniform(0.1, 2)
        spec = make_potential("neg_abs", slope=amp + rng.uniform(0.2, 3),
                              amp=amp, shift=rng.uniform(-1, 1))
        a = NEG_INF
    else:
        spec = make_potential("affine", c0=rng.uniform(-3, 3),
                              c1=rng.uniform(-3, -0.2))
        a = NEG_INF
    t = float(rng.uniform(0.2, 3.0)) + (a if math.isfinite(a) else 0.0)
    return spec, a, t


def test_invariants_hold_on_random_configurations():
    rng = np.random.default_rng(20250810)
    failures = []
    for trial in range(40):
        spec, a, t = random_case(rng)
        gs = solve_ground_state(spec, Domain(a, t), 600)
        sens = compute_sensitivity(gs, spec)
        ld_fd, _, fd_step = fd_derivatives(spec, gs, sens.u_dot)
        h2 = gs.grid.h ** 2
        ld = sens.lambda_dot_flux
        checks = {
            "norm": abs(gs.quad_norm - 1) <= 1e-12,
            "residual": gs.residual <= 1e-8 * (1 + abs(gs.lam)),
            "rayleigh": abs(rayleigh_energy(gs, spec) - gs.lam) <= 1e-8 * (1 + abs(gs.lam)),
            "flux_t": gs.flux_t < 0,
            "ld_negative": ld < 0,
            "route_match": abs(ld - sens.lambda_dot_integral)
                           <= max(1e-5, 60 * h2) * (1 + abs(ld)),
            "orthogonality": sens.orth_residual <= 1e-10,
            "boundary_datum": sens.u_dot[-1] == -gs.flux_t,
            "nodal_interior": gs.domain.a_eff < sens.t0 < t,
            "fd_match": abs(ld - ld_fd) <= max(
                1e-3 * abs(ld_fd), 10 * fd_step ** 2, 60 * h2 * (1 + abs(ld))),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures.append((trial, spec, a, t, bad))
    assert not failures, failures
