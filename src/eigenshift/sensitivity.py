"""Derivatives of the ground energy with respect to the moving right endpoint.

Two independent first-derivative routes are implemented: the boundary-flux
identity (minus the squared outward derivative at t) and the potential-slope
integral (integral of V' u^2 minus the squared flux at a finite left end).
The derivative field u_dot solves the shifted eigenproblem with inhomogeneous
boundary data; since the shifted operator is singular with kernel u, the
discrete system is solved in bordered (saddle) form, which enforces the
discrete orthogonality of u_dot to u exactly.  The second derivative is
evaluated from u_dot and the nodal point of its single sign change, and both
derivatives are cross-checked against central finite differences in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .ground_state import (
    Domain,
    Grid,
    GroundState,
    MIN_INTERIOR,
    solve_ground_state,
)
from .potentials import PotentialSpec, eval_Vprime, vprime_kinks
from .tolerances import DEFAULT_TOLS
from .tridiag import solve_bordered


@dataclass(frozen=True)
class Sensitivity:
    """First and second endpoint derivatives with their diagnostics."""

    t: float
    lam: float
    lambda_dot_flux: float
    lambda_dot_integral: float
    u_dot: np.ndarray
    t0: float
    lambda_ddot: float
    lambda_dot_fd: float
    lambda_ddot_fd: float
    orth_residual: float
    fd_step: float


def lambda_dot_flux(gs: GroundState) -> float:
    """First derivative from the boundary flux: -(u_x(t))^2, strictly negative."""
    return -gs.flux_t * gs.flux_t


def lambda_dot_integral(gs: GroundState, spec: PotentialSpec) -> float:
    """First derivative from the potential slope: integral of V' u^2, minus
    u_x(a)^2 when the left endpoint is finite (omitted for a = -inf)."""
    val = integrate_vprime_weighted(spec, gs.grid, gs.u * gs.u)
    if not gs.domain.unbounded_left:
        val -= gs.flux_a * gs.flux_a
    return val


def integrate_vprime_weighted(spec: PotentialSpec, grid: Grid, w: np.ndarray,
                              shift: float = 0.0) -> float:
    """Trapezoid quadrature of (V'(x) - shift) * w(x) on the grid.

    V' may jump at kinks of a piecewise-C1 potential; each cell uses the
    one-sided limits valid inside it, and a cell containing a kink strictly
    inside is split at the kink with w interpolated linearly.  Away from kinks
    this is the plain trapezoid rule.
    """
    x, h = grid.x, grid.h
    vp_left_end = np.asarray(eval_Vprime(spec, x[:-1], "right")) - shift
    vp_right_end = np.asarray(eval_Vprime(spec, x[1:], "left")) - shift
    cells = 0.5 * h * (vp_left_end * w[:-1] + vp_right_end * w[1:])
    total = float(np.sum(cells))

    for xi in vprime_kinks(spec):
        if not x[0] < xi < x[-1]:
            continue
        i = int(np.searchsorted(x, xi, side="right")) - 1
        if xi == x[i] or i + 1 >= len(x):
            continue  # kink sits on a node: the sided limits above are exact
        frac = (xi - x[i]) / h
        w_xi = w[i] + frac * (w[i + 1] - w[i])
        vm = eval_Vprime(spec, xi, "left") - shift
        vp = eval_Vprime(spec, xi, "right") - shift
        left = 0.5 * (xi - x[i]) * (vp_left_end[i] * w[i] + vm * w_xi)
        right = 0.5 * (x[i + 1] - xi) * (vp * w_xi + vp_right_end[i] * w[i + 1])
        total += left + right - float(cells[i])
    return total


def solve_u_dot(gs: GroundState, lambda_dot: float) -> np.ndarray:
    """Derivative of the eigenfunction with respect to the right endpoint.

    Solves the shifted equation, on the operator ``gs.op`` the ground state
    was solved from, with source lambda_dot * u and boundary data 0 at the
    left end and -u_x(t) at t (lifted into the right-hand side).
    The singular system is augmented with u as constraint row/column, so the
    returned field satisfies the discrete orthogonality to u exactly.
    Returns u_dot on all grid nodes including the endpoint values.
    """
    h = gs.grid.h
    u_int = gs.u[1:-1]
    beta = -gs.flux_t
    rhs = lambda_dot * u_int
    rhs[-1] += beta / (h * h)
    interior, _mu = solve_bordered(gs.op, gs.lam, u_int, rhs)
    # remove the roundoff left on the constraint row; the correction runs
    # along the kernel of the shifted operator, so the other equations keep
    # their residual
    interior -= (u_int @ interior) / (u_int @ u_int) * u_int
    return np.concatenate(([0.0], interior, [beta]))


def orthogonality_residual(gs: GroundState, u_dot: np.ndarray) -> float:
    """|trapezoid integral of u * u_dot| (u vanishes at both endpoints)."""
    return abs(float(np.trapezoid(gs.u * u_dot, gs.grid.x)))


def find_nodal_point(u_dot: np.ndarray, grid: Grid) -> float:
    """Locate the unique interior sign change of u_dot.

    Values within the dead band tol_sign * max|u_dot| are ignored as roundoff
    (the field decays below floating-point resolution near a deep truncation
    wall).  Raises StructureError when the significant values change sign
    zero times or more than once, which signals a numerical fault.
    """
    interior = u_dot[1:-1]
    band = DEFAULT_TOLS.sign * float(np.max(np.abs(u_dot)))
    idx = np.nonzero(np.abs(interior) > band)[0]
    if len(idx) == 0:
        raise StructureError("u_dot vanishes on the whole interior")
    signs = np.sign(interior[idx])
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    if len(flips) != 1:
        raise StructureError(
            f"u_dot has {len(flips)} interior sign changes, expected exactly 1"
        )
    ineg, ipos = idx[flips[0]], idx[flips[0] + 1]
    x1, x2 = grid.interior[ineg], grid.interior[ipos]
    y1, y2 = interior[ineg], interior[ipos]
    return float(x1 - y1 * (x2 - x1) / (y2 - y1))


def lambda_ddot(gs: GroundState, u_dot: np.ndarray, t0: float,
                spec: PotentialSpec) -> float:
    """Second endpoint derivative of the ground energy.

    Twice the integral of (V'(x) - V'(t0)) u u_dot, plus the boundary term
    -2 u_x(a) u_dot_x(a) at a finite left endpoint (omitted for a = -inf).
    """
    val = 2.0 * integrate_vprime_weighted(spec, gs.grid, gs.u * u_dot,
                                          shift=eval_Vprime(spec, t0))
    if not gs.domain.unbounded_left:
        val -= 2.0 * gs.flux_a * u_dot_flux_left(u_dot, gs.grid)
    return val


def u_dot_flux_left(u_dot: np.ndarray, grid: Grid) -> float:
    """One-sided three-point derivative of u_dot at the left wall."""
    return float((-3.0 * u_dot[0] + 4.0 * u_dot[1] - u_dot[2]) / (2.0 * grid.h))


def fd_cells(centre: GroundState, h_t: float) -> int:
    """The FD step h_t in whole cells of the centre grid, at least one."""
    return max(1, round(h_t / centre.grid.h))


def fd_derivatives(spec: PotentialSpec, centre: GroundState, h_t: float) -> tuple:
    """Central finite differences of lambda in t: independent derivative oracle.

    ``centre`` is the ground state solved at t on N nodes.  The step snaps to
    m = fd_cells(centre, h_t) cells: the solves at t -+ m h keep the centre's
    wall and spacing on N -+ m nodes, starting from its vector truncated or
    zero-padded, so the three grids share their nodes and a kink of V keeps
    its place in its cell.
    """
    domain, N, m = centre.domain, centre.grid.n_interior, fd_cells(centre, h_t)
    if N - m < MIN_INTERIOR:
        raise DomainError(f"FD step of {m} cells leaves under {MIN_INTERIOR} nodes at t - m h")
    step, start = m * centre.grid.h, centre.u[1:-1]
    lam_lo, lam_hi = (
        solve_ground_state(spec, Domain(domain.a, domain.t + sign * step, domain.a_eff),
                           N + sign * m, start=vec).lam
        for sign, vec in ((-1, start[:N - m]), (1, np.concatenate((start, np.zeros(m)))))
    )
    ld = (lam_hi - lam_lo) / (2.0 * step)
    ldd = (lam_hi - 2.0 * centre.lam + lam_lo) / (step * step)
    return ld, ldd


def compute_sensitivity(gs: GroundState, spec: PotentialSpec,
                        h_t: float = None) -> Sensitivity:
    """Full derivative bundle for one solved ground state.

    The u_dot solve takes its source term from the flux formula (the coupled
    system), never from the FD estimate, which stays a pure cross-check.
    ``fd_step`` is ``h_t`` (default ``h_t_factor * (t - a_eff)``) in whole cells.
    """
    ld_flux = lambda_dot_flux(gs)
    ld_int = lambda_dot_integral(gs, spec)
    u_dot = solve_u_dot(gs, ld_flux)
    orth = orthogonality_residual(gs, u_dot)
    t0 = find_nodal_point(u_dot, gs.grid)
    ldd = lambda_ddot(gs, u_dot, t0, spec)
    if h_t is None:
        h_t = DEFAULT_TOLS.h_t_factor * (gs.t - gs.domain.a_eff)
    ld_fd, ldd_fd = fd_derivatives(spec, gs, h_t)
    return Sensitivity(
        t=gs.t, lam=gs.lam,
        lambda_dot_flux=ld_flux, lambda_dot_integral=ld_int,
        u_dot=u_dot, t0=t0, lambda_ddot=ldd,
        lambda_dot_fd=ld_fd, lambda_ddot_fd=ldd_fd,
        orth_residual=orth, fd_step=fd_cells(gs, h_t) * gs.grid.h,
    )


def sensitivity_metadata(sens: Sensitivity) -> dict:
    return {
        "t": sens.t,
        "lambda": sens.lam,
        "lambda_dot_flux": sens.lambda_dot_flux,
        "lambda_dot_integral": sens.lambda_dot_integral,
        "lambda_ddot": sens.lambda_ddot,
        "lambda_dot_fd": sens.lambda_dot_fd,
        "lambda_ddot_fd": sens.lambda_ddot_fd,
        "fd_step": sens.fd_step,
        "t0": sens.t0,
        "orth_residual": sens.orth_residual,
    }

