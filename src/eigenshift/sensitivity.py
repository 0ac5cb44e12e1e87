"""Derivatives of the ground energy with respect to the moving right endpoint.

Two first-derivative routes: the boundary flux (minus the squared outward
derivative at t) and the integral of V' u^2 (less the squared flux at a
finite left end).  The field u_dot solves the singular shifted eigenproblem
with inhomogeneous boundary data in bordered (saddle) form, so it is
discretely orthogonal to u.  The second derivative comes from u_dot and its
nodal point.  Central finite differences in t, an independent oracle that
verify and the tests call, cross-check both; their side energies come from
the centre's operator extended past t, started from u +- s u_dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, RangeError, StructureError
from .ground_state import MIN_INTERIOR, Grid, GroundState, _operator_on
from .potentials import PotentialSpec, eval_Vprime, vprime_kinks
from .tolerances import DEFAULT_TOLS
from .tridiag import TridiagOperator, blas, row_sums, smallest_eigenpair, solve_bordered

_EPS = float(np.finfo(float).eps)


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
    orth_residual: float


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

    V' may jump at the kinks of a piecewise-C1 potential.  One rule serves
    every kink: a cell x[i] < x <= x[i+1] that holds kinks, one or many (a
    table's knots can lie closer than h), is split at all of them, with w
    interpolated linearly, w[i] + (s - x[i]) / h (w[i+1] - w[i]); each piece
    takes V''s one-sided limits from inside it, and the pieces' trapezoids
    replace the cell's.  Kink-free cells, and so every smooth potential,
    take the plain trapezoid rule.
    """
    x, h = grid.x, grid.h
    # V' once, as the right limit, which every kink-free cell reads
    vr = eval_Vprime(spec, x, "right") - shift
    cells = vr[1:] * w[1:]
    cells += vr[:-1] * w[:-1]
    cells *= 0.5 * h
    total = float(np.sum(cells))
    s = np.sort(vprime_kinks(spec))
    s = s[(x[0] < s) & (s <= x[-1])]
    if s.size:
        i = np.searchsorted(x, s) - 1   # x[i] < s <= x[i+1], ascending
        split = i[np.diff(i, prepend=-1) > 0]
        # each split cell's points in order, x[i], its kinks, x[i+1]: a
        # stable sort on the cell keeps the order of the blocks within it
        cell = np.concatenate((split, i, split))
        p = np.concatenate((x[split], s, x[split + 1]))
        wp = np.concatenate((w[split], w[i] + (s - x[i]) / h * (w[i + 1] - w[i]), w[split + 1]))
        order = np.argsort(cell, kind="stable")
        cell, p, wp = cell[order], p[order], wp[order]
        # a piece joins two points of one cell: the right limit at its start,
        # the left limit at its end
        vp = (eval_Vprime(spec, p, "right") - shift) * wp
        vm = (eval_Vprime(spec, p, "left") - shift) * wp
        pieces = 0.5 * np.diff(p) * (vp[:-1] + vm[1:])
        total += float(np.sum(pieces[cell[1:] == cell[:-1]])) - float(np.sum(cells[split]))
    return total


def solve_u_dot(gs: GroundState, lambda_dot: float) -> np.ndarray:
    """Derivative of the eigenfunction with respect to the right endpoint.

    Solves the shifted equation, on the operator ``gs.op`` the ground state
    was solved from, with source lambda_dot * u and boundary data 0 at the
    left end and -u_x(t) at t (lifted into the right-hand side).
    The singular system is augmented with u as constraint row/column, so the
    returned field satisfies the discrete orthogonality to u exactly.
    Returns u_dot on all grid nodes including the endpoint values.  Raises
    DomainError when that source overflows, on an interval too short for it.
    """
    h, ld = gs.grid.h, float(lambda_dot)
    u_int = gs.u[1:-1]
    beta = -gs.flux_t
    # ld u is largest in magnitude where |u| is; Python floats overflow to
    # inf without a warning
    peak = abs(ld) * max(float(u_int.max()), -float(u_int.min()))
    last = ld * float(u_int[-1]) + beta / (h * h)
    if not (math.isfinite(peak) and math.isfinite(last)):
        raise DomainError(f"grid spacing h = {h:.6g} is too small: u_dot's source "
                          f"lambda_dot u + u_x(t) / h^2 overflows")
    rhs = ld * u_int
    rhs[-1] = last
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

    Exact zeros (the field can underflow near a deep truncation wall) carry
    no sign and are skipped; every other value counts, however small, so a
    lobe that is tiny beside the field's maximum still has its sign.  Raises
    StructureError when the nonzero values change sign zero times or more
    than once, which signals a numerical fault.
    """
    interior = u_dot[1:-1]
    idx = np.flatnonzero(interior)
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


def _fd_step(gs: GroundState) -> float:
    """The FD oracle's step h_t before it snaps to whole cells.

    h_t = max(h_t_factor (t - a_eff), 25 sqrt(eps local) / (lambda - min V)),
    local = ||(|T| 1) v|| for the unit interior vector v (the scale
    ``smallest_eigenpair`` judges its pair on), min V the smallest d - 2/h^2.
    lambda is rounded at about eps local, so the second difference carries
    about 4 eps local / h_t^2 of rounding; the second term keeps that under
    1% of the curvature scale 6 (lambda - min V)^2 / pi^2 (exact for the
    free particle), and is scale-free in cells under V -> s^2 V(s x).  inf
    when lambda does not clear min V in floating point.
    """
    op, h = gs.op, gs.grid.h
    local = blas.dnrm2(row_sums(op) * gs.u[1:-1]) * math.sqrt(h)
    gap = gs.lam - (float(np.min(op.d)) - 2.0 / (h * h))
    rounding = 25.0 * math.sqrt(_EPS * local) / gap if gap > 0 else math.inf
    return max(DEFAULT_TOLS.h_t_factor * (gs.t - gs.domain.a_eff), rounding)


def _fd_cells(gs: GroundState) -> int:
    """``_fd_step`` snapped to m >= 1 whole cells h.  Raises ConditioningError
    when the step leaves under MIN_INTERIOR nodes at t - m h."""
    N, h, h_t = gs.grid.n_interior, gs.grid.h, _fd_step(gs)
    # inf and nan fail here too
    if not h_t / h < N - MIN_INTERIOR + 0.5:
        raise ConditioningError(
            f"lambda's rounding swamps its curvature on this grid: the FD step "
            f"{h_t:.6g} leaves under {MIN_INTERIOR} nodes at t - m h")
    return max(1, round(h_t / h))


def fd_derivatives(spec: PotentialSpec, centre: GroundState, u_dot: np.ndarray) -> tuple:
    """Central finite differences of lambda in t: independent derivative oracle.

    ``centre`` is the ground state at t on N nodes, ``u_dot`` its
    ``solve_u_dot`` field; returns (lambda_dot_fd, lambda_ddot_fd, s), s being
    ``_fd_step`` snapped to m >= 1 cells h.  lambda(t +- s) are the lowest
    eigenvalues of ``centre.op`` extended by the m rows at t, t + h, ... and
    of its leading N - m rows, both with its off-diagonal value, started from
    u + s u_dot with the tail -flux_t (t + s - x) and from that pair's vector
    less 2 s u_dot.  Raises ConditioningError when the step leaves under
    MIN_INTERIOR nodes at t - s, RangeError when a table ends before t + s - h.
    """
    N, h, m = centre.grid.n_interior, centre.grid.h, _fd_cells(centre)
    t, s = centre.t, m * h
    # the new rows' nodes t + j h, 0 <= j < m, between two unused ends
    x = np.arange(-1.0, m + 1)
    x *= h
    x += t
    try:
        rows = _operator_on(spec, Grid(x, h))
    except RangeError as err:
        raise RangeError(f"the FD oracle's step {s:.6g} at t = {t!r} needs V "
                         f"beyond the table: {err}") from None
    d, c = np.concatenate((centre.op.d, rows.d)), centre.op.c
    start = np.empty(N + m)
    np.multiply(u_dot[1:-1], s, out=start[:N])
    start[:N] += centre.u[1:-1]
    np.subtract(t + s, x[1:-1], out=start[N:])
    start[N:] *= -centre.flux_t
    lam_hi, vec, _ = smallest_eigenpair(TridiagOperator(d, c), start)
    # u(t - s) = u(t + s) - 2 s u_dot + O(s^3), u(t + s) being vec held
    # positive, in u's units; built over vec, once the + start is freed
    start = vec[:N - m]
    start /= (-1.0 if -vec.min() > vec.max() else 1.0) * math.sqrt(h)
    start -= (2.0 * s) * u_dot[1:N - m + 1]
    lam_lo = smallest_eigenpair(TridiagOperator(d[:N - m], c), start)[0]
    return ((lam_hi - lam_lo) / (2.0 * s),
            (lam_hi - 2.0 * centre.lam + lam_lo) / (s * s), s)


def compute_sensitivity(gs: GroundState, spec: PotentialSpec) -> Sensitivity:
    """Full derivative bundle for one solved ground state.

    Every value comes from the analytic routes: u_dot takes its source term
    from the flux formula, and lambda_ddot its integral from u_dot.  The FD
    oracle does not run, but its step guard does: where lambda's rounding
    swamps its curvature, so that ``fd_derivatives`` has no step on the grid,
    this raises the same ConditioningError.  Raises DomainError when
    lambda_ddot overflows.
    """
    ld_flux = lambda_dot_flux(gs)
    ld_int = lambda_dot_integral(gs, spec)
    u_dot = solve_u_dot(gs, ld_flux)
    orth = orthogonality_residual(gs, u_dot)
    t0 = find_nodal_point(u_dot, gs.grid)
    ldd = lambda_ddot(gs, u_dot, t0, spec)
    if not math.isfinite(ldd):
        raise DomainError(f"lambda_ddot = {ldd!r} is not finite on this interval")
    _fd_cells(gs)   # the oracle's guard: an answer it could not check is refused
    return Sensitivity(
        t=gs.t, lam=gs.lam,
        lambda_dot_flux=ld_flux, lambda_dot_integral=ld_int,
        u_dot=u_dot, t0=t0, lambda_ddot=ldd, orth_residual=orth,
    )


def sensitivity_metadata(sens: Sensitivity) -> dict:
    return {
        "t": sens.t,
        "lambda": sens.lam,
        "lambda_dot_flux": sens.lambda_dot_flux,
        "lambda_dot_integral": sens.lambda_dot_integral,
        "lambda_ddot": sens.lambda_ddot,
        "t0": sens.t0,
        "orth_residual": sens.orth_residual,
    }

