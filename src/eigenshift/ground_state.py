"""Dirichlet ground states of -u'' + V u on (a, t).

The operator is discretized by second-order central differences on a uniform
grid; the lowest eigenpair of the resulting tridiagonal matrix, held to its
residual cap and with its ground-state index certified, comes from LAPACK
(see tridiag), and this module holds it to a positive vector.  The ground
state keeps the operator it was solved from.  A left endpoint at -infinity
is realized by a wall where the Agmon distance from the allowed region
reaches a fixed K (truncate_domain), at the cost of one probe eigensolve.

Grid convention: N counts interior nodes, so the grid has N+2 nodes including
both Dirichlet endpoints and spacing h = (t - a_eff) / (N + 1).

This module returns values and payload dicts (``ground_state_metadata``);
the files the CLI writes from them are formatted and written in cli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfinementError,
    DomainError,
    StructureError,
    TruncationError,
)
from .potentials import PotentialSpec, eval_V, validate_confinement
from .tolerances import DEFAULT_TOLS
from .tridiag import TridiagOperator, smallest_eigenpair

MIN_INTERIOR = 16
_PROBE_WIDTH, _PROBE_NODES, _PROBE_HALVINGS = 4.0, 200, 60   # widest probe, nodes, cap
_MARCH_CELLS, _MARCH_CHUNKS = 402, 80                          # cells per chunk, cap
_STEEP = 1.1                            # g changes by more across a cell: log-mean
_CELL_SHARE, _TURN_SHARE = 0.02, 1e-3   # shares of K that a cell, a turning-point
                                        # cell, may add before it is re-marched


@dataclass(frozen=True)
class Domain:
    """Interval (a, t] with a finite or -inf, plus the effective left wall.

    ``a_eff`` equals ``a`` when a is finite; for a = -inf it is the truncation
    abscissa, or None until resolved by the solver.
    """

    a: float
    t: float
    a_eff: float = None

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise DomainError("right endpoint t must be finite")
        if not self.a < self.t:
            raise DomainError(f"need a < t, got a={self.a}, t={self.t}")
        if math.isfinite(self.a):
            if self.a_eff is None:
                object.__setattr__(self, "a_eff", self.a)
            elif self.a_eff != self.a:
                raise DomainError("a_eff must equal a for a finite left endpoint")
        elif self.a_eff is not None and not self.a_eff < self.t:
            raise DomainError("truncation wall a_eff must lie left of t")

    @property
    def resolved(self) -> bool:
        return self.a_eff is not None

    @property
    def unbounded_left(self) -> bool:
        return not math.isfinite(self.a)

    def with_wall(self, a_eff: float) -> "Domain":
        return Domain(self.a, self.t, a_eff)


@dataclass(frozen=True)
class Grid:
    """Uniform grid x[0] = a_eff < ... < x[N+1] = t with N interior nodes."""

    x: np.ndarray
    h: float

    @property
    def n_interior(self) -> int:
        return len(self.x) - 2

    @property
    def interior(self) -> np.ndarray:
        return self.x[1:-1]

    @classmethod
    def build(cls, a_eff: float, t: float, N: int) -> "Grid":
        if N < 1:
            raise DomainError("need at least one interior node")
        x, h = np.linspace(a_eff, t, N + 2, retstep=True)
        return cls(x=x, h=float(h))


@dataclass(frozen=True)
class GroundState:
    """Normalized positive ground state with energy and endpoint fluxes.

    ``u`` lives on the full grid, extended by 0 at both Dirichlet endpoints.
    ``flux_a``/``flux_t`` are one-sided three-point derivatives at the ends,
    ``residual`` the euclidean norm of (T - lambda) v for the unit interior
    vector v, and ``op`` the operator T on the interior nodes that the pair
    was solved from.
    """

    domain: Domain
    grid: Grid
    lam: float
    u: np.ndarray
    flux_a: float
    flux_t: float
    residual: float
    op: TridiagOperator

    @property
    def t(self) -> float:
        return self.domain.t

    @property
    def quad_norm(self) -> float:
        """Trapezoid L2 norm of u on the grid: 1 up to the quadrature error."""
        return float(math.sqrt(np.trapezoid(self.u * self.u, self.grid.x)))


def _operator_on(spec: PotentialSpec, grid: Grid) -> TridiagOperator:
    h2 = grid.h * grid.h
    d = 2.0 / h2 + np.asarray(eval_V(spec, grid.interior), dtype=float)
    if not np.all(np.isfinite(d)):
        raise DomainError("potential is not finite on the working grid")
    e = np.full(grid.n_interior - 1, -1.0 / h2)
    return TridiagOperator(d=d, e=e)


def solve_ground_state(spec: PotentialSpec, domain: Domain, N: int,
                       start: np.ndarray = None) -> GroundState:
    """Compute the positive L2-normalized Dirichlet ground state.

    For a = -inf the wall is resolved by truncate_domain (unless the Domain
    already carries one).  ``start`` (N interior values, any scale), the
    ground state of a nearby problem, starts the inverse iteration in place
    of its cold vector; the result passes the same checks.

    Raises ConfinementError when a = -inf and V does not grow on the left,
    ConvergenceError when the eigensolve fails its own checks, StructureError
    when the vector is not positive.
    """
    if N < MIN_INTERIOR:
        raise DomainError(f"N must be at least {MIN_INTERIOR}")
    domain = _resolve_wall(spec, domain)
    grid = Grid.build(domain.a_eff, domain.t, N)
    op = _operator_on(spec, grid)
    # the pair comes held to its residual cap and with its index certificate
    lam, vec, resid = smallest_eigenpair(op, start=start)
    # orient by the entry of largest magnitude; a tie between +m and -m
    # fails the positivity check either way
    lo, hi = float(vec.min()), float(vec.max())
    if -lo > hi:
        vec, lo, hi = -vec, -hi, -lo
    if hi <= 0 or lo < -DEFAULT_TOLS.pos * hi:
        raise StructureError("ground-state vector is not positive on the interior")
    h = grid.h
    u = np.zeros(N + 2)
    u[1:-1] = vec / math.sqrt(h)

    flux_a = (4.0 * u[1] - u[2]) / (2.0 * h)
    flux_t = (u[-3] - 4.0 * u[-2]) / (2.0 * h)
    return GroundState(domain=domain, grid=grid, lam=lam, u=u,
                       flux_a=float(flux_a), flux_t=float(flux_t),
                       residual=resid, op=op)


def _resolve_wall(spec: PotentialSpec, domain: Domain) -> Domain:
    """``domain`` with its left wall placed: unchanged when already resolved,
    else (a = -inf) the truncate_domain wall for the probe energy at t.

    Raises ConfinementError when V does not grow on the left.
    """
    if domain.resolved:
        return domain
    if not validate_confinement(spec, domain.a):
        raise ConfinementError(
            "V does not tend to +infinity as x -> -infinity; "
            "no ground state on a half-infinite domain"
        )
    w, probe = _probe_lambda(spec, domain.t)
    return domain.with_wall(truncate_domain(spec, domain.t, probe, w))


def _probe_lambda(spec: PotentialSpec, t: float) -> tuple:
    """(w, lambda_probe): the ground energy on the probe interval (t - w, t),
    200 nodes, above the true one and min V there.  w is 4, halved until V
    is finite at every interior node of the probe grid, so a V that
    overflows within 4 of t still gets a probe; V is evaluated once per
    probe grid, and the operator that passes is the one solved.

    Raises DomainError when no such w is found before 60 halvings or before
    t - w rounds to t, where the probe grid would have no width."""
    width = _PROBE_WIDTH
    for _ in range(_PROBE_HALVINGS):
        if not t - width < t:
            break
        try:
            op = _operator_on(spec, Grid.build(t - width, t, _PROBE_NODES))
        except DomainError:
            width *= 0.5
            continue
        return width, smallest_eigenpair(op)[0]
    raise DomainError(f"V is not finite on any probe left of t = {t}")


def truncate_domain(spec: PotentialSpec, t: float, lambda_probe: float,
                    w: float) -> float:
    """The a = -inf wall: the first node left of t where the Agmon distance
    ``int sqrt(max(V - lambda_probe, 0)) dx`` reaches K = ``DEFAULT_TOLS.agmon``.

    The distance counts from the nearest point right of the wall where
    V <= lambda_probe, never from t; u decays like exp(-distance), so the wall
    is scale-free.  No eigensolve: the march sums 402 cells per chunk on
    chunks doubling from the probe's width ``w`` (from ``_probe_lambda``:
    4 unless V overflows within 4 of t; the
    first chunk, (t - w, t), holds a node with V <= lambda_probe), and a
    count that starts in a wider chunk restarts there on chunks of at least
    w.  A cell's integral is the trapezoid, or the log-mean
    h (g1 - g0) / ln(g1 / g0) of g = sqrt(V - lambda_probe) where g changes by
    a factor above 1.1 across the cell.  The first cell that adds more than
    2% of K, or a turning-point cell (g0 = 0) more than 0.1%, is marched
    again in 402 cells of its own, so a steep V neither overshoots K by a
    whole cell nor miscounts its turning point.
    """
    K, dist, width, carry = DEFAULT_TOLS.agmon, 0.0, w, -math.inf
    for _ in range(_MARCH_CHUNKS):
        d = np.linspace(dist, dist + width, _MARCH_CELLS + 1)
        v = eval_V(spec, t - d)
        g = np.sqrt(np.maximum(v - lambda_probe, 0.0))
        half = 0.5 * width / _MARCH_CELLS
        area = half * (g[:-1] + g[1:])
        # a cell across which g changes by a factor above _STEEP: the
        # log-mean, exact for an exponential, where the trapezoid overshoots
        g0, g1 = np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:])
        steep = np.flatnonzero((g1 > _STEEP * g0) & (g0 > 0.0) & (g1 < math.inf))
        area[steep] = 2.0 * half * (g1[steep] - g0[steep]) / (
            np.log(g1[steep]) - np.log(g0[steep]))
        # the count restarts at every node where V <= lambda_probe; before the
        # first one it is -inf, and once V overflows it is inf
        run = np.concatenate(([0.0], np.cumsum(area)))
        last = np.maximum.accumulate(np.where(v <= lambda_probe, np.arange(d.size), -1))
        with np.errstate(invalid="ignore"):   # inf - inf once V overflows
            count = np.where(last >= 0, run - run[np.maximum(last, 0)], carry + run)
        hit = np.flatnonzero(count >= K)
        # too coarse: a cell that adds over 2% of K, or a turning-point cell
        # (g0 = 0, where the trapezoid may be off by half its area) over 0.1%
        coarse = np.flatnonzero(np.isfinite(count[1:])
                                & (area > np.where(g0 > 0.0, _CELL_SHARE, _TURN_SHARE) * K))
        start = last[hit[0]] if hit.size else last[-1]
        if width > w and 0 <= start < _MARCH_CELLS:
            dist, width = float(d[start]), max(w, width / _MARCH_CELLS)
        elif (coarse.size and (not hit.size or coarse[0] < hit[0])
              and width * _MARCH_CELLS >= w):   # cells no finer than w / 402^3
            c = coarse[0]   # march the first coarse cell in cells of its own
            dist, width, carry = float(d[c]), float(d[c + 1] - d[c]), float(count[c])
        elif hit.size:
            return t - float(d[hit[0]])
        else:
            dist, width, carry = dist + width, 2.0 * width, float(count[-1])
    raise TruncationError(f"Agmon distance {K} not reached within {dist:.3e} left of t = {t}")


def rayleigh_energy(gs: GroundState, spec: PotentialSpec) -> float:
    """Discrete energy: forward-difference gradient term plus trapezoid V term.

    Coincides with gs.lam up to roundoff by the summation-by-parts identity of
    the central-difference operator.
    """
    u, x, h = gs.u, gs.grid.x, gs.grid.h
    kinetic = float(np.sum(np.diff(u) ** 2) / h)
    potential = float(np.trapezoid(np.asarray(eval_V(spec, x)) * u * u, x))
    return kinetic + potential


def richardson_lambda(spec: PotentialSpec, domain: Domain, N: int) -> tuple:
    """Eliminate the O(h^2) eigenvalue error from solves at h and h/2.

    Returns (lambda_extrapolated, gs_coarse, gs_fine); 2N+1 interior nodes
    exactly halve the spacing.
    """
    coarse = solve_ground_state(spec, domain, N)
    fine = solve_ground_state(spec, coarse.domain, 2 * N + 1)  # the same wall
    lam = (4.0 * fine.lam - coarse.lam) / 3.0
    return lam, coarse, fine


def ground_state_metadata(gs: GroundState) -> dict:
    return {
        "lambda": gs.lam,
        "flux_a": gs.flux_a,
        "flux_t": gs.flux_t,
        "residual": gs.residual,
        "N": gs.grid.n_interior,
        "a_eff": gs.domain.a_eff,
        "t": gs.domain.t,
    }
