"""Dirichlet ground states of -u'' + V u on (a, t).

The operator is discretized by second-order central differences on a uniform
grid; the lowest eigenpair of the resulting tridiagonal matrix comes from
LAPACK (see tridiag).  A left endpoint at -infinity is realized by a
truncation wall placed deep in the classically forbidden region and validated
by a doubling convergence check.

Grid convention: N counts interior nodes, so the grid has N+2 nodes including
both Dirichlet endpoints and spacing h = (t - a_eff) / (N + 1).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfinementError,
    ConvergenceError,
    DomainError,
    StructureError,
    TruncationError,
)
from .potentials import PotentialSpec, eval_V, validate_confinement
from .tolerances import DEFAULT_TOLS
from .tridiag import TridiagOperator, smallest_eigenpair

MIN_INTERIOR = 16


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
    ``residual`` the discrete L2 norm of (-D2 + V - lambda) u.
    """

    domain: Domain
    grid: Grid
    lam: float
    u: np.ndarray
    flux_a: float
    flux_t: float
    residual: float
    quad_norm: float

    @property
    def t(self) -> float:
        return self.domain.t


def discretize(spec: PotentialSpec, domain: Domain, N: int) -> TridiagOperator:
    """Central-difference Dirichlet discretization on N interior nodes.

    Diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2; symmetric tridiagonal.
    """
    if not domain.resolved:
        raise DomainError("domain has no resolved left wall; truncate first")
    grid = Grid.build(domain.a_eff, domain.t, N)
    return _operator_on(spec, grid)


def _operator_on(spec: PotentialSpec, grid: Grid) -> TridiagOperator:
    h2 = grid.h * grid.h
    d = 2.0 / h2 + np.asarray(eval_V(spec, grid.interior), dtype=float)
    if not np.all(np.isfinite(d)):
        raise DomainError("potential is not finite on the working grid")
    e = np.full(grid.n_interior - 1, -1.0 / h2)
    return TridiagOperator(d=d, e=e)


def _solve_on_grid(spec: PotentialSpec, grid: Grid, start: np.ndarray = None):
    op = _operator_on(spec, grid)
    lam, vec, resid = smallest_eigenpair(op, start=start)

    # confirm we hold the smallest eigenvalue: T - (lam - eps) positive
    # definite, so no spectrum below lam - eps.  eps must clear the
    # factorisation's own resolution, a few ulps of ||T||.
    scale = float(np.max(np.abs(op.d))) + 2.0 * (float(np.max(np.abs(op.e))) if op.n > 1 else 0.0)
    eps_gap = max(1e-10 * (1.0 + abs(lam)), 256.0 * np.finfo(float).eps * scale)
    if not op.spectrum_above(lam - eps_gap):
        raise ConvergenceError("converged to an excited state, not the ground state")

    cap = max(DEFAULT_TOLS.res * (1.0 + abs(lam)), 64.0 * np.finfo(float).eps * scale)
    if resid > cap:
        raise ConvergenceError(f"eigen-residual {resid:.3e} above cap {cap:.3e}")

    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    vmax = float(vec.max())
    if vmax <= 0 or float(vec.min()) < -DEFAULT_TOLS.pos * vmax:
        raise StructureError("ground-state vector is not positive on the interior")
    return lam, vec, resid


def solve_ground_state(spec: PotentialSpec, domain: Domain, N: int,
                       start: np.ndarray = None) -> GroundState:
    """Compute the positive L2-normalized Dirichlet ground state.

    For a = -inf the wall is resolved by truncate_domain (unless the Domain
    already carries one).  ``start`` (N interior values, any scale), the
    ground state of a nearby problem with the same N, starts the inverse
    iteration in place of its cold vector; the result passes the same checks.

    Raises ConfinementError when a = -inf and V does not grow on the left,
    ConvergenceError when the eigensolve fails its own checks.
    """
    if N < MIN_INTERIOR:
        raise DomainError(f"N must be at least {MIN_INTERIOR}")
    domain = _resolve_wall(spec, domain)
    grid = Grid.build(domain.a_eff, domain.t, N)
    lam, vec, resid = _solve_on_grid(spec, grid, start)
    h = grid.h
    u = np.zeros(N + 2)
    u[1:-1] = vec / math.sqrt(h)

    quad_norm = float(math.sqrt(np.trapezoid(u * u, grid.x)))
    flux_a = (4.0 * u[1] - u[2]) / (2.0 * h)
    flux_t = (u[-3] - 4.0 * u[-2]) / (2.0 * h)
    return GroundState(domain=domain, grid=grid, lam=lam, u=u,
                       flux_a=float(flux_a), flux_t=float(flux_t),
                       residual=resid, quad_norm=quad_norm)


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
    probe = _probe_lambda(spec, domain.t)
    return domain.with_wall(truncate_domain(spec, domain.t, probe))


def _probe_lambda(spec: PotentialSpec, t: float, width: float = 4.0,
                  n: int = 200) -> float:
    """Ground energy on the clipped domain (t-width, t) with n interior nodes.

    Restricting the domain can only raise the ground energy, so the probe is a
    safe input for the wall-placement threshold.
    """
    grid = Grid.build(t - width, t, n)
    return smallest_eigenpair(_operator_on(spec, grid))[0]


def truncate_domain(spec: PotentialSpec, t: float, lambda_probe: float) -> float:
    """Place the artificial wall for a = -inf.

    Returns a_eff with V(a_eff) >= lambda_probe + margin such that doubling
    the wall distance moves the computed ground energy by less than the
    truncation tolerance.  Found by leftward geometric search.
    """
    n_check, max_doublings = 800, 40
    threshold = lambda_probe + DEFAULT_TOLS.margin
    dist = max(1.0, abs(t) * 0.5)
    for _ in range(max_doublings):
        if eval_V(spec, t - dist) >= threshold:
            break
        dist *= 2.0
    else:
        raise TruncationError("no wall with V >= lambda + margin within search cap")

    for _ in range(max_doublings):
        # 2n+1 interior nodes keep h identical at both wall distances, so the
        # h^2 discretization error cancels in the check
        lam_1 = _probe_lambda(spec, t, dist, n_check)
        lam_2 = _probe_lambda(spec, t, 2.0 * dist, 2 * n_check + 1)
        if abs(lam_1 - lam_2) < DEFAULT_TOLS.trunc:
            return t - dist
        dist *= 2.0
        if eval_V(spec, t - dist) < threshold:
            raise TruncationError("potential dips below threshold while doubling")
    raise TruncationError("doubling convergence check did not stabilize")


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
    fine_domain = coarse.domain  # reuse the resolved wall
    fine = solve_ground_state(spec, fine_domain, 2 * N + 1)
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


def write_ground_state_json(gs: GroundState, path) -> None:
    with open(path, "w") as fh:
        json.dump(ground_state_metadata(gs), fh, indent=2)
        fh.write("\n")


# %.16e columns.  A value v with _VEC_MIN <= |v| <= _VEC_MAX is printed from
# X = |v| * 10^(16 - e), e = floor(log10 |v|), formed as a double-double by
# Dekker's error-free product (Numer. Math. 18, 1971) against 10^p stored as a
# (hi, lo) pair: X is good to about 1e-14 absolute, so its nearest integer,
# the 17 printed digits, is decided unless X lies within _TIE_BAND of a half.
# Those values, zeros, non-finite values and |v| outside the range go to the
# exact per-value "%.16e" % v (_exact_fields), as in Grisu3 (Loitsch, PLDI
# 2010).  The range keeps every partial product of the split normal.
_VEC_MIN, _VEC_MAX = 1e-280, 1e280
_E_LO, _E_HI = -283, 282          # decimal exponents the kernel may try
_TIE_BAND = 1e-9
_SPLIT = 134217729.0              # 2^27 + 1
_BLOCK = 8192                     # values per block, bounding the temporaries
_FIELD = 24                       # longest %.16e field: -d.dddddddddddddddde-ddd
_FILL = 0                         # filler byte, removed before decoding
_D_LO, _D_HI = 10 ** 16, 10 ** 17


@functools.cache
def _pow10_table() -> tuple:
    """hi, lo, and the Dekker halves of hi, for 10^p with p = 16 - e.

    hi is 10^p correctly rounded and lo the rounded remainder, both from
    exact integer arithmetic (int / int is correctly rounded).  Built on
    first use.
    """
    his, los = [], []
    for p in range(16 - _E_HI, 16 - _E_LO + 1):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            den = 10 ** -p
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (den * two)
        his.append(hi)
        los.append(lo)
    hi, lo = np.array(his), np.array(los)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, lo, hi_h, hi - hi_h


def _scaled(a, e) -> tuple:
    """floor(a * 10^(16 - e)) as int64 and the fraction left over (a = |v|)."""
    hi, lo, hi_h, hi_l = (col[_E_HI - e] for col in _pow10_table())
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * hi
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    whole = np.floor(p)
    r = (p - whole) + (err + a * lo)
    r_whole = np.floor(r)
    return whole.astype(np.int64) + r_whole.astype(np.int64), r - r_whole


def _exact_fields(values) -> np.ndarray:
    """``"%.16e" % v`` for each value, as rows of _FIELD bytes padded with
    _FILL."""
    text = "".join(("%.16e" % v).ljust(_FIELD, "\0") for v in values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FIELD)


def _format_block(v, ends) -> bytes:
    """Rows of one block: ``v`` is the block's values row by row and ``ends``
    the bytes after each field (separator or newline), one row per value."""
    a = np.abs(v)
    fast = (a >= _VEC_MIN) & (a <= _VEC_MAX)
    a = np.where(fast, a, 1.0)   # a stand-in; the arbiter rewrites these rows
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e)
    off = np.flatnonzero((d < _D_LO) | (d >= _D_HI))
    if off.size:   # log10 rounded across a power of ten
        e[off] += np.where(d[off] >= _D_HI, 1, -1)
        d[off], frac[off] = _scaled(a[off], e[off])
    d += frac > 0.5
    carry = d == _D_HI
    d[carry] = _D_LO
    e += carry

    out = np.empty((v.size, _FIELD + ends.shape[1]), np.uint8)
    out[:, _FIELD:] = ends
    out[:, 0] = np.where(np.signbit(v), ord("-"), _FILL)
    for col in range(18, 2, -1):
        q = d // 10
        out[:, col] = d - q * 10 + 48
        d = q
    out[:, 1] = d + 48
    out[:, 2] = ord(".")
    out[:, 19] = ord("e")
    out[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    three = e >= 100
    h, e = e // 100 + 48, e % 100
    t, o = e // 10 + 48, e % 10 + 48
    out[:, 21] = np.where(three, h, t)
    out[:, 22] = np.where(three, t, o)
    out[:, 23] = np.where(three, o, _FILL)

    exact = np.flatnonzero(~fast | (np.abs(frac - 0.5) < _TIE_BAND))
    if exact.size:
        out[exact, :_FIELD] = _exact_fields(v[exact])
    flat = out.ravel()
    return flat[flat != _FILL].tobytes()


def _format_rows(*cols, sep: str = ",") -> str:
    """Equal-length columns as text rows: each value in %.16e, ``sep`` between
    values, a newline after every row.

    The characters are those of ``"%.16e" % v``, which equals
    ``f"{v:.16e}"``, nan and infinities included.  Values are printed by a
    numpy kernel, a block of about _BLOCK values at a time: every field is
    laid out in a fixed-width uint8 row (sign, digit, '.', 16 digits, 'e',
    exponent sign, 2-3 exponent digits, then ``sep`` or a newline) and the
    filler bytes are removed once.  The few values the kernel cannot decide
    (see the comment above _pow10_table) are formatted one by one by
    _exact_fields, the exact arbiter.
    """
    sep = sep.encode()
    if b"\0" in sep:
        raise ValueError("sep must not contain NUL")
    table = np.column_stack(cols).astype(np.float64, copy=False)
    n, k = table.shape
    ends = np.full((k, max(len(sep), 1)), _FILL, np.uint8)
    ends[:-1, :len(sep)] = np.frombuffer(sep, np.uint8)
    ends[-1, 0] = ord("\n")
    rows = max(_BLOCK // k, 1)
    ends = np.tile(ends, (rows, 1))
    return b"".join(
        _format_block(block.ravel(), ends[:block.size])
        for block in (table[r:r + rows] for r in range(0, n, rows))
    ).decode()


def write_columns(path, rows: str, header: str = None) -> None:
    """Write rows from ``_format_rows`` under an optional header line."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write(rows)
