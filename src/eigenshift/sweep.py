"""Ground-energy curve over a grid of right endpoints, with theorem verdicts.

The sweep reuses a single truncation wall (chosen at the smallest t, where the
energy is largest) so that second differences in t are not polluted by
truncation jitter.
Verdicts render the global claims -- strict decrease, convexity for convex
potentials, concavity for concave potentials on half-infinite domains, and the
blow-up rate at the left endpoint -- as machine-checkable booleans.  The
convexity hypothesis is judged on the domain the sweep solved, [a_eff, t_max],
by the exact ``potentials.convexity_on``.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigenshiftError
from .ground_state import Domain, _resolve_wall, solve_ground_state
from .potentials import ConvexityClass, PotentialSpec, convexity_on
from .sensitivity import lambda_dot_flux
from .tolerances import DEFAULT_TOLS
from .tridiag import blas

MIN_ENDPOINTS = 5   # fewest endpoints a sweep takes: three second differences
_CHAIN_DEPTH = 6    # ground states a chain extrapolates its next start through
_VERDICT_KEYS = ("monotone_decreasing", "convex_in_t", "concave_in_t",
                 "expect_convex", "expect_concave", "ok")


@dataclass(frozen=True)
class SweepResult:
    """Sampled energy curve lambda(t) with derivative and curvature columns,
    and the theorem's verdict on it: ``convexity``, the class of V on the
    solved domain [a_eff, t_max], sets what the curve is expected to be."""

    ts: np.ndarray
    lambdas: np.ndarray
    lambda_dots: np.ndarray
    second_diffs: np.ndarray   # (lam[i-1] - 2 lam[i] + lam[i+1]) / dt^2
    a: float
    a_eff: float
    N: int
    tol_thm: float
    convexity: ConvexityClass

    @property
    def monotone_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.lambdas) < 0))

    @property
    def convex_in_t(self) -> bool:
        return bool(np.all(self.second_diffs >= -self.tol_thm))

    @property
    def concave_in_t(self) -> bool:
        return bool(np.all(self.second_diffs <= self.tol_thm))

    @property
    def expect_convex(self) -> bool:
        return self.convexity.is_convex()

    @property
    def expect_concave(self) -> bool:
        # the concavity clause holds on half-infinite domains only
        return self.convexity.is_concave() and not math.isfinite(self.a)

    @property
    def ok(self) -> bool:
        return (self.monotone_decreasing
                and (self.convex_in_t or not self.expect_convex)
                and (self.concave_in_t or not self.expect_concave))

    def verdict(self) -> dict:
        """The verdict's six booleans, in the order ``sweep`` prints them."""
        return {key: getattr(self, key) for key in _VERDICT_KEYS}


def sweep(spec: PotentialSpec, a: float, t_min: float, t_max: float,
          n_t: int, N: int) -> SweepResult:
    """Compute lambda(t) on a uniform endpoint grid, with its verdict.

    One wall ``a_eff``, resolved at t_min (``a`` itself when a is finite),
    serves the whole sweep.  The endpoints form one warm chain
    (``_solve_chain``): from the seventh on, each eigensolve starts from the
    degree-5 extrapolation 6 u_{k-1} - 15 u_{k-2} + 20 u_{k-3} - 15 u_{k-4}
    + 6 u_{k-5} - u_{k-6} and usually takes one factorisation.
    The class of V on [a_eff, t_max] sets the verdict's expectations.
    Solver failures propagate with the failing t attached.
    """
    if n_t < MIN_ENDPOINTS:
        raise DomainError(f"sweep needs at least {MIN_ENDPOINTS} endpoint samples")
    if not (a < t_min < t_max):
        raise DomainError(f"need a < t_min < t_max, got {a}, {t_min}, {t_max}")
    a_eff = _resolve_wall(spec, Domain(a, t_min)).a_eff

    ts = np.linspace(t_min, t_max, n_t)
    dt = float(ts[1] - ts[0])
    lambdas = np.empty(n_t)
    lambda_dots = np.empty(n_t)
    for i, gs in enumerate(_solve_chain(spec, N, ts, lambda t: Domain(a, t, a_eff),
                                          "sweep failed at t")):
        lambdas[i] = gs.lam
        lambda_dots[i] = lambda_dot_flux(gs)

    second = (lambdas[:-2] - 2.0 * lambdas[1:-1] + lambdas[2:]) / (dt * dt)
    h_max = (t_max - a_eff) / (N + 1)
    tol_thm = DEFAULT_TOLS.thm_factor * h_max * h_max * float(np.max(np.abs(lambdas)))
    return SweepResult(ts=ts, lambdas=lambdas, lambda_dots=lambda_dots,
                       second_diffs=second, a=a, a_eff=a_eff, N=N, tol_thm=tol_thm,
                       convexity=convexity_on(spec, a_eff, t_max))


def verdict_metadata(result: SweepResult) -> dict:
    """The verdict with the sweep's domain and grid: the payload of verdict.json."""
    return {
        **result.verdict(),
        "a": ("-inf" if not math.isfinite(result.a) else result.a),
        "a_eff": result.a_eff,
        "t_min": float(result.ts[0]),
        "t_max": float(result.ts[-1]),
        "n_t": len(result.ts),
        "N": result.N,
        "tol_thm": result.tol_thm,
    }


def chord_tangent_violation(result: SweepResult, orientation: str) -> float:
    """Max violation of the supporting-line property of the sampled curve.

    For a convex curve each flux-formula slope must lie between the adjacent
    chord slopes; ``orientation`` is 'convex' or 'concave' (reversed order).
    Returns the worst violation (0 means the property holds exactly).
    """
    dt = float(result.ts[1] - result.ts[0])
    chords = np.diff(result.lambdas) / dt
    tangents = result.lambda_dots[1:-1]
    if orientation == "convex":
        low, high = chords[:-1], chords[1:]
    elif orientation == "concave":
        low, high = chords[1:], chords[:-1]
    else:
        raise ValueError("orientation must be 'convex' or 'concave'")
    viol = np.maximum(low - tangents, tangents - high)
    return max(0.0, float(np.max(viol)))


def blowup_profile(spec: PotentialSpec, a: float, epsilons, N: int) -> np.ndarray:
    """Scaled energies lambda(a + eps) * eps^2 for shrinking intervals.

    As eps -> 0 the values approach pi^2, the free small-interval limit: a
    quantitative refinement of the bare blow-up of lambda near the left end.
    Requires a finite left endpoint and V bounded near it.  The intervals
    form one warm chain in eps (``_solve_chain``).
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if not math.isfinite(a):
        raise DomainError("blow-up profile needs a finite left endpoint")
    if len(eps) == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise DomainError("epsilons must be positive and strictly decreasing")
    chain = _solve_chain(spec, N, eps, lambda e: Domain(a, a + e),
                         "blow-up profile failed at eps")
    return np.array([gs.lam * e * e for e, gs in zip(eps, chain)])


def _solve_chain(spec: PotentialSpec, N: int, params: np.ndarray, domain_at,
                 failure: str):
    """Ground states on ``domain_at(p)`` for each p of ``params``, all on N
    interior nodes, in order.

    The first solve is cold, the second starts from the first ground state,
    and each later one from the Lagrange extrapolation in p of the (up to)
    ``_CHAIN_DEPTH`` ground states before it: degree 5 once the chain is
    six long, sum_i w_i u_i with w_i = prod_{j != i} (p - p_j) / (p_i - p_j).
    Each weight is a product of ratios, which stay finite where a quotient of
    two products of distances would overflow.  On a uniform grid the degree-5
    weights are 6, -15, 20, -15, 6, -1; their magnitudes sum to 63, so the
    start's rounding stays well below the eigensolve's index margin of
    256 eps, and its Weinstein bound usually leaves one factorisation.  A
    solver failure propagates as ``f"{failure}={p}: ..."``.
    """
    history = collections.deque(maxlen=_CHAIN_DEPTH)   # (p_i, u_i), newest last
    buf = np.empty(N)   # the extrapolated start, rebuilt in place for each p
    for p in map(float, params):
        start = history[-1][1] if history else None
        if len(history) > 1:
            buf.fill(0.0)
            for i, (p_i, u_i) in enumerate(history):
                w = 1.0
                for j, (p_j, _) in enumerate(history):
                    if j != i:
                        w *= (p - p_j) / (p_i - p_j)
                blas.daxpy(u_i, buf, a=w)   # in place
            start = buf
        try:
            gs = solve_ground_state(spec, domain_at(p), N, start=start)
        except EigenshiftError as exc:
            raise type(exc)(f"{failure}={p}: {exc}") from exc
        yield gs
        history.append((p, gs.u[1:-1]))
