"""Ground-energy curve over a grid of right endpoints, with theorem verdicts.

The sweep reuses a single truncation wall (chosen at the smallest t, where the
energy is largest) so that second differences in t are not polluted by
truncation jitter.
Verdicts render the global claims -- strict decrease, convexity for convex
potentials, concavity for concave potentials on half-infinite domains, and the
blow-up rate at the left endpoint -- as machine-checkable booleans.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigenshiftError
from .ground_state import Domain, Grid, _resolve_wall, _solve_on
from .potentials import ConvexityClass, PotentialSpec, convexity_on
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

    The wall ``a_eff`` is resolved at t_min (``a`` itself when a is finite).
    The endpoints form one warm chain (``_solve_chain``), where an endpoint
    usually takes one factorisation.  The class of V on [a_eff, t_max] sets
    the verdict's expectations.
    Solver failures propagate with the failing t attached.
    """
    if n_t < MIN_ENDPOINTS:
        raise DomainError(f"sweep needs at least {MIN_ENDPOINTS} endpoint samples")
    if not (a < t_min < t_max < math.inf):
        raise DomainError(f"need a < t_min < t_max < inf, got {a}, {t_min}, {t_max}")
    a_eff = _resolve_wall(spec, Domain(a, t_min)).a_eff

    ts = np.linspace(t_min, t_max, n_t)
    dt = float(ts[1] - ts[0])
    chain = _solve_chain(spec, N, a_eff, ts, ts, "sweep failed at t")
    lambdas, flux_t = np.array(list(chain)).T.copy()
    lambda_dots = -flux_t * flux_t   # lambda_dot_flux at each endpoint

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
    t = a + eps
    if not (len(eps) and np.all((a < t) & (t < math.inf)) and np.all(np.diff(eps) < 0)):
        raise DomainError("need a < a + eps < inf, eps strictly decreasing")
    chain = _solve_chain(spec, N, a, t, eps, "blow-up profile failed at eps")
    return np.array([lam * e * e for e, (lam, _) in zip(eps, chain)])


def _solve_chain(spec: PotentialSpec, N: int, a_eff: float, ts: np.ndarray,
                 params: np.ndarray, failure: str):
    """(lambda, flux_t) on (a_eff, t), N interior nodes, for each t of ``ts``
    in order, from ``_solve_on`` on ``Grid.build``'s grid: no Domain,
    GroundState or padded u.  Starts are extrapolated in ``params`` (t, or eps).

    The first solve is cold, and each later one starts from the Lagrange
    extrapolation in p of the (up to) ``_CHAIN_DEPTH`` ground states before
    it, written into a new vector the eigensolve then iterates in: degree 5
    once the chain is six long, sum_i w_i u_i with
    w_i = prod_{j != i} (p - p_j) / (p_i - p_j), so the second endpoint starts
    from a copy of the first ground state (weight 1).
    Each weight is a product of ratios, which stay finite where a quotient of
    two products of distances would overflow.  On a uniform grid the degree-5
    weights are 6, -15, 20, -15, 6, -1; their magnitudes sum to 63, so the
    start's rounding stays well below the eigensolve's index margin of
    256 eps, and its Weinstein bound usually leaves one factorisation.
    """
    history = collections.deque(maxlen=_CHAIN_DEPTH)   # (p_i, u_i), newest last
    for t, p in zip(map(float, ts), map(float, params)):
        start = np.zeros(N) if history else None
        for i, (p_i, u_i) in enumerate(history):
            w = 1.0
            for j, (p_j, _) in enumerate(history):
                if j != i:
                    w *= (p - p_j) / (p_i - p_j)
            blas.daxpy(u_i, start, a=w)   # in place
        try:
            _, lam, u, flux_t, _ = _solve_on(spec, Grid.build(a_eff, t, N), start)
        except EigenshiftError as exc:
            raise type(exc)(f"{failure}={p}: {exc}") from exc
        yield lam, flux_t
        history.append((p, u))
