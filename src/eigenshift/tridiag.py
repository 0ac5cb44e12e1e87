"""Symmetric tridiagonal eigen-machinery.

The smallest eigenpair comes from LAPACK: bisection on the Sturm-sequence
count (``stebz``) locates the eigenvalue, inverse iteration (``stein``) its
vector.  A bordered (saddle) solver handles the singular shifted system that
arises when differentiating an eigenpair: the matrix is augmented with the
eigenvector as constraint row and column, which keeps the O(N) banded
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConditioningError, ConvergenceError


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal matrix: diagonal ``d`` (n,), off-diagonal ``e`` (n-1,)."""

    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        if len(self.d) < 1 or len(self.e) != len(self.d) - 1:
            raise ValueError("off-diagonal must be one shorter than diagonal")

    @property
    def n(self) -> int:
        return len(self.d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.d * x
        y[:-1] += self.e * x[1:]
        y[1:] += self.e * x[:-1]
        return y

    def count_below(self, sigma: float) -> int:
        """Number of eigenvalues strictly below ``sigma`` (Sturm count)."""
        return len(scipy.linalg.eigvalsh_tridiagonal(
            self.d, self.e, select="v", select_range=(-np.inf, float(sigma))))


def smallest_eigenpair(op: TridiagOperator) -> tuple:
    """Lowest eigenpair of ``op``; returns (lam, vec, residual).

    ``vec`` has unit euclidean norm; ``lam`` is its Rayleigh quotient and
    ``residual`` the euclidean norm of (T - lam) vec.  The caller judges
    whether that residual is acceptable.  Raises ConvergenceError when LAPACK
    reports a failure.
    """
    try:
        _, vecs = scipy.linalg.eigh_tridiagonal(op.d, op.e, select="i",
                                                select_range=(0, 0))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"smallest eigenpair: {exc}") from exc
    vec = vecs[:, 0]
    tvec = op.matvec(vec)
    lam = float(vec @ tvec)
    return lam, vec, float(np.linalg.norm(tvec - lam * vec))


def solve_bordered(op: TridiagOperator, lam: float, border: np.ndarray,
                   rhs: np.ndarray) -> tuple:
    """Solve the saddle system [[T - lam, b], [b^T, 0]] [x, mu] = [rhs, 0].

    ``border`` spans the (near-)kernel of T - lam, so the augmented matrix is
    nonsingular and x is the unique solution orthogonal to ``border``.  The
    border is rescaled to the matrix norm for conditioning; mu is returned in
    the original scaling.  Raises ConditioningError when the solution fails a
    relative backward-residual check of 1e-6.
    """
    resid_cap = 1e-6
    n = op.n
    scale = max(np.max(np.abs(op.d - lam)), np.max(np.abs(op.e)) if n > 1 else 0.0, 1.0)
    bnorm = np.linalg.norm(border)
    if bnorm == 0.0:
        raise ConditioningError("bordered solve: zero border vector")
    b = border * (scale / bnorm)

    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n),
                           np.arange(n), np.full(n, n), [n]])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1),
                           np.full(n, n), np.arange(n), [n]])
    vals = np.concatenate([op.d - lam, op.e, op.e, b, b, [0.0]])
    mat = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))

    full_rhs = np.concatenate([rhs, [0.0]])

    def attempt(**kw):
        with np.errstate(all="ignore"):
            try:
                sol = scipy.sparse.linalg.splu(mat, **kw).solve(full_rhs)
            except RuntimeError:
                return None, np.inf
        if not np.all(np.isfinite(sol)):
            return None, np.inf
        resid = mat @ sol - full_rhs
        denom = scale * (np.linalg.norm(sol) + np.linalg.norm(full_rhs) / scale + 1.0)
        return sol, float(np.linalg.norm(resid)) / denom

    # diagonal-pivot natural ordering keeps the arrowhead fill O(N); the
    # leading block has positive pivots (strict eigenvalue interlacing), so
    # this is the normal path.  Fall back to full pivoting if the backward
    # residual disagrees.
    sol, rel = attempt(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    if rel > resid_cap:
        sol, rel = attempt()
    if rel > resid_cap:
        raise ConditioningError(
            f"bordered solve residual {rel:.3e} exceeds cap {resid_cap:.3e} "
            "(eigenvalue nearly degenerate?)"
        )
    x, mu_scaled = sol[:n], sol[n]
    return x, float(mu_scaled * scale / bnorm)
