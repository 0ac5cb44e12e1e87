"""Symmetric tridiagonal eigen-machinery on direct LAPACK calls.

The smallest eigenpair comes from ``stebz`` (Sturm-count bisection) and
``stein`` (inverse iteration).  ``solve_bordered`` solves the singular shifted
system of a differentiated eigenpair through a positive definite tridiagonal
``pttrf``/``pttrs`` factor-and-solve and a 2x2 system, in O(N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConditioningError, ConvergenceError


def _offdiag(e: np.ndarray) -> np.ndarray:
    # the f2py wrappers want one off-diagonal entry even when n = 1, where
    # LAPACK reads none
    return e if len(e) else np.zeros(1)


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
        """Number of eigenvalues in (-inf, sigma] (a ``stebz`` Sturm count)."""
        m, _, _, _, info = lapack.dstebz(self.d, _offdiag(self.e), 1, -np.inf,
                                         float(sigma), 1, 1, 0.0, "E")
        if info != 0:
            raise ConvergenceError(f"Sturm count: LAPACK stebz info={info}")
        return int(m)


def smallest_eigenpair(op: TridiagOperator) -> tuple:
    """Lowest eigenpair of ``op``; returns (lam, vec, residual).

    ``vec`` has unit euclidean norm; ``lam`` is its Rayleigh quotient and
    ``residual`` the euclidean norm of (T - lam) vec.  The caller judges
    whether that residual is acceptable.  Raises ConvergenceError when LAPACK
    reports a failure.
    """
    e = _offdiag(op.e)
    # index range il = iu = 1, tol = 0 (stebz's own default), block order for stein
    _, w, iblock, isplit, info = lapack.dstebz(op.d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vecs, info = lapack.dstein(op.d, e, w[:1], iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"smallest eigenpair: LAPACK stebz/stein info={info}")
    vec = vecs[:, 0]
    tvec = op.matvec(vec)
    lam = float(vec @ tvec)
    return lam, vec, float(np.linalg.norm(tvec - lam * vec))


def solve_bordered(op: TridiagOperator, lam: float, border: np.ndarray,
                   rhs: np.ndarray) -> tuple:
    """Solve the saddle system [[T - lam, b], [b^T, 0]] [x, mu] = [rhs, 0].

    ``border`` spans the (near-)kernel of T - lam, so the augmented matrix is
    nonsingular and x is the unique solution orthogonal to ``border``.  The
    border b is rescaled to the matrix norm c; mu is returned in the original
    scaling.  With k = argmax |b|, B = T - lam + c e_k e_k^T is tridiagonal and
    positive definite when lam is the smallest eigenvalue (rank-one
    interlacing); x = B^-1 (rhs - mu b + c xi e_k), where b.x = 0, x_k = xi.
    Raises ConditioningError when B is not positive definite with a margin of
    256 eps c (lam is not the smallest eigenvalue, or it is degenerate), or
    when the relative backward residual exceeds 1e-6.
    """
    resid_cap = 1e-6
    lifted = op.d - lam
    scale = max(np.max(np.abs(lifted)), np.max(np.abs(op.e)) if op.n > 1 else 0.0, 1.0)
    bnorm = np.linalg.norm(border)
    if bnorm == 0.0:
        raise ConditioningError("bordered solve: zero border vector")
    b = border * (scale / bnorm)
    k = int(np.argmax(np.abs(b)))
    lifted[k] += scale
    # a second eigenvalue of T within the Sturm resolution delta = 256 eps c of
    # lam (lam degenerate) leaves B - delta I indefinite, as does an excited lam
    e = _offdiag(op.e)
    info = lapack.dpttrf(lifted - 256.0 * np.finfo(float).eps * scale, e)[2]
    dfac, efac, info_b = lapack.dpttrf(lifted, e, overwrite_d=1)
    if info or info_b:
        raise ConditioningError("bordered solve: lifted matrix not positive definite; "
                                "lam is not a simple lowest eigenvalue")
    cols = np.zeros((op.n, 3), order="F")
    cols[:, 0], cols[:, 1], cols[k, 2] = rhs, b, 1.0
    p, q, s = lapack.dpttrs(dfac, efac, cols)[0].T
    with np.errstate(all="ignore"):
        # unknowns (mu, xi = x_k): b.x = 0 and x_k = xi; b.s = q_k by symmetry
        m11, m12, m21, m22 = b @ q, -scale * q[k], q[k], 1.0 - scale * s[k]
        bp, det = b @ p, m11 * m22 - m12 * m21
        mu, xi = (bp * m22 - m12 * p[k]) / det, (m11 * p[k] - m21 * bp) / det
        x = p - mu * q + (scale * xi) * s
        resid = np.hypot(np.linalg.norm(op.matvec(x) - lam * x + mu * b - rhs), b @ x)
        rel = resid / (scale * (np.hypot(np.linalg.norm(x), mu) + np.linalg.norm(rhs) / scale + 1.0))
    if not rel <= resid_cap:
        raise ConditioningError(f"bordered solve residual {rel:.3e} exceeds cap "
                                f"{resid_cap:.3e} (eigenvalue nearly degenerate?)")
    return x, float(mu * scale / bnorm)
