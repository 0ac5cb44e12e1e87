"""Symmetric tridiagonal eigen-machinery on direct LAPACK calls.

The smallest eigenpair comes from shifted inverse iteration, cold or from a
caller's start vector: each step is one positive definite ``ptsv``
factor-and-solve (``pttrf`` + ``pttrs``) of T - sigma, and a factorisation
that succeeds certifies that sigma lies below the whole spectrum.
``spectrum_above`` is that certificate on its own, one ``pttrf``;
``count_below`` is a ``stebz`` Sturm count.
``solve_bordered`` solves the singular shifted system of a differentiated
eigenpair through a positive definite tridiagonal ``pttrf``/``pttrs``
factor-and-solve and a 2x2 system, in O(N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

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
        """Number of eigenvalues in (-inf, sigma] (a ``stebz`` Sturm count).

        ``sigma = -inf`` counts 0; a nan ``sigma`` raises ValueError.
        """
        sigma = float(sigma)
        if np.isnan(sigma):
            raise ValueError("Sturm count: shift is nan")
        if sigma == -np.inf:
            return 0  # stebz rejects the empty value range vl = vu = -inf
        m, _, _, _, info = lapack.dstebz(self.d, _offdiag(self.e), 1, -np.inf,
                                         sigma, 1, 1, 0.0, "E")
        if info != 0:
            raise ConvergenceError(f"Sturm count: LAPACK stebz info={info}")
        return int(m)

    def spectrum_above(self, sigma: float) -> bool:
        """Whether every eigenvalue exceeds ``sigma``: one ``pttrf`` of T - sigma,
        which succeeds exactly when T - sigma is positive definite (Sylvester's
        inertia), so it agrees with ``count_below(sigma) == 0``.

        A nan ``sigma`` raises ValueError: d - nan would factor "successfully",
        because no nan pivot compares <= 0.
        """
        sigma = float(sigma)
        if np.isnan(sigma):
            raise ValueError("definiteness test: shift is nan")
        return lapack.dpttrf(self.d - sigma, _offdiag(self.e))[2] == 0


def _cold_vector(op: TridiagOperator) -> np.ndarray:
    """D 1 / sqrt(n), where D = diag(+-1) makes the off-diagonal of D T D
    equal to -|e|."""
    vec = np.full(op.n, op.n ** -0.5)
    vec[1:][np.logical_xor.accumulate(op.e > 0)] *= -1.0
    return vec


def smallest_eigenpair(op: TridiagOperator, start: np.ndarray = None) -> tuple:
    """Lowest eigenpair of ``op``; returns (lam, vec, residual).

    ``vec`` has unit euclidean norm; ``lam`` is its Rayleigh quotient and
    ``residual`` the euclidean norm of (T - lam) vec.  The caller judges
    whether that residual is acceptable.

    Shifted inverse iteration from the Gershgorin lower bound.  A shift sigma
    is used only when ``ptsv`` factors T - sigma as positive definite, which
    certifies sigma below the spectrum; when it does not, sigma steps back
    toward the last certified shift.  After each solve the shift moves up to
    the Weinstein bound lam - residual, less a margin.  The cold start vector
    is D 1, where D = diag(+-1) makes the off-diagonal of D T D equal to -|e|,
    so it overlaps the ground state of every block, and for e < 0 every
    iterate is positive.  ``start`` replaces that vector, nothing else: the
    ground state of a nearby operator of the same size (the previous solve of
    a chain) leaves a step or two to take.  A start with almost no weight on
    the ground state heads for an excited pair, whose Weinstein bound then
    passes lambda_1; each factorisation that fails above a certified shift
    adds the cold vector back into the iterate, which restores that weight.
    Iteration stops once lam no longer falls by more than a margin and the
    residual is within twice that margin.  The margin, 4 eps ||(|T| 1) vec||,
    also keeps the shift below lam - residual; it is scaled to the rows the
    vector occupies, because graded operators from the wall probe carry
    diagonal entries near 1e266.  Raises ValueError unless
    ``start`` is None or a finite vector of length n with a nonzero entry,
    and ConvergenceError when lam has not settled after a fixed number of
    factorisations.
    """
    max_factorisations = 64
    eps = np.finfo(float).eps
    e = _offdiag(op.e)
    abs_e = np.abs(op.e)
    radius = np.zeros(op.n)
    radius[:-1] += abs_e
    radius[1:] += abs_e
    row_sum = np.abs(op.d) + radius
    sigma, certified = float(np.min(op.d - radius)), None
    # keeps every shift at least floor below the spectrum, so |w| <= 1/floor
    floor = drop = np.finfo(float).tiny / eps
    if start is None:
        vec = _cold_vector(op)
    else:
        vec = np.array(start, dtype=float)
        if vec.shape != (op.n,):
            raise ValueError(f"start vector has shape {vec.shape}, expected ({op.n},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError("start vector is not finite")
        big = float(np.max(np.abs(vec)))
        if big == 0.0:
            raise ValueError("start vector is zero")
        vec /= big  # first to the unit max norm, so the 2-norm cannot overflow
        vec /= blas.dnrm2(vec)
    lam = np.inf
    for _ in range(max_factorisations):
        shifted = op.d - sigma
        _, _, w, info = lapack.dptsv(shifted, e, vec)
        if info and certified is None:
            # T - sigma is singular at the Gershgorin bound (a tight block):
            # step down by the scale of the row whose pivot failed, doubling
            drop = max(2.0 * drop, 4.0 * eps * float(row_sum[info - 1]))
            sigma -= drop
            continue
        if info:
            sigma = 0.5 * (certified + sigma)
            # the shift passed lambda_1, which a vector with almost no weight
            # on the ground state invites: give it the cold vector's weight
            vec = vec + _cold_vector(op)
            vec /= blas.dnrm2(vec)
            continue
        certified = sigma
        vec = w / blas.dnrm2(w)
        # rho - sigma from (T - sigma) vec: near convergence its terms are
        # small, so the dot product rounds far less than vec . T vec would
        tvec = shifted * vec
        tvec[:-1] += op.e * vec[1:]
        tvec[1:] += op.e * vec[:-1]
        above = float(vec @ tvec)
        resid = blas.dnrm2(tvec - above * vec)
        rho = sigma + above
        margin = 4.0 * eps * blas.dnrm2(row_sum * vec) + floor
        # below the spectrum each step lowers rho, so stop once it no longer
        # falls (rounding makes it jitter) and the residual is rounding level:
        # the second catches a stall on a shift far below a tight cluster
        if rho > lam - margin and resid <= 2.0 * margin:
            break
        lam = rho
        sigma = max(sigma, rho - resid - margin)
    else:
        raise ConvergenceError(f"smallest eigenpair: inverse iteration not settled after "
                               f"{max_factorisations} factorisations")
    tvec = op.matvec(vec)
    lam = float(vec @ tvec)
    return lam, vec, blas.dnrm2(tvec - lam * vec)


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
