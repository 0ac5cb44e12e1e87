"""Symmetric tridiagonal eigen-machinery on direct LAPACK calls.

The smallest eigenpair comes from shifted inverse iteration, cold or from a
caller's start vector: each step is one positive definite ``ptsv``
factor-and-solve (``pttrf`` + ``pttrs``) of T - sigma, a factorisation that
succeeds certifies that sigma lies below the whole spectrum, and the solve
itself gives the step's Rayleigh quotient and residual.  A cold start takes
about five factorisations from the Gershgorin bound; a start near the ground
state takes about two from its Weinstein bound.  The returned pair is held
to a residual cap and carries its own index certificate, both on the local
scale ||(|T| 1) vec|| of the rows it occupies: T - (lam - eps_gap) is
positive definite, which
the highest certified shift usually implies already (``pttrf`` pivots do not
fall as the shift falls), so the extra ``pttrf`` runs only when that shift
lies below lam - eps_gap.
``spectrum_above`` is that definiteness test on its own, one ``pttrf``;
``count_below`` is a ``stebz`` Sturm count.
``solve_bordered`` solves the singular shifted system of a differentiated
eigenpair through a positive definite tridiagonal ``pttrf``/``pttrs``
factor-and-solve and a 2x2 system, in O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ConditioningError, ConvergenceError
from .tolerances import DEFAULT_TOLS


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


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _cold_vector(op: TridiagOperator) -> np.ndarray:
    """D 1 / sqrt(n), where D = diag(+-1) makes the off-diagonal of D T D
    equal to -|e|."""
    vec = np.full(op.n, op.n ** -0.5)
    vec[1:][np.logical_xor.accumulate(op.e > 0)] *= -1.0
    return vec


def smallest_eigenpair(op: TridiagOperator, start: np.ndarray = None) -> tuple:
    """Lowest eigenpair of ``op``; returns (lam, vec, residual).

    ``vec`` has unit euclidean norm; ``lam`` is its Rayleigh quotient and
    ``residual`` the euclidean norm of (T - lam) vec, both from one matvec
    at the end.  The pair is judged here, on the one local scale
    ``local = ||(|T| 1) vec||`` of the rows the vector occupies: the residual
    must lie within max(``DEFAULT_TOLS.res`` (1 + |lam|), 64 eps local), and
    the index certificate below must hold.

    Shifted inverse iteration.  A shift sigma is used only when ``ptsv``
    factors T - sigma as positive definite, which certifies sigma below the
    spectrum; when it does not, sigma steps back toward the last certified
    shift, by a half, then a quarter, an eighth, ... of the distance while
    failures run on.  Each step reads the Rayleigh quotient rho and the
    residual of its new vector w / |w| off the solve (T - sigma) w = v itself
    (Parlett, The Symmetric Eigenvalue Problem, 4.3): rho = sigma +
    v.w / |w|^2 and residual |v - (v.w / |w|^2) w| / |w|, so a step costs no
    matvec.  The shift then moves up to the Weinstein bound rho - residual,
    less a margin.  Iteration stops once rho no longer falls by more than a
    margin, the residual is within twice that margin, and the step's shift
    was the Weinstein bound of its own input or lies within a few margins of
    rho.  The margin, 4 eps local, also keeps the shift below
    rho - residual; it is scaled to the rows the vector occupies, because
    graded operators from the wall probe carry diagonal entries near 1e266.

    A cold start begins at the Gershgorin lower bound from D 1, where
    D = diag(+-1) makes the off-diagonal of D T D equal to -|e|, so it
    overlaps the ground state of every block, and for e < 0 every iterate is
    positive.  ``start`` replaces that vector, and its Weinstein bound
    (Weinstein, PNAS 20, 1934), from one matvec, replaces the Gershgorin
    bound as the first shift when it is higher: the ground state of a nearby
    operator of the same size (a solve chain) then leaves about two
    factorisations.  That bound holds for some eigenvalue, not necessarily the
    lowest; when its shift does not factor, the iteration drops to the
    Gershgorin bound.  A start with almost no weight on the ground state heads
    for an excited pair, whose Weinstein bound then passes lambda_1; each
    factorisation that fails above a certified shift adds the cold vector back
    into the iterate, which restores that weight.  Raises ValueError unless
    ``start`` is None or a finite vector of length n with a nonzero entry,
    and ConvergenceError when rho has not settled after a fixed number of
    factorisations, or when the pair fails its residual cap or its index
    certificate.

    The certificate: T - (lam - eps_gap) is positive definite, so no
    eigenvalue lies below lam - eps_gap, where eps_gap = max(1e-10 (1 + |lam|),
    256 eps local) clears the factorisation's own resolution on those rows; a
    global scale such as max |d| + 2 max |e| would exceed every gap of a
    graded operator and pass an excited pair.  Every
    ``pttrf`` pivot of T - sigma is a chain of monotone rounded operations in
    sigma, so none falls as sigma falls, in floating point as in exact
    arithmetic: the highest shift sigma_c whose ``ptsv`` factored proves the
    certificate whenever sigma_c >= lam - eps_gap (Parlett, 4.3).  Only below
    that does one more ``pttrf`` (``spectrum_above``) run.
    """
    max_factorisations = 64
    e = _offdiag(op.e)
    # Gershgorin radii |e_{i-1}| + |e_i| and row sums |d_i| + radius_i
    abs_e = np.abs(op.e)
    radius = np.zeros(op.n)
    radius[:-1] = abs_e
    radius[1:] += abs_e
    row_sum = np.abs(op.d)
    row_sum += radius
    # then one O(n) buffer serves every step: d - sigma for ptsv, which
    # overwrites it, and row_sum * vec for the margin
    work = np.subtract(op.d, radius, out=radius)
    gershgorin = sigma = float(np.min(work))
    # keeps every shift at least floor below the spectrum, so |w| <= 1/floor
    floor = drop = _TINY / _EPS
    # level-1 BLAS (ddot, and dscal and daxpy, which update in place) costs
    # a fraction of a numpy ufunc call at these sizes
    if start is None:
        vec = _cold_vector(op)
    else:
        vec = np.asarray(start, dtype=float)
        if vec.shape != (op.n,):
            raise ValueError(f"start vector has shape {vec.shape}, expected ({op.n},)")
        big = float(np.max(np.abs(vec)))   # nan or inf when an entry is
        if not math.isfinite(big):
            raise ValueError("start vector is not finite")
        if big == 0.0:
            raise ValueError("start vector is zero")
        vec = vec / big  # a copy at unit max norm, so the 2-norm cannot overflow
        blas.dscal(1.0 / blas.dnrm2(vec), vec)
        tvec = op.matvec(vec)
        rho = blas.ddot(vec, tvec)
        local = blas.dnrm2(np.multiply(row_sum, vec, out=work))
        margin = 4.0 * _EPS * local + floor
        sigma = max(sigma, rho - blas.dnrm2(blas.daxpy(vec, tvec, a=-rho)) - margin)
    # tight: sigma is the Weinstein bound of the vector it is applied to.
    # certified, the last shift that factored, is also the highest: a shift
    # only fails above it, and the next one lies between the two
    certified, lam, tight, failures = None, np.inf, False, 0
    for _ in range(max_factorisations):
        _, _, w, info = lapack.dptsv(np.subtract(op.d, sigma, out=work), e, vec,
                                     overwrite_d=1)
        if info and certified is None:
            if sigma > gershgorin:
                # the start's Weinstein bound belongs to an excited eigenvalue
                sigma = gershgorin
                continue
            # T - sigma is singular at the Gershgorin bound (a tight block):
            # step down by the scale of the row whose pivot failed, doubling
            drop = max(2.0 * drop, 4.0 * _EPS * float(row_sum[info - 1]))
            sigma -= drop
            continue
        if info:
            # the shift passed lambda_1: step back toward the last certified
            # shift, by 1/2, then 1/4, 1/8, ... of the way while failures run
            # on, so a certified shift just below lambda_1 is reached in a few
            # steps.  A vector with almost no weight on the ground state
            # invites the overshoot: give it the cold vector's weight
            failures += 1
            sigma, tight = certified + (sigma - certified) * 0.5 ** failures, False
            vec = vec + _cold_vector(op)
            vec /= blas.dnrm2(vec)
            continue
        certified, failures = sigma, 0
        # (T - sigma) w = vec; for the new vector w / |w| the solve gives
        # rho - sigma = vec.w / |w|^2, a small number near convergence, and
        # the residual without a matvec
        norm_w = blas.dnrm2(w)
        blas.dscal(1.0 / norm_w, w)
        proj = blas.ddot(vec, w)
        resid = blas.dnrm2(blas.daxpy(w, vec, a=-proj)) / norm_w   # overwrites vec
        rho = sigma + proj / norm_w
        vec = w
        local = blas.dnrm2(np.multiply(row_sum, vec, out=work))
        margin = 4.0 * _EPS * local + floor
        # below the spectrum each step lowers rho, so stop once it no longer
        # falls (rounding makes it jitter) and the residual is rounding level:
        # the second catches a stall on a shift far below a tight cluster.
        # The step's shift must also be tight, or within a few margins of rho:
        # a shift stuck far below rho says nothing of the eigenvalues between
        # them, where a vector with no weight on a decoupled block (e = 0)
        # settles on an excited pair
        if ((tight or rho - sigma <= 4.0 * margin)
                and rho > lam - margin and resid <= 2.0 * margin):
            break
        lam = rho
        tight = rho - resid - margin >= sigma
        sigma = max(sigma, rho - resid - margin)
    else:
        raise ConvergenceError(f"smallest eigenpair: inverse iteration not settled after "
                               f"{max_factorisations} factorisations")
    tvec = op.matvec(vec)
    lam = float(vec @ tvec)
    _certify_lowest(op, lam, certified, local)
    resid = blas.dnrm2(blas.daxpy(vec, tvec, a=-lam))
    cap = max(DEFAULT_TOLS.res * (1.0 + abs(lam)), 64.0 * _EPS * local)
    if resid > cap:
        raise ConvergenceError(f"eigen-residual {resid:.3e} above cap {cap:.3e}")
    return lam, vec, resid


def _certify_lowest(op: TridiagOperator, lam: float, certified: float,
                    local: float) -> None:
    """The index certificate of ``smallest_eigenpair``: raises ConvergenceError
    unless T - (lam - eps_gap) is positive definite, eps_gap resolving the
    pair's local scale ``local``.  ``certified`` is the highest shift whose
    factorisation of T - sigma succeeded; at or above lam - eps_gap it already
    proves the certificate, with no ``pttrf``."""
    floor = lam - max(1e-10 * (1.0 + abs(lam)), 256.0 * _EPS * local)
    if certified < floor and not op.spectrum_above(floor):
        raise ConvergenceError("converged to an excited state, not the ground state")


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
    info = lapack.dpttrf(lifted - 256.0 * _EPS * scale, e)[2]
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
