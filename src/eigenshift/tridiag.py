"""Eigen-machinery for the central-difference matrix T = tridiag(c, d, c) on
direct LAPACK calls.

The smallest eigenpair comes from shifted inverse iteration on ``ptsv``
factor-and-solves (``pttrf`` + ``pttrs``) of T - sigma, cold or from a
caller's start vector, and is held to a residual cap and an index
certificate (``smallest_eigenpair``).
``spectrum_above`` is that definiteness test on its own, one ``pttrf``;
``count_below`` is a ``stebz`` Sturm count that computes no eigenvalue.
``solve_bordered`` solves the singular shifted system of a differentiated
eigenpair through a positive definite tridiagonal ``pttrf``/``pttrs``
factor-and-solve and a 2x2 system, in O(N).

The routines come from scipy's f2py extension modules ``scipy.linalg._flapack``
and ``_fblas``, loaded on their own: ``scipy.linalg/__init__`` pulls in scipy's
array-API layer, which clones the numpy namespace and takes longer to import
than every solve of a typical CLI call.  The wrappers are the objects
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` hand out.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConditioningError, ConvergenceError
from .tolerances import DEFAULT_TOLS


def _scipy_linalg_extension(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded without running
    ``scipy.linalg/__init__``.

    ``import scipy`` above runs scipy's distributor init, which sets the
    library paths the extensions need on some platforms.  The module is
    registered in ``sys.modules`` under its own name, and an entry already
    there is reused, so a process that also imports ``scipy.linalg``, before
    or after, holds one module object.  Imported after, that package gets
    the module as its attribute ``name`` too (``_LinkToPackage``).
    """
    fullname = f"scipy.linalg.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(
        fullname, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        raise ImportError(f"no module named {fullname!r} in scipy {scipy.__version__}",
                          name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    if _LinkToPackage not in sys.meta_path:
        sys.meta_path.insert(0, _LinkToPackage)
    return module


class _LinkToPackage:
    """A meta path finder, in place from the first extension loaded above
    until ``scipy.linalg`` runs, that then sets those extensions as that
    package's attributes: the import system binds a submodule to its
    package only when it loads the submodule itself, and it finds these in
    ``sys.modules``.  It finds the package's spec as the path finder does."""

    @staticmethod
    def find_spec(fullname, path=None, target=None):
        if fullname != "scipy.linalg":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None:
            return None
        run = spec.loader.exec_module

        def exec_module(package):
            del spec.loader.exec_module   # a reload runs the loader's own
            sys.meta_path.remove(_LinkToPackage)
            run(package)
            # the package binds the submodules it loads; those it lacks were
            # loaded before it
            for key, module in list(sys.modules.items()):
                parent, _, name = key.rpartition(".")
                if parent == fullname and module is not None and not hasattr(package, name):
                    setattr(package, name, module)

        spec.loader.exec_module = exec_module
        return spec


lapack = _scipy_linalg_extension("_flapack")
blas = _scipy_linalg_extension("_fblas")


@dataclass(frozen=True)
class TridiagOperator:
    """Diagonal ``d`` (n,) and the value ``c`` of every off-diagonal entry."""

    d: np.ndarray
    c: float

    def __post_init__(self):
        # what LAPACK reads: n - 1 entries on 8 read-only bytes, one at n = 1 for f2py
        object.__setattr__(self, "_e", np.ndarray(max(self.n - 1, 1), strides=(0,),
                                                  buffer=struct.pack("d", self.c)))

    @property
    def n(self) -> int:
        return len(self.d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.d * x
        y[:-1] += self.c * x[1:]
        y[1:] += self.c * x[:-1]
        return y

    def count_below(self, sigma: float) -> int:
        """Number of eigenvalues in (-inf, sigma] (a ``stebz`` Sturm count).

        ``stebz`` takes the count from the Sturm counts at the ends of the
        range; ``abstol = inf`` marks every interval converged at once, so
        it bisects no eigenvalue.  ``sigma = -inf`` counts 0; a nan
        ``sigma`` raises ValueError.
        """
        sigma = float(sigma)
        if np.isnan(sigma):
            raise ValueError("Sturm count: shift is nan")
        if sigma == -np.inf:
            return 0  # stebz rejects the empty value range vl = vu = -inf
        m, _, _, _, info = lapack.dstebz(self.d, self._e, 1, -np.inf, sigma, 1, 1,
                                         np.inf, "E")
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
        return lapack.dpttrf(self.d - sigma, self._e, overwrite_d=1)[2] == 0


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def row_sums(op: TridiagOperator) -> np.ndarray:
    """|T| 1, which the local scale ||(|T| 1) vec|| weighs: |d_i| + 2|c|, and
    |d_i| + |c| on the end rows (|d| when n = 1)."""
    rows = np.abs(op.d)
    if op.n > 1:
        c = abs(op.c)
        rows += 2.0 * c   # |c| + |c|, exactly
        rows[0], rows[-1] = abs(op.d[0]) + c, abs(op.d[-1]) + c
    return rows


def _gershgorin_bound(op: TridiagOperator) -> float:
    """min(d_i - r_i) for the Gershgorin radii r_i, 2|c| inside and |c| at the
    ends; fl(d_i - r) is monotone in d_i, so min(d_i) - r rounds alike."""
    c = abs(op.c) if op.n > 1 else 0.0
    inner = op.d[1:-1].min() - 2.0 * c if op.n > 2 else math.inf
    return float(min(inner, min(op.d[0], op.d[-1]) - c))


def _cold_vector(op: TridiagOperator) -> np.ndarray:
    """D 1 / sqrt(n), where D = diag(+-1) makes the off-diagonal of D T D
    equal to -|c|: the signs alternate when c > 0."""
    vec = np.full(op.n, op.n ** -0.5)
    if op.c > 0:
        vec[1::2] *= -1.0
    return vec


# an overflowing d - sigma is a pivot beyond the double range, whose row the
# solve decouples as its exact value would to working precision
@np.errstate(over="ignore")
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
    spectrum.  One rule recovers from a shift that does not factor.  sigma
    steps back toward the highest shift known to lie below lambda_1: the
    Gershgorin bound until a shift has factored, then the last one that did.
    It steps by a half, then a quarter, a sixteenth, ... of the distance,
    the fraction squaring while failures run on, and the cold vector below
    is mixed into the iterate on its own side.  Only when that target fails
    itself, the Gershgorin bound of a tight block, does sigma drop below it
    instead, by the scale of the failing row, doubling.  Each step reads the
    Rayleigh quotient rho and the residual of its new vector w / |w| off the
    solve (T - sigma) w = v itself (Parlett, The Symmetric Eigenvalue
    Problem, 4.3): rho = sigma + v.w / |w|^2 and residual
    |v - (v.w / |w|^2) w| / |w|, so a step costs no matvec.  The shift then
    moves up to the Weinstein bound rho - residual, less a margin.
    Iteration stops once rho no longer falls by more than a margin, the
    residual is within twice that margin, and the step's shift was the
    Weinstein bound of its own input or lies within a few margins of rho.
    The margin, 4 eps local, also keeps the shift below rho - residual; it
    is scaled to the rows the vector occupies, because graded operators from
    the wall probe carry diagonal entries near 1e266.

    A cold start begins at the Gershgorin lower bound from D 1, where
    D = diag(+-1) makes the off-diagonal of D T D equal to -|c|, so it
    overlaps the ground state of every block, and for c < 0 every iterate is
    positive.  ``start`` replaces that vector, and its Weinstein bound
    (Weinstein, PNAS 20, 1934), from one matvec, replaces the Gershgorin
    bound as the first shift when it is higher.  The start is then iterate
    0, with rho and that tight shift, so the stop rule can end the iteration
    after one factorisation: the well-extrapolated starts of a solve chain
    usually take one, a start whose residual is not yet at rounding level
    two.  That bound holds for some eigenvalue, not necessarily the lowest;
    when its shift does not factor, the step-back above takes it toward the
    Gershgorin bound.  A start with almost no weight on the ground state
    heads for an excited pair, whose Weinstein bound then passes lambda_1;
    the cold vector each failure mixes in restores that weight.
    Raises ValueError unless ``start`` is None or a finite vector of length
    n with a nonzero entry, and ConvergenceError when rho has not settled
    after a fixed number of factorisations, or when the pair fails its
    residual cap or its index certificate.

    Two n-vectors iterate, besides d - sigma and the row sums, which go
    before the final matvec.  A writable, C-contiguous float64 ``start`` is
    one of them, so the iteration overwrites it; any other start is copied.
    A caller that still needs its start passes a copy.

    The certificate: T - (lam - eps_gap) is positive definite, so no
    eigenvalue lies below lam - eps_gap, where eps_gap = max(1e-10 (1 + |lam|),
    256 eps local) clears the factorisation's own resolution on those rows; a
    global scale such as max |d| + 2 |c| would exceed every gap of a
    graded operator and pass an excited pair.  Every
    ``pttrf`` pivot of T - sigma is a chain of monotone rounded operations in
    sigma, so none falls as sigma falls, in floating point as in exact
    arithmetic: the highest shift sigma_c whose ``ptsv`` factored proves the
    certificate whenever sigma_c >= lam - eps_gap (Parlett, 4.3).  Only below
    that does one more ``pttrf`` (``spectrum_above``) run.
    """
    max_factorisations = 64
    # one O(n) buffer serves every step: d - sigma for ptsv, which
    # overwrites it, and row_sum * vec for the margin
    work, row_sum = np.empty(op.n), row_sums(op)
    # certified, the highest shift known to lie below lambda_1: the Gershgorin
    # bound until a shift factors, then the last shift that factored, which
    # is also the highest, since a shift only fails above it
    certified = sigma = _gershgorin_bound(op)
    # keeps every shift at least floor below the spectrum, so |w| <= 1/floor
    floor = drop = _TINY / _EPS
    # tight: sigma is the Weinstein bound of the vector it is applied to;
    # back, the fraction of the way to certified the next failure steps back
    lam, tight, back = np.inf, False, 0.5
    # level-1 BLAS (ddot, and dscal and daxpy, which update in place) costs
    # a fraction of a numpy ufunc call at these sizes
    if start is None:
        vec = _cold_vector(op)
    else:
        vec = np.require(start, float, "CW")
        if vec.shape != (op.n,):
            raise ValueError(f"start vector has shape {vec.shape}, expected ({op.n},)")
        big = float(np.abs(vec).max())   # nan or inf when an entry is
        if not math.isfinite(big):
            raise ValueError("start vector is not finite")
        if big == 0.0:
            raise ValueError("start vector is zero")
        # at unit max norm, so the 2-norm cannot overflow
        vec /= big
        blas.dscal(1.0 / blas.dnrm2(vec), vec)
        tvec = op.matvec(vec)
        rho = blas.ddot(vec, tvec)
        local = blas.dnrm2(np.multiply(row_sum, vec, out=work))
        margin = 4.0 * _EPS * local + floor
        weinstein = rho - blas.dnrm2(blas.daxpy(vec, tvec, a=-rho)) - margin
        del tvec   # no step reads it
        if weinstein > sigma:
            # the start is iterate 0, so one solve from a converged start
            # can already stop
            sigma, lam, tight = weinstein, rho, True
    spare = np.empty_like(vec)   # ptsv solves in place in a copy of vec
    for _ in range(max_factorisations):
        # [2:] frees the factor's off-diagonal at once
        w, info = lapack.dptsv(np.subtract(op.d, sigma, out=work), op._e, blas.dcopy(vec, spare),
                               overwrite_d=1, overwrite_b=1)[2:]
        if info:
            if sigma > certified:
                # the shift passed lambda_1: step back toward certified, by
                # 1/2, then 1/4, 1/16, 1/256, ... of the way while failures
                # run on, so a shift just below lambda_1 is reached in a few
                # steps, and certified itself by the twelfth, where back
                # has underflowed to 0; halved first, since shifts at the two
                # ends of the double range lie more than its width apart
                sigma = certified + (0.5 * sigma - 0.5 * certified) * (2.0 * back)
                tight = False
                back *= back
            else:
                # certified itself fails, so no shift has factored yet, and
                # T - sigma is singular at the Gershgorin bound (a tight
                # block): drop by the scale of the row whose pivot failed,
                # doubling
                drop = max(2.0 * drop, 4.0 * _EPS * float(row_sum[info - 1]))
                sigma = certified = certified - drop
            # a vector with almost no weight on the ground state invites the
            # overshoot: give it the cold vector's weight, on its own side,
            # since cold added to a start of -cold would leave 0
            cold = _cold_vector(op)
            vec += math.copysign(1.0, vec @ cold) * cold
            vec /= blas.dnrm2(vec)
            continue
        certified, back = sigma, 0.5
        # (T - sigma) w = vec; for the new vector w / |w| the solve gives
        # rho - sigma = vec.w / |w|^2, a small number near convergence, and
        # the residual without a matvec
        norm_w = blas.dnrm2(w)
        blas.dscal(1.0 / norm_w, w)
        proj = blas.ddot(vec, w)
        resid = blas.dnrm2(blas.daxpy(w, vec, a=-proj)) / norm_w   # overwrites vec
        rho = sigma + proj / norm_w
        vec, spare = w, vec
        local = blas.dnrm2(np.multiply(row_sum, vec, out=work))
        margin = 4.0 * _EPS * local + floor
        # below the spectrum each step lowers rho, so stop once it no longer
        # falls (rounding makes it jitter) and the residual is rounding level:
        # the second catches a stall on a shift far below a tight cluster.
        # The step's shift must also be tight, or within a few margins of rho:
        # a shift stuck far below rho says nothing of the eigenvalues between
        # them, where a vector with no weight on a decoupled block (c = 0)
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
    del work, row_sum, spare
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
    border b is rescaled to the matrix norm s; mu is returned in the original
    scaling.  With k = argmax |b|, B = T - lam + s e_k e_k^T is tridiagonal and
    positive definite when lam is the smallest eigenvalue (rank-one
    interlacing); x = B^-1 (rhs - mu b + s xi e_k), where b.x = 0, x_k = xi.
    Raises ConditioningError when B is not positive definite with a margin of
    256 eps s (lam is not the smallest eigenvalue, or it is degenerate), or
    when the relative backward residual exceeds 1e-6.  x is a column of the
    solve's n x 3 right-hand side, which it keeps alive.
    """
    resid_cap = 1e-6
    lifted = op.d - lam
    # max |.| from max and min, with no |.| arrays
    scale = max(lifted.max(), -lifted.min(), 1.0, abs(op.c) if op.n > 1 else 0.0)
    bnorm = np.linalg.norm(border)
    if bnorm == 0.0:
        raise ConditioningError("bordered solve: zero border vector")
    rescale = scale / bnorm   # b = rescale border, built where it is read
    k = int(np.argmax(np.abs(border * rescale)))
    lifted[k] += scale
    # a second eigenvalue of T within the Sturm resolution delta = 256 eps s of
    # lam (lam degenerate) leaves B - delta I indefinite, as does an excited lam
    info = lapack.dpttrf(np.subtract(lifted, 256.0 * _EPS * scale), op._e, overwrite_d=1)[2]
    lifted, efac, info_b = lapack.dpttrf(lifted, op._e, overwrite_d=1)
    if info or info_b:
        raise ConditioningError("bordered solve: lifted matrix not positive definite; "
                                "lam is not a simple lowest eigenvalue")
    cols = np.zeros((op.n, 3), order="F")
    cols[:, 0], cols[k, 2] = rhs, 1.0
    np.multiply(border, rescale, out=cols[:, 1])
    p, q, s = lapack.dpttrs(lifted, efac, cols, overwrite_b=1)[0].T
    del lifted, efac
    b = border * rescale
    with np.errstate(all="ignore"):
        # unknowns (mu, xi = x_k): b.x = 0 and x_k = xi; b.s = q_k by symmetry
        m11, m12, m21, m22 = b @ q, -scale * q[k], q[k], 1.0 - scale * s[k]
        bp, det = b @ p, m11 * m22 - m12 * m21
        mu, xi = (bp * m22 - m12 * p[k]) / det, (m11 * p[k] - m21 * bp) / det
        # x = p - mu q + (scale xi) s, in p, and r = T x - lam x + mu b - rhs,
        # each in that order; q and s are scratch once read
        x = np.subtract(p, np.multiply(q, mu, out=q), out=p)
        x += np.multiply(s, scale * xi, out=s)
        b = np.multiply(border, rescale, out=s)   # frees a vector for r
        r = op.matvec(x)
        r -= np.multiply(x, lam, out=q)
        r += np.multiply(b, mu, out=q)
        r -= rhs
        # dnrm2 scales its sum of squares, which overflows on a short
        # interval's large entries
        resid = np.hypot(blas.dnrm2(r), b @ x)
        rel = resid / (scale * (np.hypot(blas.dnrm2(x), mu) + blas.dnrm2(rhs) / scale + 1.0))
    if not rel <= resid_cap:
        raise ConditioningError(f"bordered solve residual {rel:.3e} exceeds cap "
                                f"{resid_cap:.3e} (eigenvalue nearly degenerate?)")
    return x, float(mu * scale / bnorm)
