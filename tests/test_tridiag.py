import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenshift.errors import ConditioningError, ConvergenceError
from eigenshift.ground_state import Domain, solve_ground_state
from eigenshift.potentials import make_potential
from eigenshift.sensitivity import compute_sensitivity
from eigenshift.tolerances import DEFAULT_TOLS
from eigenshift.tridiag import (
    TridiagOperator,
    _certify_lowest,
    smallest_eigenpair,
    solve_bordered,
)

ENTRY = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def dense(op):
    return np.diag(op.d) + np.diag(op.e, 1) + np.diag(op.e, -1)


@given(
    d=hnp.arrays(np.float64, st.integers(2, 12), elements=ENTRY),
    data=st.data(),
    sigma=st.floats(-150, 150),
)
@settings(max_examples=60, deadline=None)
def test_sturm_count_matches_dense_eigenvalues(d, data, sigma):
    e = data.draw(hnp.arrays(np.float64, len(d) - 1, elements=ENTRY))
    op = TridiagOperator(d=d, e=e)
    eigs = np.linalg.eigvalsh(dense(op))
    # keep the shift away from the spectrum so the count is unambiguous
    if np.min(np.abs(eigs - sigma)) < 1e-6 * (1 + np.max(np.abs(eigs))):
        return
    assert op.count_below(sigma) == int(np.sum(eigs < sigma))


def test_smallest_eigenpair_matches_dense_eigh():
    rng = np.random.default_rng(42)
    for n in (8, 100, 500):
        op = TridiagOperator(d=rng.normal(size=n) * 5 + 10, e=-np.abs(rng.normal(size=n - 1)) * 3)
        lam, vec, resid = smallest_eigenpair(op)
        # dense eigh shares no code with the tridiagonal inverse iteration
        ref = np.linalg.eigh(dense(op))[0][0]
        assert lam == pytest.approx(ref, rel=1e-12)
        assert resid <= 1e-10 * (np.max(np.abs(op.d)) + 1)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
        assert lam == vec @ op.matvec(vec)


def test_bordered_solve_enforces_constraint_and_equations():
    rng = np.random.default_rng(3)
    n = 200
    op = TridiagOperator(d=rng.normal(size=n) + 5.0, e=-np.ones(n - 1))
    lam, vec, _ = smallest_eigenpair(op)
    rhs = rng.normal(size=n)
    x, mu = solve_bordered(op, lam, vec, rhs)
    assert abs(vec @ x) <= 1e-13 * np.linalg.norm(x)
    # the equations hold with the kernel-direction multiplier folded in
    resid = (dense(op) - lam * np.eye(n)) @ x + mu * vec - rhs
    assert np.linalg.norm(resid) <= 1e-7 * (np.max(np.abs(op.d)) * np.linalg.norm(x) + 1)


@pytest.mark.parametrize("n", [8, 100, 500])
def test_bordered_solve_matches_dense_saddle_solve(n):
    rng = np.random.default_rng(n)
    op = TridiagOperator(d=rng.normal(size=n) * 3 + 5.0, e=-np.abs(rng.normal(size=n - 1)) - 0.5)
    lam, vec, _ = smallest_eigenpair(op)
    rhs = rng.normal(size=n)
    x, mu = solve_bordered(op, lam, vec, rhs)
    saddle = np.zeros((n + 1, n + 1))
    saddle[:n, :n] = dense(op) - lam * np.eye(n)
    saddle[:n, n] = saddle[n, :n] = vec
    ref = np.linalg.solve(saddle, np.append(rhs, 0.0))
    assert np.linalg.norm(x - ref[:n]) <= 1e-10 * np.linalg.norm(ref[:n])
    assert mu == pytest.approx(ref[n], rel=1e-10)
    assert abs(vec @ x) <= 1e-13 * np.linalg.norm(x)


def test_bordered_solve_rejects_excited_eigenvalue():
    rng = np.random.default_rng(5)
    op = TridiagOperator(d=rng.normal(size=60) + 5.0, e=-np.ones(59))
    lams, vecs = np.linalg.eigh(dense(op))
    with pytest.raises(ConditioningError):
        solve_bordered(op, lams[1], vecs[:, 1], rng.normal(size=op.n))


@pytest.mark.parametrize("m", [4, 5, 7, 50])
def test_bordered_solve_rejects_degenerate_eigenvalue(m):
    # two decoupled blocks with one spectrum: the lowest eigenvalue is double
    rng = np.random.default_rng(17)
    block_d, block_e = 2.0 + rng.normal(size=m), -np.ones(m - 1)
    op = TridiagOperator(d=np.concatenate([block_d, block_d[::-1]]),
                         e=np.concatenate([block_e, [0.0], block_e[::-1]]))
    lam, vec, _ = smallest_eigenpair(op)
    with pytest.raises(ConditioningError):
        solve_bordered(op, lam, vec, rng.normal(size=op.n))


def test_oscillator_u_dot_orthogonal_at_fine_grid():
    spec = make_potential("quadratic", c2=1.0)
    gs = solve_ground_state(spec, Domain(-np.inf, 0.0), 32001)
    sens = compute_sensitivity(gs, spec)
    assert sens.orth_residual <= DEFAULT_TOLS.orth


def _lapack_cases():
    rng = np.random.default_rng(23)
    cases = [TridiagOperator(d=np.array([2.5]), e=np.zeros(0))]
    for n in (2, 9, 150):
        cases.append(TridiagOperator(d=rng.normal(size=n) * 4, e=rng.normal(size=n - 1)))
        e = rng.normal(size=n - 1)
        e[::3] = 0.0  # split into independent blocks
        cases.append(TridiagOperator(d=rng.normal(size=n) * 4, e=e))
    return cases


def local_scale(op, vec):
    """||(|T| 1) vec||: the rounding scale of the rows ``vec`` occupies."""
    row_sum = np.abs(op.d)
    row_sum[:-1] += np.abs(op.e)
    row_sum[1:] += np.abs(op.e)
    return np.linalg.norm(row_sum * vec)


def assert_lowest_pair(op, lam, vec, resid):
    """``(lam, vec, resid)`` against dense ``eigh``: lam within 16 eps ||T||_F of
    the lowest eigenvalue, a unit vector whose Rayleigh quotient is lam, and
    its residual norm.  On a graded operator ||T||_F says nothing about the
    lowest eigenvalue, so the residual is also held to the rows the vector
    occupies, and a Sturm count puts no eigenvalue below lam - residual."""
    # the Frobenius norm, scaled so that entries near 1e250 do not overflow
    big = max(np.max(np.abs(op.d)), np.max(np.abs(op.e), initial=0.0), 1e-300)
    fro = big * np.sqrt(np.sum((op.d / big) ** 2) + 2.0 * np.sum((op.e / big) ** 2))
    ref = np.linalg.eigh(dense(op))[0][0]
    assert abs(lam - ref) <= 16 * np.finfo(float).eps * fro
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
    tvec = op.matvec(vec)
    assert lam == vec @ tvec
    assert resid == pytest.approx(np.linalg.norm(tvec - lam * vec), rel=1e-12)
    # the Rayleigh quotient's n-term dot product rounds by up to n eps
    local = (16 + op.n) * np.finfo(float).eps * local_scale(op, vec)
    assert resid <= local
    # stebz counts a pivot below its safe minimum as negative: stay clear of it
    pivmin = np.finfo(float).tiny / np.finfo(float).eps
    assert op.count_below(lam - resid - local - pivmin) == 0


@pytest.mark.parametrize("op", _lapack_cases(), ids=lambda op: f"n{op.n}-{np.sum(op.e == 0)}splits")
def test_direct_lapack_calls_match_scipy_wrappers(op):
    # the eigenpair is an inverse iteration, so it is held to dense eigh; the
    # Sturm count is one stebz call, the one scipy's wrapper makes
    lam, vec, resid = smallest_eigenpair(op)
    assert_lowest_pair(op, lam, vec, resid)
    assert resid <= 1e-10 * (np.max(np.abs(op.d)) + 1)
    eigs = np.linalg.eigvalsh(dense(op))
    for sigma in (eigs[0] - 1.0, lam, *((eigs[:-1] + eigs[1:]) / 2)[:5], eigs[-1] + 1.0):
        ref = scipy.linalg.eigvalsh_tridiagonal(op.d, op.e, select="v",
                                                select_range=(-np.inf, sigma))
        assert op.count_below(sigma) == len(ref)


def test_count_below_minus_inf_is_zero_and_nan_is_rejected():
    op = TridiagOperator(d=np.array([1.0, -3.0, 2.0]), e=np.array([0.5, -1.0]))
    assert op.count_below(-np.inf) == 0
    assert op.count_below(np.inf) == 3
    with pytest.raises(ValueError):
        op.count_below(np.nan)


def test_spectrum_above_rejects_nan_shift():
    # d - nan factors without a pivot failure, so nan must be refused up front
    op = TridiagOperator(d=np.array([1.0, -3.0, 2.0]), e=np.array([0.5, -1.0]))
    assert op.spectrum_above(-np.inf) and not op.spectrum_above(np.inf)
    with pytest.raises(ValueError):
        op.spectrum_above(np.nan)


@pytest.mark.parametrize("start", [np.ones(4), np.array([1.0, np.nan, 1.0, 1.0, 1.0]),
                                   np.array([1.0, np.inf, 1.0, 1.0, 1.0]), np.zeros(5)],
                         ids=["wrong-length", "nan", "inf", "zero"])
def test_smallest_eigenpair_rejects_malformed_start(start):
    op = TridiagOperator(d=np.full(5, 2.0), e=np.full(4, -1.0))
    with pytest.raises(ValueError):
        smallest_eigenpair(op, start=start)


def test_smallest_eigenpair_from_a_nearby_ground_state():
    # the ground state of a perturbed operator as start: same pair as cold
    rng = np.random.default_rng(29)
    n = 400
    op = TridiagOperator(d=rng.normal(size=n) + 5.0, e=-np.ones(n - 1))
    near = TridiagOperator(d=op.d + 1e-2 * rng.normal(size=n), e=op.e)
    _, start, _ = smallest_eigenpair(near)
    lam, vec, resid = smallest_eigenpair(op, start=1e3 * start)
    assert_lowest_pair(op, lam, vec, resid)
    assert lam == pytest.approx(smallest_eigenpair(op)[0], rel=1e-13)


@st.composite
def lowest_pair_operators(draw):
    """Tridiagonal operators, n = 1..300: mixed-sign off-diagonals with zeros
    (independent blocks), optionally a doubled block (a double lowest
    eigenvalue) and a graded diagonal rising to as much as 1e250 at one end."""
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 100), st.floats(-100, -1e-3))
    n = draw(st.integers(1, 300))
    d = draw(hnp.arrays(np.float64, n, elements=entry))
    e = draw(hnp.arrays(np.float64, n - 1, elements=entry))
    if n > 1 and draw(st.booleans()):
        m = n // 2
        d = np.concatenate([d[:m], d[:m][::-1]])
        e = np.concatenate([e[:m - 1], [0.0], e[:m - 1][::-1]])
    if draw(st.booleans()):
        grade = np.logspace(0.0, draw(st.floats(0.0, 250.0)), len(d))
        d = d + (grade if draw(st.booleans()) else grade[::-1])
    return TridiagOperator(d=d, e=e)


@given(op=lowest_pair_operators())
@settings(max_examples=80, deadline=None)
def test_smallest_eigenpair_property_matches_dense_eigh(op):
    assert_lowest_pair(op, *smallest_eigenpair(op))


def draw_start(op, kind, data):
    """A start vector for ``op``: random, near the ground state, or the exact
    first excited vector."""
    vecs = np.linalg.eigh(dense(op))[1]
    if kind == "random":
        start = data.draw(hnp.arrays(np.float64, op.n, elements=st.floats(-1, 1)))
        assume(np.any(start != 0.0))
        return start
    if kind == "near":
        noise = data.draw(hnp.arrays(np.float64, op.n, elements=st.floats(-1, 1)))
        return vecs[:, 0] + data.draw(st.sampled_from([1e-12, 1e-6, 1e-2])) * noise
    return vecs[:, min(1, op.n - 1)]


START_KINDS = st.sampled_from(["random", "near", "excited"])


@given(op=lowest_pair_operators(), kind=START_KINDS, data=st.data())
@settings(max_examples=120, deadline=None)
def test_smallest_eigenpair_from_any_start_returns_the_lowest_pair(op, kind, data):
    # a start's Weinstein bound may belong to an excited eigenvalue: the exact
    # first excited vector puts the first shift above lambda_1, where T - sigma
    # does not factor, and the iteration must still end on the lowest pair
    assert_lowest_pair(op, *smallest_eigenpair(op, start=draw_start(op, kind, data)))


@seed(1502)
@given(op=lowest_pair_operators(), kind=START_KINDS, data=st.data())
@settings(max_examples=80, deadline=None)
def test_returned_pair_passes_an_independent_index_count(op, kind, data):
    # the certificate usually rests on the last shift the iteration factored,
    # with no pttrf of its own: a stebz Sturm count, which shares no code with
    # it, must find no eigenvalue below lam - eps_gap whenever a pair returns,
    # eps_gap on the pair's local scale, as certified
    lam, vec, _ = smallest_eigenpair(op, start=draw_start(op, kind, data))
    eps_gap = max(1e-10 * (1.0 + abs(lam)), 256.0 * np.finfo(float).eps * local_scale(op, vec))
    assert op.count_below(lam - eps_gap) == 0


def test_excited_eigenpair_is_rejected():
    # an eigensolve that settles on the second pair, residual and all, with
    # its highest factored shift below lambda_1, must fail the certificate;
    # the lowest pair passes it with that shift low (one pttrf) or within
    # eps_gap of lambda_1 (none)
    n = 64
    h2 = 1.0 / (n + 1) ** 2
    op = TridiagOperator(d=np.full(n, 2.0 / h2), e=np.full(n - 1, -1.0 / h2))
    lams, vecs = np.linalg.eigh(dense(op))
    local0, local1 = local_scale(op, vecs[:, 0]), local_scale(op, vecs[:, 1])
    with pytest.raises(ConvergenceError, match="excited"):
        _certify_lowest(op, float(lams[1]), float(lams[0]) - 1.0, local1)
    _certify_lowest(op, float(lams[0]), float(lams[0]) - 1.0, local0)
    _certify_lowest(op, float(lams[0]), float(lams[0]) * (1.0 - 1e-12), local0)


def test_excited_pair_of_a_graded_operator_is_rejected():
    # lambda = 1 on e_2 of diag(0, 1, 1e19) is an exact eigenpair, but not the
    # lowest.  eps_gap on the global scale max|d| + 2 max|e| = 1e19 was 5.7e5,
    # wider than every gap, so it passed; on the pair's own rows it is 1e-10
    op = TridiagOperator(d=np.array([0.0, 1.0, 1e19]), e=np.zeros(2))
    vec = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ConvergenceError, match="excited"):
        _certify_lowest(op, 1.0, -1.0, local_scale(op, vec))


@pytest.mark.parametrize("d, start", [
    ([1000.0, 1.0], [1.0, 0.0]),
    (np.logspace(19.0, 0.0, 7), [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
], ids=["excited-start", "two-excited-blocks"])
def test_start_without_ground_weight_on_decoupled_blocks(d, start):
    # e = 0 keeps every iterate off the ground block until the cold vector is
    # mixed in: a certified shift just below lambda_1 must be found back
    # within the cap, and no step may stop from a shift stuck far below rho
    op = TridiagOperator(d=np.array(d), e=np.zeros(len(d) - 1))
    assert_lowest_pair(op, *smallest_eigenpair(op, start=np.array(start)))


@given(op=lowest_pair_operators(), above=st.booleans())
@settings(max_examples=80, deadline=None)
def test_spectrum_above_is_an_empty_sturm_count(op, above):
    # one pttrf of T - sigma against the stebz count, clear of the spectrum
    lam_min = np.linalg.eigvalsh(dense(op))[0]
    sigma = lam_min + (1.0 if above else -1.0) * 1e-6 * (1.0 + abs(lam_min))
    assert op.spectrum_above(sigma) == (op.count_below(sigma) == 0)
    assert op.spectrum_above(sigma) != above


@given(n=st.integers(1, 300),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_smallest_eigenpair_vector_is_positive_for_negative_off_diagonal(n, data):
    # a central-difference Schrodinger operator on (0, 1): e = -1/h^2 < 0
    h = 1.0 / (n + 1)
    v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-100, 100)))
    op = TridiagOperator(d=2.0 / h**2 + v, e=np.full(n - 1, -1.0 / h**2))
    lam, vec, resid = smallest_eigenpair(op)
    assert_lowest_pair(op, lam, vec, resid)
    assert np.all(vec > 0)


def test_cli_import_leaves_scipy_sparse_unloaded():
    code = "import sys, eigenshift.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_bordered_solve_rejects_zero_border():
    op = TridiagOperator(d=np.ones(4), e=np.zeros(3))
    with pytest.raises(ConditioningError):
        solve_bordered(op, 1.0, np.zeros(4), np.ones(4))


def test_matvec_matches_dense():
    rng = np.random.default_rng(11)
    op = TridiagOperator(d=rng.normal(size=30), e=rng.normal(size=29))
    x = rng.normal(size=30)
    np.testing.assert_allclose(op.matvec(x), dense(op) @ x, rtol=1e-13)
