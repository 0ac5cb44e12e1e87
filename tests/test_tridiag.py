import importlib.machinery
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenshift.errors import ConditioningError, ConvergenceError
from eigenshift.ground_state import Domain, Grid, _operator_on, solve_ground_state
from eigenshift.potentials import make_potential
from eigenshift.sensitivity import (compute_sensitivity, fd_derivatives, lambda_dot_flux,
                                    solve_u_dot)
from eigenshift.sweep import sweep
from eigenshift.tolerances import DEFAULT_TOLS
from eigenshift.tridiag import (
    TridiagOperator,
    _certify_lowest,
    _cold_vector,
    _gershgorin_bound,
    _scipy_linalg_extension,
    row_sums,
    smallest_eigenpair,
    solve_bordered,
)
from eigenshift.verify import run_battery

ENTRY = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def offdiag(op):
    """The off-diagonal of ``op`` as an array of n - 1 entries."""
    return np.full(op.n - 1, op.c)


def dense(op):
    e = offdiag(op)
    return np.diag(op.d) + np.diag(e, 1) + np.diag(e, -1)


@given(
    d=hnp.arrays(np.float64, st.integers(2, 12), elements=ENTRY),
    data=st.data(),
    sigma=st.floats(-150, 150),
)
@settings(max_examples=60, deadline=None)
def test_sturm_count_matches_dense_eigenvalues(d, data, sigma):
    op = TridiagOperator(d, data.draw(ENTRY))
    eigs = np.linalg.eigvalsh(dense(op))
    # keep the shift away from the spectrum so the count is unambiguous
    if np.min(np.abs(eigs - sigma)) < 1e-6 * (1 + np.max(np.abs(eigs))):
        return
    assert op.count_below(sigma) == int(np.sum(eigs < sigma))


def test_smallest_eigenpair_matches_dense_eigh():
    rng = np.random.default_rng(42)
    for n in (8, 100, 500):
        op = TridiagOperator(rng.normal(size=n) * 5 + 10, -abs(rng.normal()) * 3)
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
    op = TridiagOperator(rng.normal(size=n) + 5.0, -1.0)
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
    op = TridiagOperator(rng.normal(size=n) * 3 + 5.0, -abs(rng.normal()) - 0.5)
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
    op = TridiagOperator(rng.normal(size=60) + 5.0, -1.0)
    lams, vecs = np.linalg.eigh(dense(op))
    with pytest.raises(ConditioningError):
        solve_bordered(op, lams[1], vecs[:, 1], rng.normal(size=op.n))


@pytest.mark.parametrize("m", [4, 5, 7, 50])
def test_bordered_solve_rejects_degenerate_eigenvalue(m):
    # c = 0 and a diagonal that holds its values twice: the lowest
    # eigenvalue is double
    rng = np.random.default_rng(17)
    block_d = 2.0 + rng.normal(size=m)
    op = TridiagOperator(np.concatenate([block_d, block_d[::-1]]), 0.0)
    lam, vec, _ = smallest_eigenpair(op)
    with pytest.raises(ConditioningError):
        solve_bordered(op, lam, vec, rng.normal(size=op.n))


def test_oscillator_u_dot_orthogonal_at_fine_grid():
    # x^2 on (-inf, 0): lambda = 3 and lambda' = -4/sqrt(pi), both the flux
    # route and the FD oracle's
    spec = make_potential("quadratic", c2=1.0)
    gs = solve_ground_state(spec, Domain(-np.inf, 0.0), 32001)
    sens = compute_sensitivity(gs, spec)
    assert sens.orth_residual <= DEFAULT_TOLS.orth
    assert sens.lam == pytest.approx(3.0, rel=1e-6, abs=0.0)
    exact = -4.0 / math.sqrt(math.pi)
    assert sens.lambda_dot_flux == pytest.approx(exact, rel=1e-4, abs=0.0)
    ld_fd = fd_derivatives(spec, gs, sens.u_dot)[0]
    assert ld_fd == pytest.approx(exact, rel=1e-4, abs=0.0)


def test_fine_grid_working_set(working_set):
    # the peak above entry, in n-vectors of 8 N bytes, of one solve and of
    # its sensitivity bundle on x^2 at N = 32001; the returned objects count
    spec, domain, N = make_potential("quadratic", c2=1.0), Domain(-np.inf, 0.0), 32001
    solve_ground_state(spec, domain, 64)   # first-call set-up is not counted
    gs, solve_peak = working_set(lambda: solve_ground_state(spec, domain, N), N)
    sens_peak = working_set(lambda: compute_sensitivity(gs, spec), N)[1]
    assert solve_peak <= 7.1 and sens_peak <= 6.1, (solve_peak, sens_peak)


def test_sweep_working_set(working_set):
    # a 31-endpoint sweep of x^2 at N = 8001: the chain keeps six ground
    # states and builds each start anew, so no buffer outlives its endpoint
    spec = make_potential("quadratic", c2=1.0)
    sweep(spec, -np.inf, -1.0, 2.0, 5, 64)   # first-call set-up is not counted
    result, peak = working_set(lambda: sweep(spec, -np.inf, -1.0, 2.0, 31, 8001), 8001)
    assert result.ok and peak <= 13.5, peak


def test_benchmark_calls_factor_every_shift(lapack_infos):
    # the kinds of call the benchmark makes: a warm sweep chain, the battery,
    # and solve and sensitivity on half-lines at N = 32001.  Every shift the
    # eigensolve tries factors, so none of them takes a recovery step, and
    # every pttrf of the certificate and of the bordered solve factors too.
    # A warm start that overshoots lambda_1 fails here rather than slowing
    # these calls down unseen
    assert sweep(make_potential("quadratic", c2=1.0), -np.inf, -1.0, 2.0, 31, 2001).ok
    assert run_battery(N=801, n_t=11).ok
    for spec, t in [(make_potential("affine", c1=-1.0), 0.5),
                    (make_potential("quadratic", c2=1.0), 0.0),
                    (make_potential("abs_shift", shift=0.0), 1.0)]:
        compute_sensitivity(solve_ground_state(spec, Domain(-np.inf, t), 32001), spec)
    assert len(lapack_infos) > 300
    assert [call for call in lapack_infos if call[1] != 0] == []


def test_no_call_overwrites_its_inputs(monkeypatch):
    # the eigensolve may iterate in its start; every other buffer a call
    # frees or reuses is its own
    import eigenshift.sweep as sweep_module

    def unchanged(call, *arrays):
        before = [a.tobytes() for a in arrays]
        result = call()
        assert [a.tobytes() == b for a, b in zip(arrays, before)] == [True] * len(arrays)
        return result

    rng = np.random.default_rng(11)
    n = 400
    op = TridiagOperator(2.0 + rng.random(n), -1.0)
    start, rhs = rng.random(n) + 0.5, rng.normal(size=n)
    lam, vec, _ = unchanged(lambda: smallest_eigenpair(op), op.d)
    unchanged(lambda: smallest_eigenpair(op, start), op.d)
    unchanged(lambda: solve_bordered(op, lam, vec, rhs), op.d, vec, rhs)
    spec = make_potential("quadratic", c2=1.0)
    gs = solve_ground_state(spec, Domain(-np.inf, 0.0), 4001)
    u_dot = solve_u_dot(gs, lambda_dot_flux(gs))
    unchanged(lambda: fd_derivatives(spec, gs, u_dot), gs.u, gs.op.d, u_dot)

    # the sweep chain: every warm start is extrapolated from the ground
    # states it keeps, and no later solve writes into one of them
    sweep_module = sys.modules[sweep.__module__]
    real, kept = sweep_module._solve_on, []

    def keeping(spec, grid, start=None):
        out = real(spec, grid, start)
        kept.append((out[2], out[2].tobytes()))
        return out

    monkeypatch.setattr(sweep_module, "_solve_on", keeping)
    assert sweep(spec, -np.inf, -1.0, 1.0, 9, 801).ok
    assert len(kept) == 9
    assert [u.tobytes() == before for u, before in kept] == [True] * 9


def test_start_is_iterated_in_or_copied():
    # the eigensolve iterates in a writable, C-contiguous float64 start and
    # copies any other, which it leaves as it was; every start gives the pair
    # bit for bit that a fresh float copy of it gives
    rng = np.random.default_rng(5)
    n = 300
    op = TridiagOperator(2.0 + rng.random(n), -1.0)
    ints = rng.integers(1, 100, 2 * n)   # exact as floats
    readonly = ints[:n].astype(float)
    readonly.flags.writeable = False
    starts = [(ints[:n].astype(float), False), (ints.astype(float)[::2], True),
              (readonly, True), (ints[:n], True), (ints[:n].tolist(), True)]
    for start, kept in starts:
        before = np.array(start, dtype=float)
        expected = smallest_eigenpair(op, before.copy())
        got = smallest_eigenpair(op, start)
        assert (got[0], got[2], got[1].tobytes()) == (expected[0], expected[2],
                                                      expected[1].tobytes())
        if kept:
            assert np.array_equal(np.asarray(start), before)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("c", [-1.0 / 0.02**2, -0.3, 0.0, 0.7, 3.0e5])
def test_closed_forms_match_the_general_off_diagonal_bit_for_bit(n, c):
    # the row sums, the Gershgorin bound and the cold vector, built here as
    # for an arbitrary off-diagonal array full of c
    rng = np.random.default_rng(n)
    e = np.full(n - 1, c)
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    cold = np.full(n, n ** -0.5)
    cold[1:][np.logical_xor.accumulate(e > 0)] *= -1.0
    graded = np.logspace(0.0, 266.0, n)
    for d in (rng.normal(size=n) * 4, 2.0 * abs(c) + rng.random(n), graded, -graded[::-1]):
        op = TridiagOperator(d, c)
        assert row_sums(op).tobytes() == (np.abs(d) + radius).tobytes()
        assert np.float64(_gershgorin_bound(op)).tobytes() == np.min(d - radius).tobytes()
        assert _cold_vector(op).tobytes() == cold.tobytes()


def _lapack_cases():
    rng = np.random.default_rng(23)
    cases = [TridiagOperator(np.array([2.5]), 0.0)]
    for n in (2, 9, 150):
        cases.append(TridiagOperator(rng.normal(size=n) * 4, rng.normal()))
        cases.append(TridiagOperator(rng.normal(size=n) * 4, 0.0))   # n decoupled rows
    return cases


def local_scale(op, vec):
    """||(|T| 1) vec||: the rounding scale of the rows ``vec`` occupies."""
    row_sum = np.abs(op.d)
    row_sum[:-1] += np.abs(offdiag(op))
    row_sum[1:] += np.abs(offdiag(op))
    return np.linalg.norm(row_sum * vec)


def assert_lowest_pair(op, lam, vec, resid):
    """``(lam, vec, resid)`` against dense ``eigh``: lam within 16 eps ||T||_F of
    the lowest eigenvalue, a unit vector whose Rayleigh quotient is lam, and
    its residual norm.  On a graded operator ||T||_F says nothing about the
    lowest eigenvalue, so the residual is also held to the rows the vector
    occupies, and a Sturm count puts no eigenvalue below lam - residual."""
    # the Frobenius norm, scaled so that entries near 1e250 do not overflow
    e = offdiag(op)
    big = max(np.max(np.abs(op.d)), np.max(np.abs(e), initial=0.0), 1e-300)
    fro = big * np.sqrt(np.sum((op.d / big) ** 2) + 2.0 * np.sum((e / big) ** 2))
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


@pytest.mark.parametrize("op", _lapack_cases(),
                         ids=lambda op: f"n{op.n}-{np.sum(offdiag(op) == 0)}splits")
def test_direct_lapack_calls_match_scipy_wrappers(op):
    # the eigenpair is an inverse iteration, so it is held to dense eigh; the
    # Sturm count is one stebz call, the one scipy's wrapper makes
    lam, vec, resid = smallest_eigenpair(op)
    assert_lowest_pair(op, lam, vec, resid)
    assert resid <= 1e-10 * (np.max(np.abs(op.d)) + 1)
    eigs = np.linalg.eigvalsh(dense(op))
    for sigma in (eigs[0] - 1.0, lam, *((eigs[:-1] + eigs[1:]) / 2)[:5], eigs[-1] + 1.0):
        ref = scipy.linalg.eigvalsh_tridiagonal(op.d, offdiag(op), select="v",
                                                select_range=(-np.inf, sigma))
        assert op.count_below(sigma) == len(ref)


def test_count_below_minus_inf_is_zero_and_nan_is_rejected():
    op = TridiagOperator(np.array([1.0, -3.0, 2.0]), 0.5)
    assert op.count_below(-np.inf) == 0
    assert op.count_below(np.inf) == 3
    with pytest.raises(ValueError):
        op.count_below(np.nan)


def test_spectrum_above_rejects_nan_shift():
    # d - nan factors without a pivot failure, so nan must be refused up front
    op = TridiagOperator(np.array([1.0, -3.0, 2.0]), -1.0)
    assert op.spectrum_above(-np.inf) and not op.spectrum_above(np.inf)
    with pytest.raises(ValueError):
        op.spectrum_above(np.nan)


@pytest.mark.parametrize("start", [np.ones(4), np.array([1.0, np.nan, 1.0, 1.0, 1.0]),
                                   np.array([1.0, np.inf, 1.0, 1.0, 1.0]), np.zeros(5)],
                         ids=["wrong-length", "nan", "inf", "zero"])
def test_smallest_eigenpair_rejects_malformed_start(start):
    op = TridiagOperator(np.full(5, 2.0), -1.0)
    with pytest.raises(ValueError):
        smallest_eigenpair(op, start=start)


def test_smallest_eigenpair_from_a_nearby_ground_state():
    # the ground state of a perturbed operator as start: same pair as cold
    rng = np.random.default_rng(29)
    n = 400
    op = TridiagOperator(rng.normal(size=n) + 5.0, -1.0)
    near = TridiagOperator(op.d + 1e-2 * rng.normal(size=n), op.c)
    _, start, _ = smallest_eigenpair(near)
    lam, vec, resid = smallest_eigenpair(op, start=1e3 * start)
    assert_lowest_pair(op, lam, vec, resid)
    assert lam == pytest.approx(smallest_eigenpair(op)[0], rel=1e-13)


def test_converged_start_takes_one_solve_and_no_certificate(lapack_calls):
    # the start is iterate 0: from the operator's own ground state, one ptsv
    # at its Weinstein bound finds rho no lower and the residual at rounding
    # level, and that shift lies within eps_gap of lambda, so it proves the
    # index with no pttrf of its own
    rng = np.random.default_rng(29)
    n = 400
    op = TridiagOperator(rng.normal(size=n) + 5.0, -1.0)
    lam0, vec0, _ = smallest_eigenpair(op)
    lapack_calls.clear()
    lam, vec, resid = smallest_eigenpair(op, start=vec0)
    assert lapack_calls == {"dptsv": 1}
    assert_lowest_pair(op, lam, vec, resid)
    assert lam == pytest.approx(lam0, rel=1e-14)


@st.composite
def lowest_pair_operators(draw):
    """Tridiagonal operators, n = 1..300: an off-diagonal value of either sign
    or zero (n independent rows), optionally a diagonal that holds its values
    twice, which with c = 0 makes the lowest eigenvalue double, and a graded
    diagonal rising to as much as 1e250 at one end."""
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 100), st.floats(-100, -1e-3))
    n = draw(st.integers(1, 300))
    d = draw(hnp.arrays(np.float64, n, elements=entry))
    c = draw(entry)
    if n > 1 and draw(st.booleans()):
        m = n // 2
        d = np.concatenate([d[:m], d[:m][::-1]])
    if draw(st.booleans()):
        grade = np.logspace(0.0, draw(st.floats(0.0, 250.0)), len(d))
        d = d + (grade if draw(st.booleans()) else grade[::-1])
    return TridiagOperator(d, c)


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
    op = TridiagOperator(np.full(n, 2.0 / h2), -1.0 / h2)
    lams, vecs = np.linalg.eigh(dense(op))
    local0, local1 = local_scale(op, vecs[:, 0]), local_scale(op, vecs[:, 1])
    with pytest.raises(ConvergenceError, match="excited"):
        _certify_lowest(op, float(lams[1]), float(lams[0]) - 1.0, local1)
    _certify_lowest(op, float(lams[0]), float(lams[0]) - 1.0, local0)
    _certify_lowest(op, float(lams[0]), float(lams[0]) * (1.0 - 1e-12), local0)


def test_excited_pair_of_a_graded_operator_is_rejected():
    # lambda = 1 on e_2 of diag(0, 1, 1e19) is an exact eigenpair, but not the
    # lowest.  eps_gap on the global scale max|d| + 2|c| = 1e19 was 5.7e5,
    # wider than every gap, so it passed; on the pair's own rows it is 1e-10
    op = TridiagOperator(np.array([0.0, 1.0, 1e19]), 0.0)
    vec = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ConvergenceError, match="excited"):
        _certify_lowest(op, 1.0, -1.0, local_scale(op, vec))


@pytest.mark.parametrize("d, start", [
    ([1000.0, 1.0], [1.0, 0.0]),
    (np.logspace(19.0, 0.0, 7), [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
    ([0.0], [-1.0]),
], ids=["excited-start", "two-excited-blocks", "minus-cold-start"])
def test_start_without_ground_weight_on_decoupled_blocks(d, start):
    # c = 0 keeps every iterate off the ground block until the cold vector is
    # mixed in: a certified shift just below lambda_1 must be found back
    # within the cap, and no step may stop from a shift stuck far below rho.
    # The cold vector goes in on the iterate's side: -cold on diag(0) fails
    # at the Gershgorin bound 0, and adding +cold to it would leave 0
    op = TridiagOperator(np.array(d), 0.0)
    assert_lowest_pair(op, *smallest_eigenpair(op, start=np.array(start)))


def test_diagonal_spanning_the_double_range_is_solved_silently():
    # the excited start's shift sits near 1e308, its certified target at
    # -1e308: the step back between them and d - sigma on the top row both
    # pass the double range, and neither may warn or end in nan
    op = TridiagOperator(np.array([1e308, -1e308]), 0.0)
    lam, vec, resid = smallest_eigenpair(op, start=np.array([1.0, 0.0]))
    assert lam == pytest.approx(-1e308, rel=1e-15)
    assert abs(vec[1]) == 1.0 and vec[0] == 0.0 and resid == 0.0


def test_excited_start_of_the_free_particle_steps_back_in_few_solves(lapack_calls):
    # the exact first excited vector of the free particle at n = 801: its
    # Weinstein bound is lambda_2, where T - sigma does not factor.  Stepping
    # back toward the Gershgorin bound finds a shift below lambda_1 in 7
    # ptsv; a restart at that bound takes 9
    n = 801
    h2 = 1.0 / (n + 1) ** 2
    op = TridiagOperator(np.full(n, 2.0 / h2), -1.0 / h2)
    start = np.sin(2.0 * np.pi * np.arange(1, n + 1) / (n + 1))
    assert_lowest_pair(op, *smallest_eigenpair(op, start=start))
    assert lapack_calls["dptsv"] <= 9, lapack_calls


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
    # a central-difference Schrodinger operator on (0, 1): c = -1/h^2 < 0
    h = 1.0 / (n + 1)
    v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-100, 100)))
    op = TridiagOperator(2.0 / h**2 + v, -1.0 / h**2)
    lam, vec, resid = smallest_eigenpair(op)
    assert_lowest_pair(op, lam, vec, resid)
    assert np.all(vec > 0)


# scipy.linalg/__init__ imports scipy's array-API layer, which takes longer
# than all the solving of a one-shot CLI call; tridiag loads only the two
# extension modules it calls
HEAVY = "[m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules]"


def run_python(code, *args):
    """The last line a fresh interpreter running ``code`` prints."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_linalg_and_sparse_unloaded():
    assert run_python(f"import sys, eigenshift.cli; print({HEAVY})") == "[]"


def test_cli_commands_leave_scipy_linalg_unloaded(tmp_path):
    code = f"""
import sys
from eigenshift.cli import main
quadratic = ["--potential", "quadratic:c2=1", "--a", "-inf"]
for argv in (["solve", *quadratic, "--t", "0", "--N", "64"],
             ["sensitivity", *quadratic, "--t", "0", "--N", "64"],
             ["sweep", *quadratic, "--t-range", "-1:2:5", "--N", "64"],
             ["verify", "--N", "64", "--n-t", "5"]):
    assert main(argv + ["--out-dir", sys.argv[1]]) == 0, argv
print({HEAVY})
"""
    assert run_python(code, str(tmp_path)) == "[]"


@pytest.mark.parametrize("first, then", [("scipy.linalg", "eigenshift.tridiag"),
                                         ("eigenshift.tridiag", "scipy.linalg")])
def test_tridiag_holds_the_scipy_linalg_wrappers(first, then):
    # either import order leaves one module object per extension, so both
    # sides call the same f2py wrappers
    code = f"""
import sys
import {first}
import {then}
from eigenshift import tridiag
for ours, name, public, routines in (
        (tridiag.lapack, "_flapack", scipy.linalg.lapack, "dptsv dpttrf dpttrs dstebz"),
        (tridiag.blas, "_fblas", scipy.linalg.blas, "ddot dscal daxpy dnrm2")):
    assert ours is sys.modules["scipy.linalg." + name], name
    for routine in routines.split():
        assert getattr(ours, routine) is getattr(public, routine), routine
print("same")
"""
    assert run_python(code) == "same"


@pytest.mark.parametrize("first, then", [("scipy.linalg", "eigenshift.tridiag"),
                                         ("eigenshift.tridiag", "scipy.linalg")])
def test_scipy_linalg_has_its_extension_attributes(first, then):
    # tridiag loads the extensions without running scipy.linalg/__init__;
    # a scipy.linalg imported after it must still bind them as attributes
    code = f"""
import sys
import {first}
import {then}
import scipy.linalg
print(all(getattr(scipy.linalg, name) is sys.modules["scipy.linalg." + name]
          for name in ("_flapack", "_fblas")))
"""
    assert run_python(code) == "True"


def test_missing_extension_module_raises_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as info:
        _scipy_linalg_extension("_flapack")
    assert info.value.name == "scipy.linalg._flapack"


def test_bordered_solve_rejects_zero_border():
    op = TridiagOperator(np.ones(4), 0.0)
    with pytest.raises(ConditioningError):
        solve_bordered(op, 1.0, np.zeros(4), np.ones(4))


def test_matvec_matches_dense():
    rng = np.random.default_rng(11)
    op = TridiagOperator(rng.normal(size=30), rng.normal())
    x = rng.normal(size=30)
    np.testing.assert_allclose(op.matvec(x), dense(op) @ x, rtol=1e-13)
