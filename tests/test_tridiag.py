import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenshift.errors import ConditioningError
from eigenshift.ground_state import Domain, solve_ground_state
from eigenshift.potentials import make_potential
from eigenshift.sensitivity import compute_sensitivity
from eigenshift.tolerances import DEFAULT_TOLS
from eigenshift.tridiag import (
    TridiagOperator,
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
        # dense eigh runs a different LAPACK routine than stebz + stein
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
    sens = compute_sensitivity(gs, spec, with_fd=False)
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


@pytest.mark.parametrize("op", _lapack_cases(), ids=lambda op: f"n{op.n}-{np.sum(op.e == 0)}splits")
def test_direct_lapack_calls_match_scipy_wrappers(op):
    lam, vec, resid = smallest_eigenpair(op)
    ref_vec = scipy.linalg.eigh_tridiagonal(op.d, op.e, select="i", select_range=(0, 0))[1][:, 0]
    tvec = op.matvec(ref_vec)
    ref_lam = float(ref_vec @ tvec)
    assert np.array_equal(vec, ref_vec)
    assert lam == ref_lam
    assert resid == float(np.linalg.norm(tvec - ref_lam * ref_vec))
    eigs = np.linalg.eigvalsh(dense(op))
    for sigma in (eigs[0] - 1.0, lam, *((eigs[:-1] + eigs[1:]) / 2)[:5], eigs[-1] + 1.0):
        ref = scipy.linalg.eigvalsh_tridiagonal(op.d, op.e, select="v",
                                                select_range=(-np.inf, sigma))
        assert op.count_below(sigma) == len(ref)


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
