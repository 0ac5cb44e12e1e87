import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenshift.errors import ConditioningError
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
    assert abs(vec @ x) <= 1e-9 * np.linalg.norm(x)
    # the equations hold with the kernel-direction multiplier folded in
    resid = (dense(op) - lam * np.eye(n)) @ x + mu * vec - rhs
    assert np.linalg.norm(resid) <= 1e-7 * (np.max(np.abs(op.d)) * np.linalg.norm(x) + 1)


def test_bordered_solve_rejects_zero_border():
    op = TridiagOperator(d=np.ones(4), e=np.zeros(3))
    with pytest.raises(ConditioningError):
        solve_bordered(op, 1.0, np.zeros(4), np.ones(4))


def test_matvec_matches_dense():
    rng = np.random.default_rng(11)
    op = TridiagOperator(d=rng.normal(size=30), e=rng.normal(size=29))
    x = rng.normal(size=30)
    np.testing.assert_allclose(op.matvec(x), dense(op) @ x, rtol=1e-13)
