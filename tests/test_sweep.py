import collections
import importlib
import json
import math

import numpy as np
import pytest
from scipy.special import ai_zeros

from eigenshift.cli import main
from eigenshift.errors import ConfinementError, DomainError
from eigenshift.ground_state import Domain, solve_ground_state
from eigenshift.potentials import ConvexityClass, make_potential, make_tabulated
from eigenshift.sweep import (
    SweepResult,
    blowup_profile,
    chord_tangent_violation,
    sweep,
    verdict_metadata,
)

NEG_INF = float("-inf")
PI2 = math.pi * math.pi
AIRY_ZERO = float(ai_zeros(1)[0][0])


@pytest.fixture(scope="module")
def free_sweep():
    return sweep(make_potential("affine"), 0.0, 0.5, 2.0, 31, 1001)


@pytest.fixture(scope="module")
def quad_sweep():
    return sweep(make_potential("quadratic", c2=1.0), NEG_INF, -1.0, 2.0, 31, 2001)


class TestFreeSweep:
    def test_matches_closed_form(self, free_sweep):
        np.testing.assert_allclose(free_sweep.lambdas, PI2 / free_sweep.ts**2,
                                   rtol=2e-5)

    def test_monotone_and_convex(self, free_sweep):
        assert free_sweep.monotone_decreasing
        assert free_sweep.convex_in_t
        assert not free_sweep.concave_in_t

    def test_slopes_between_chords(self, free_sweep):
        assert chord_tangent_violation(free_sweep, "convex") == 0.0


class TestAirySweep:
    def test_energy_curve_is_affine(self):
        spec = make_potential("affine", c1=-1.0)
        sw = sweep(spec, NEG_INF, 0.0, 4.0, 11, 8001)
        np.testing.assert_allclose(sw.lambdas + sw.ts, -AIRY_ZERO, atol=2e-6)
        assert np.max(np.abs(sw.second_diffs)) < sw.tol_thm
        assert sw.convex_in_t and sw.concave_in_t

    def test_theorem_verdict_expects_both(self):
        spec = make_potential("affine", c1=-1.0)
        sw = sweep(spec, NEG_INF, 0.0, 4.0, 7, 2001)
        assert sw.convexity is ConvexityClass.AFFINE
        assert sw.expect_convex and sw.expect_concave
        assert sw.ok


class TestQuadraticSweep:
    def test_convex_and_decreasing(self, quad_sweep):
        assert quad_sweep.monotone_decreasing
        assert quad_sweep.convex_in_t
        assert np.min(quad_sweep.second_diffs) > 0

    def test_approaches_infinite_line_energy(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 6.0), 3001)
        assert gs.lam == pytest.approx(1.0, abs=2e-6)

    def test_shared_wall(self, quad_sweep):
        assert quad_sweep.a_eff < -1.0
        assert not math.isfinite(quad_sweep.a)


class TestConcaveSweep:
    def test_tilted_kink_concave(self):
        spec = make_potential("neg_abs", slope=2.0, amp=1.0)
        sw = sweep(spec, NEG_INF, 0.5, 2.5, 21, 2001)
        assert sw.convexity is ConvexityClass.CONCAVE
        assert sw.expect_concave and sw.concave_in_t and sw.ok
        assert np.max(sw.second_diffs) < 0
        assert chord_tangent_violation(sw, "concave") <= 1e-3

    def test_concave_finite_interval_not_asserted(self):
        spec = make_potential("neg_quadratic")
        sw = sweep(spec, 0.0, 0.5, 1.5, 11, 501)
        assert sw.convexity is ConvexityClass.CONCAVE
        assert not sw.expect_concave   # hypothesis a = -inf absent
        assert sw.monotone_decreasing
        assert sw.ok


class TestNegativeControls:
    """Verdicts that must come out False: a check that always passed fails here."""

    def test_double_well_is_neither_convex_nor_concave(self):
        # V is not convex on (-3, 3): no curvature is expected, and the curve
        # bends both ways far beyond tol_thm (min second difference -2.88)
        spec = make_tabulated([-3, -1.5, -0.5, 0.5, 1.5, 4], [40, 0, 6, 6, 0, 40])
        sw = sweep(spec, -3.0, -0.2, 3.0, 81, 2001)
        assert sw.convexity is ConvexityClass.INDETERMINATE
        assert not sw.convex_in_t and not sw.concave_in_t
        assert np.min(sw.second_diffs) < -1000 * sw.tol_thm
        assert np.max(sw.second_diffs) > 1000 * sw.tol_thm
        assert not (sw.expect_convex or sw.expect_concave)
        assert sw.ok

    @staticmethod
    def built(convexity, second_diffs, a=NEG_INF, lambdas=(5.0, 4.0, 3.0, 2.0, 1.0)):
        return SweepResult(ts=np.linspace(0.0, 1.0, 5), lambdas=np.array(lambdas),
                           lambda_dots=np.full(5, -1.0), second_diffs=np.array(second_diffs),
                           a=a, a_eff=-10.0 if a == NEG_INF else a, N=64, tol_thm=1e-3,
                           convexity=convexity)

    def test_convex_class_with_one_dip_fails(self):
        assert self.built(ConvexityClass.CONVEX, [0.5, -0.9e-3, 0.5]).ok
        sw = self.built(ConvexityClass.CONVEX, [0.5, -1.1e-3, 0.5])
        assert sw.expect_convex and not sw.convex_in_t
        assert not sw.ok
        assert sw.verdict()["ok"] is False

    def test_concave_class_on_a_half_line_with_one_bump_fails(self):
        sw = self.built(ConvexityClass.CONCAVE, [-0.5, 1.1e-3, -0.5])
        assert sw.expect_concave and not sw.concave_in_t
        assert not sw.ok
        # on a finite interval concavity is not expected, so the bump passes
        assert self.built(ConvexityClass.CONCAVE, [-0.5, 1.1e-3, -0.5], a=-10.0).ok

    def test_non_monotone_curve_fails(self):
        sw = self.built(ConvexityClass.AFFINE, [0.0, 0.0, 0.0],
                        lambdas=(5.0, 4.0, 4.5, 2.0, 1.0))
        assert sw.convex_in_t and sw.concave_in_t
        assert not sw.monotone_decreasing and not sw.ok


CHAINS = {
    "free": (make_potential("affine"), 0.0, 0.5, 2.0, 31, 1001),
    "quadratic": (make_potential("quadratic", c2=1.0), NEG_INF, -1.0, 2.0, 31, 2001),
    "neg_abs": (make_potential("neg_abs", slope=2.0, amp=1.0), NEG_INF, 0.5, 2.5, 21, 2001),
    # two wells of depth 50 at the ends of (-20, t); at t = -10 they are equally
    # deep, and the previous ground state holds almost none of the new one
    "tent": (make_potential("neg_abs", slope=0.0, amp=50.0, shift=-15.0),
             -20.0, -14.0, -6.0, 11, 801),
}


def cold_sweep(monkeypatch, *args):
    """``sweep`` with every endpoint solved from the cold start vector."""
    # the package's ``sweep`` attribute is the function, not this module
    sweep_module = importlib.import_module("eigenshift.sweep")
    real = sweep_module.solve_ground_state
    with monkeypatch.context() as m:
        m.setattr(sweep_module, "solve_ground_state",
                  lambda spec, domain, N, start=None: real(spec, domain, N))
        return sweep(*args)


class TestWarmStartChain:
    @pytest.mark.parametrize("key", list(CHAINS))
    def test_warm_sweep_matches_cold_solves(self, key, monkeypatch):
        args = CHAINS[key]
        warm, cold = sweep(*args), cold_sweep(monkeypatch, *args)
        assert warm.a_eff == cold.a_eff
        np.testing.assert_allclose(warm.lambdas, cold.lambdas, rtol=1e-11, atol=0.0)
        assert warm.verdict() == cold.verdict()
        assert warm.convexity is cold.convexity
        assert warm.ok

    def test_warm_sweep_takes_fewer_factorisations(self, monkeypatch, lapack_calls):
        args = CHAINS["free"]
        sweep(*args)
        warm = lapack_calls["dptsv"]
        lapack_calls.clear()
        cold_sweep(monkeypatch, *args)
        assert warm < lapack_calls["dptsv"]

    def test_extrapolated_chain_factorisation_count(self, lapack_calls):
        # 124 factorisations when every endpoint started from the previous
        # ground state at the Gershgorin shift
        sweep(*CHAINS["quadratic"])
        assert lapack_calls["dptsv"] <= 80

    def test_dense_sweep_takes_two_factorisations_per_warm_endpoint(self, monkeypatch,
                                                                     lapack_calls):
        sweep_module = importlib.import_module("eigenshift.sweep")
        real, per_solve = sweep_module.solve_ground_state, []

        def counting(spec, domain, N, start=None):
            before = lapack_calls["dptsv"]
            gs = real(spec, domain, N, start=start)
            per_solve.append((start is not None, lapack_calls["dptsv"] - before))
            return gs

        monkeypatch.setattr(sweep_module, "solve_ground_state", counting)
        sw = sweep(make_potential("quadratic", c2=1.0), NEG_INF, -1.0, 2.0, 151, 2001)
        assert sw.ok
        warm = [n for is_warm, n in per_solve if is_warm]
        assert len(warm) == 150 and set(warm) == {2}
        # the index certificate took one pttrf per endpoint, 151, when every
        # solve ran its own; it now runs only where the highest factored
        # shift lies below lambda - eps_gap: 74 of the 2001-node solves and
        # the wall probe's.  eps_gap on the pair's own rows is tighter than
        # the global 256 eps (max|d| + 2 max|e|), which let one more through
        assert lapack_calls["dpttrf"] == 75


@pytest.fixture
def lapack_calls(monkeypatch):
    """How often the eigensolve calls each LAPACK routine while the test runs."""
    import eigenshift.tridiag as tridiag

    calls, lapack = collections.Counter(), tridiag.lapack

    class Counting:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(lapack, name)

    monkeypatch.setattr(tridiag, "lapack", Counting())
    return calls


class TestSweepValidation:
    def test_too_few_points(self):
        with pytest.raises(DomainError):
            sweep(make_potential("affine"), 0.0, 0.5, 2.0, 4, 301)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            sweep(make_potential("affine"), 1.0, 0.5, 2.0, 7, 301)

    def test_unconfined_rejected(self):
        with pytest.raises(ConfinementError):
            sweep(make_potential("neg_quadratic"), NEG_INF, 0.5, 1.5, 7, 301)


class TestBlowup:
    def test_free_rate_is_pi_squared(self):
        prof = blowup_profile(make_potential("affine"), 0.0, [0.04, 0.02, 0.01], 401)
        np.testing.assert_allclose(prof, PI2, rtol=1e-4)

    def test_free_profile_is_scale_invariant(self):
        # with V = 0 the problem rescales exactly, so lambda * eps^2 is the
        # same number for every eps at fixed N
        prof = blowup_profile(make_potential("affine"), 0.0, [0.5, 0.04, 0.001], 401)
        np.testing.assert_allclose(prof, prof[0], rtol=1e-11)

    def test_quadratic_rate(self):
        prof = blowup_profile(make_potential("quadratic", c2=1.0), 0.0,
                              [0.02, 0.01], 401)
        assert prof[-1] == pytest.approx(PI2, rel=1e-3)

    def test_monotone_blowup(self):
        eps = [0.08, 0.04, 0.02, 0.01]
        prof = blowup_profile(make_potential("affine"), 0.0, eps, 401)
        lam = prof / np.square(eps)
        assert np.all(np.diff(lam) > 0)

    def test_requires_finite_a(self):
        with pytest.raises(DomainError):
            blowup_profile(make_potential("quadratic", c2=1.0), NEG_INF, [0.1], 301)

    def test_requires_decreasing_eps(self):
        with pytest.raises(DomainError):
            blowup_profile(make_potential("affine"), 0.0, [0.01, 0.02], 301)


class TestSweepExport:
    def test_csv_and_verdict(self, tmp_path, free_sweep):
        # the free_sweep fixture, written by the CLI
        assert main(["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:2:31",
                     "--N", "1001", "--format", "csv,json", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "t,lambda,lambda_dot,second_diff"
        assert len(lines) == 32
        assert lines[1].endswith(",")            # no curvature at the first row

        payload = json.loads((tmp_path / "verdict.json").read_text())
        assert payload == verdict_metadata(free_sweep)
        assert payload["monotone_decreasing"] is True
        assert payload["n_t"] == 31 and payload["a"] == 0.0
