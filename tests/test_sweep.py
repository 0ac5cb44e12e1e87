import importlib
import json
import math
import re

import numpy as np
import pytest
from scipy.special import ai_zeros

from eigenshift.cli import main
from eigenshift.errors import ConfinementError, DomainError, StructureError
from eigenshift.ground_state import MIN_INTERIOR, Domain, solve_ground_state
from eigenshift.potentials import ConvexityClass, make_potential, make_tabulated
from eigenshift.sensitivity import lambda_dot_flux
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


# the package's ``sweep`` attribute is the function, not this module
sweep_module = importlib.import_module("eigenshift.sweep")
ground_state_module = importlib.import_module("eigenshift.ground_state")


def cold_sweep(monkeypatch, *args):
    """``sweep`` with every endpoint solved from the cold start vector: the
    chain hands each endpoint's start to the ``_solve_on`` it calls, and
    this drops it."""
    real, starts = sweep_module._solve_on, []

    def cold(spec, grid, start=None):
        starts.append(start is not None)
        return real(spec, grid)

    with monkeypatch.context() as m:
        m.setattr(sweep_module, "_solve_on", cold)
        result = sweep(*args)
    # the patch reached every endpoint, and all but the first had a start
    assert starts == [False] + [True] * (len(result.ts) - 1)
    return result


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

    def test_dense_sweep_takes_one_factorisation_per_warm_endpoint(self, monkeypatch,
                                                                    lapack_calls):
        real, per_solve = sweep_module._solve_on, []

        def counting(spec, grid, start=None):
            before = lapack_calls["dptsv"]
            solved = real(spec, grid, start)
            per_solve.append((start is not None, lapack_calls["dptsv"] - before))
            return solved

        monkeypatch.setattr(sweep_module, "_solve_on", counting)
        sw = sweep(make_potential("quadratic", c2=1.0), NEG_INF, -1.0, 2.0, 151, 2001)
        assert sw.ok
        # the start is iterate 0, so a converged start stops after one ptsv;
        # only the second and third endpoints, which start from degree 0 and
        # degree 1 extrapolations, take two
        warm = [n for is_warm, n in per_solve if is_warm]
        assert len(per_solve) == 151 and not per_solve[0][0]
        assert warm == [2, 2] + [1] * 148
        # 312 ptsv and 75 pttrf when every warm endpoint took two ptsv from a
        # linear extrapolation; the index certificate's pttrf now runs at the
        # cold first endpoint, at three warm ones and in the wall probe
        assert lapack_calls["dptsv"] == 164
        assert lapack_calls["dpttrf"] == 5


class TestChainEndpoint:
    """A chain endpoint builds no GroundState, but keeps the checks of
    ``solve_ground_state``, and each error names the endpoint it failed at."""

    @pytest.mark.parametrize("args", [CHAINS["free"], CHAINS["quadratic"],
                                      (make_potential("quadratic", c2=1.0), NEG_INF,
                                       -1.0, 2.0, 5, 4001)],
                             ids=["free", "quadratic", "nested-start"])
    def test_first_endpoint_equals_solve_ground_state(self, args):
        # the first endpoint is cold on both paths (from the nested start at
        # N >= 4000), so its values match bit for bit
        spec, a, t_min, _, _, N = args
        sw = sweep(*args)
        gs = solve_ground_state(spec, Domain(a, t_min, sw.a_eff), N)
        assert sw.lambdas[0] == gs.lam
        assert sw.lambda_dots[0] == lambda_dot_flux(gs)

    def test_first_blowup_interval_equals_solve_ground_state(self):
        spec, eps = make_potential("quadratic", c2=1.0), 0.04
        prof = blowup_profile(spec, 0.5, [eps, 0.02], 401)
        assert prof[0] == solve_ground_state(spec, Domain(0.5, 0.5 + eps), 401).lam * eps * eps

    def test_too_few_nodes(self):
        with pytest.raises(DomainError,
                           match=f"^sweep failed at t=0.5: N must be at least {MIN_INTERIOR}$"):
            sweep(make_potential("affine"), 0.0, 0.5, 2.0, 7, MIN_INTERIOR - 1)
        with pytest.raises(DomainError, match="^blow-up profile failed at eps=0.04: N must"):
            blowup_profile(make_potential("affine"), 0.0, [0.04, 0.02], MIN_INTERIOR - 1)

    def test_potential_not_finite_on_an_endpoint_grid(self):
        # 800 x overflows exp past x = 0.887: the endpoints up to 0.85 solve
        spec = make_potential("exp_growth", rate=800.0)
        t = float(np.linspace(0.5, 1.0, 11)[8])
        with pytest.raises(DomainError, match=re.escape(
                f"sweep failed at t={t}: potential is not finite on the working grid")):
            sweep(spec, 0.0, 0.5, 1.0, 11, 801)
        with pytest.raises(DomainError, match="^blow-up profile failed at eps=0.5: potential"):
            blowup_profile(spec, 0.5, [0.5, 0.25], 401)

    def test_sign_changing_vector_rejected(self, monkeypatch):
        # a = 0 needs no wall probe, so the calls are the endpoints'
        real, calls = ground_state_module.smallest_eigenpair, []

        def third_changes_sign(op, start=None):
            lam, vec, resid = real(op, start)
            calls.append(op.n)
            if len(calls) == 3:
                vec[: op.n // 2] *= -1.0
            return lam, vec, resid

        monkeypatch.setattr(ground_state_module, "smallest_eigenpair", third_changes_sign)
        spec, ts = make_potential("affine"), np.linspace(0.5, 2.0, 7)
        with pytest.raises(StructureError, match=re.escape(
                f"sweep failed at t={float(ts[2])}: ground-state vector is not positive")):
            sweep(spec, 0.0, 0.5, 2.0, 7, 301)

    def test_negative_vector_is_turned_positive(self, monkeypatch):
        real = ground_state_module.smallest_eigenpair

        def negated(op, start=None):
            lam, vec, resid = real(op, start)
            return lam, -vec, resid

        expected = sweep(*CHAINS["free"])
        monkeypatch.setattr(ground_state_module, "smallest_eigenpair", negated)
        got = sweep(*CHAINS["free"])
        assert np.array_equal(got.lambdas, expected.lambdas)
        assert np.array_equal(got.lambda_dots, expected.lambda_dots)


class TestSweepValidation:
    def test_too_few_points(self):
        with pytest.raises(DomainError):
            sweep(make_potential("affine"), 0.0, 0.5, 2.0, 4, 301)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            sweep(make_potential("affine"), 1.0, 0.5, 2.0, 7, 301)

    def test_infinite_t_max_rejected(self):
        # rejected before linspace turns the endpoints into nan
        with pytest.raises(DomainError, match="^need a < t_min < t_max < inf, got 0.0, 0.5, inf$"):
            sweep(make_potential("affine"), 0.0, 0.5, math.inf, 7, 301)

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

    @pytest.mark.parametrize("a, eps", [(0.0, [0.02, 0.0]), (0.0, [math.inf, 1.0]),
                                        (0.0, [math.nan]), (1e17, [1.0, 0.5])],
                             ids=["zero", "inf", "nan", "rounds-to-a"])
    def test_requires_an_interval(self, a, eps):
        # each of these leaves no finite interval (a, a + eps) to solve on
        with pytest.raises(DomainError, match="^need a < a [+] eps < inf"):
            blowup_profile(make_potential("affine"), a, eps, 301)


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
