import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ai_zeros, airy

from eigenshift.cli import RunConfig, _row_blocks, _write_columns, write_json
from eigenshift.errors import ConfinementError, DomainError
from eigenshift.ground_state import (
    Domain,
    Grid,
    _operator_on,
    _probe_lambda,
    ground_state_metadata,
    rayleigh_energy,
    richardson_lambda,
    solve_ground_state,
    truncate_domain,
)
from eigenshift.potentials import eval_V, make_potential
from eigenshift.sensitivity import lambda_dot_flux
from eigenshift.tolerances import DEFAULT_TOLS
from eigenshift.tridiag import blas, row_sums, smallest_eigenpair

NEG_INF = float("-inf")
PI2 = math.pi * math.pi
AIRY_ZERO = float(ai_zeros(1)[0][0])   # first zero of Ai, about -2.3381074


def free():
    return make_potential("affine")


class TestDomainAndGrid:
    def test_finite_domain_fills_wall(self):
        d = Domain(0.0, 1.0)
        assert d.a_eff == 0.0 and d.resolved and not d.unbounded_left

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            Domain(2.0, 1.0)

    def test_infinite_t_rejected(self):
        with pytest.raises(DomainError):
            Domain(0.0, float("inf"))

    def test_unresolved_then_walled(self):
        d = Domain(NEG_INF, 1.0)
        assert not d.resolved
        d2 = d.with_wall(-8.0)
        assert d2.a_eff == -8.0 and d2.unbounded_left

    def test_wall_must_be_left_of_t(self):
        with pytest.raises(DomainError):
            Domain(NEG_INF, 1.0, 2.0)

    def test_grid_uniform(self):
        g = Grid.build(0.0, 1.0, 99)
        assert g.n_interior == 99
        assert g.h == pytest.approx(0.01)
        np.testing.assert_allclose(np.diff(g.x), g.h, rtol=1e-13)

    @given(ends=st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=2, unique=True),
           N=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_grid_is_linspace_bit_for_bit(self, ends, N):
        # linspace takes another route when the step underflows to 0; such a
        # grid makes 2/h^2 infinite, which _operator_on rejects either way
        a_eff, t = sorted(ends)
        x, h = np.linspace(a_eff, t, N + 2, retstep=True)
        assume(h != 0.0)
        g = Grid.build(a_eff, t, N)
        assert np.array_equal(g.x, x) and g.h == h


class TestDiscretize:
    def test_two_interior_nodes_free(self):
        op = _operator_on(free(), Grid.build(0.0, 1.0, 2))
        np.testing.assert_allclose(op.d, [18.0, 18.0])
        assert op.c == -9.0

    @pytest.mark.parametrize("spec, a, t", [
        (free(), 0.0, 1e-155),   # 2/h^2 is inf, though V = 0 on the grid
        (free(), 0.0, 1e-160),   # h^2 is 0
        (make_potential("exp_growth", amp=1.0, rate=-1e300), NEG_INF, 0.0),   # the probe's h
    ], ids=["overflows", "underflows", "probe"])
    def test_spacing_too_small_for_2_over_h2_is_a_domain_error(self, spec, a, t):
        with pytest.raises(DomainError, match=r"grid spacing h = \S+ is too small"):
            solve_ground_state(spec, Domain(a, t), 64)

    def test_constant_potential_shifts_diagonal(self):
        spec = make_potential("affine", c0=7.0)
        # the operator each ground state carries is the one it was solved from
        op0 = solve_ground_state(free(), Domain(0.0, 2.0), 31).op
        op7 = solve_ground_state(spec, Domain(0.0, 2.0), 31).op
        np.testing.assert_allclose(op7.d - op0.d, 7.0)
        assert op7.c == op0.c

    def test_discrete_eigenvalue_tends_to_pi_squared(self):
        # smallest eigenvalue of the free Dirichlet matrix is (4/h^2) sin^2(pi h/2)
        errs = []
        for N in (50, 100, 200):
            gs = solve_ground_state(free(), Domain(0.0, 1.0), N)
            h = gs.grid.h
            assert gs.lam == pytest.approx((4 / h**2) * math.sin(math.pi * h / 2) ** 2,
                                           rel=1e-12)
            errs.append(abs(gs.lam - PI2))
        # O(h^2) convergence: each doubling divides the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


@pytest.fixture(scope="module")
def free_gs():
    return solve_ground_state(free(), Domain(0.0, 1.0), 2001)


class TestFreeParticle:
    @pytest.fixture()
    def gs(self, free_gs):
        return free_gs

    def test_lambda(self, gs):
        assert gs.lam == pytest.approx(PI2, rel=1e-6)

    def test_richardson_kills_h2_error(self):
        lam, _, _ = richardson_lambda(free(), Domain(0.0, 1.0), 1000)
        assert lam == pytest.approx(PI2, rel=1e-10)

    def test_eigenfunction_is_sine(self, gs):
        x = gs.grid.x
        np.testing.assert_allclose(gs.u, math.sqrt(2) * np.sin(math.pi * x),
                                   atol=2e-6)

    def test_fluxes(self, gs):
        root2pi = math.sqrt(2) * math.pi
        assert gs.flux_a == pytest.approx(root2pi, rel=1e-5)
        assert gs.flux_t == pytest.approx(-root2pi, rel=1e-5)

    def test_normalized(self, gs):
        assert abs(gs.quad_norm - 1.0) <= 1e-12

    def test_residual_small(self, gs):
        assert gs.residual <= 1e-8 * (1 + abs(gs.lam))

    def test_rayleigh_identity(self, gs):
        assert rayleigh_energy(gs, free()) == pytest.approx(gs.lam, abs=1e-10)

    def test_positive_and_nodeless(self, gs):
        assert np.all(gs.u[1:-1] > 0)

    def test_symmetric_well_even_function(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(-3.0, 3.0), 1001)
        np.testing.assert_allclose(gs.u, gs.u[::-1], atol=1e-9)
        assert gs.flux_a == pytest.approx(-gs.flux_t, rel=1e-10)


class TestRayleighEnergy:
    def test_free_energy_is_pi_squared(self):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 1501)
        assert rayleigh_energy(gs, free()) == pytest.approx(PI2, rel=1e-5)

    def test_constant_shift_moves_energy_exactly(self):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 301)
        shifted = make_potential("affine", c0=4.5)
        e0 = rayleigh_energy(gs, free())
        e1 = rayleigh_energy(gs, shifted)
        assert e1 - e0 == pytest.approx(4.5, abs=1e-12)


class TestShiftCovariance:
    @given(c=st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_lambda_shifts_and_u_unchanged(self, c):
        base = make_potential("quadratic", c2=1.0)
        shifted = make_potential("quadratic", c0=c, c2=1.0)
        gs0 = solve_ground_state(base, Domain(-2.0, 1.0), 301)
        gs1 = solve_ground_state(shifted, Domain(-2.0, 1.0), 301)
        assert gs1.lam - gs0.lam == pytest.approx(c, abs=1e-9 * (1 + abs(c)))
        np.testing.assert_allclose(gs1.u, gs0.u, atol=1e-9)


class TestHalfOscillator:
    def test_lambda_is_three(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 4001)
        assert gs.lam == pytest.approx(3.0, rel=1e-6)

    def test_eigenfunction_is_odd_hermite(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        x = gs.grid.x
        exact = x * np.exp(-x * x / 2)
        exact /= -math.sqrt(np.trapezoid(exact * exact, x))   # positive on x<0
        np.testing.assert_allclose(gs.u, exact, atol=5e-6)


class TestAiry:
    def test_lambda_tracks_first_airy_zero(self):
        spec = make_potential("affine", c1=-1.0)
        for t in (0.0, 2.0):
            gs = solve_ground_state(spec, Domain(NEG_INF, t), 8001)
            assert gs.lam == pytest.approx(-t - AIRY_ZERO, abs=2e-6)

    def test_eigenfunction_is_airy(self):
        spec = make_potential("affine", c1=-1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 4001)
        x = gs.grid.x
        exact = airy(-x - gs.lam)[0]
        exact /= math.sqrt(np.trapezoid(exact * exact, x))
        np.testing.assert_allclose(gs.u, exact, atol=1e-5)


class TestTruncation:
    @pytest.mark.parametrize("family, params, t, inside", [
        ("quadratic", {"c2": 1.0}, 0.0, 0.0),
        ("affine", {"c1": -1.0}, 2.0, 2.0),
        ("affine", {"c1": -1e-3}, 0.0, 0.0),
        ("quadratic", {"c0": 2500.0, "c1": 100.0, "c2": 1.0}, 0.0, -50.0),
        ("abs_shift", {}, 1.0, 0.0),
        ("exp_growth", {"rate": -2.0}, 1.0, 1.0),
        ("quadratic", {"c2": 1e-8}, 0.0, 0.0),
        ("exp_growth", {"rate": -1.0}, 1.0, 1.0),
        # steep: whole trapezoid cells put these walls at 27.85, 24.46 and 41.9
        ("exp_growth", {"rate": -30.0}, 1.0, 1.0),
        ("exp_growth", {"rate": -300.0}, 1.0, 1.0),
        ("exp_growth", {"rate": -1000.0}, 1.0, 1.0),
        # 24.99 with trapezoid cells only: the log-mean cells count it right
        ("exp_growth", {"rate": -1500.0}, 1.0, 1.0),
        # 24.69 with a turning-point cell read as one trapezoid
        ("exp_growth", {"rate": -4800.0}, 1.0, 1.0),
    ], ids=["x2", "airy", "shallow_tilt", "far_vertex", "abs", "exp", "scaled_x2",
            "exp_1", "exp_30", "exp_300", "exp_1000", "exp_1500", "exp_4800"])
    def test_wall_at_agmon_distance(self, family, params, t, inside):
        # the Agmon distance from the turning point right of the wall, where
        # V meets the probe energy, to the wall is K up to 2%
        spec = make_potential(family, **params)
        w, lam = _probe_lambda(spec, t)
        wall = truncate_domain(spec, t, lam, w)
        turning = brentq(lambda x: eval_V(spec, x) - lam, wall, inside)
        dist, _ = quad(lambda x: math.sqrt(max(eval_V(spec, x) - lam, 0.0)), wall, turning)
        assert DEFAULT_TOLS.agmon <= dist <= DEFAULT_TOLS.agmon + 0.5

    def test_march_passes_an_overflowing_potential(self):
        # e^{3000 |x|} is inf over most of the first chunk; the march must
        # place the wall without a RuntimeWarning
        spec = make_potential("exp_growth", rate=-3000.0)
        w, _ = _probe_lambda(spec, 1.0)
        assert -4.0 < truncate_domain(spec, 1.0, 1.0, w) < 0.0

    def test_march_refines_a_bounded_number_of_times(self):
        # V(t) = e^360: any cell past the turning point adds ~1e75 to the
        # distance, so refining it without end ran out of chunks; the wall
        # belongs just past the turning point.  The pair is the one a probe
        # halved to width 2 gave; the box-bound probe puts the turning point
        # on t to the last bit, where no cell lies past it
        spec = make_potential("exp_growth", rate=-90.0)
        w, lam = 2.0, 5.4316767552753334e156
        wall = truncate_domain(spec, -4.0, lam, w)
        turning = -4.0 - math.log(lam / eval_V(spec, -4.0)) / 90.0
        assert 0.0 < turning - wall < 1e-6

    def test_probe_narrows_for_a_steep_potential(self):
        # e^{-1000 x} overflows within 4 of t = 1; the probe narrows to width
        # 1, the widest power of two where V(t - w) is finite, and the solve
        # matches one on an explicit wall at -0.05
        spec = make_potential("exp_growth", rate=-1000.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 1.0), 801)
        walled = solve_ground_state(spec, Domain(-0.05, 1.0), 801)
        assert -0.05 < gs.domain.a_eff < 0.0
        assert gs.lam == pytest.approx(walled.lam, rel=1e-5)
        assert gs.lam == pytest.approx(9.6239, rel=1e-4)

    @pytest.mark.parametrize("params, t", [
        ({"rate": -5000.0}, -4.2), ({"amp": 1e308, "rate": -5000.0}, -1e-3),
        ({"rate": -5000.0}, -0.1419565425786768),
    ], ids=["infinite-at-t", "sixty-halvings", "finite-only-at-t"])
    def test_probe_rejects_a_potential_infinite_left_of_t(self, params, t):
        # V overflows at every probe width.  A halving probe once ran on
        # until t - w rounded to t and the operator divided by h^2 = 0; in
        # the last case V(t) = 1.8e308 is finite, so a collapsed probe grid,
        # every node at t, would pass the finiteness check
        spec = make_potential("exp_growth", **params)
        with pytest.raises(DomainError, match="not finite on any probe left of t"):
            solve_ground_state(spec, Domain(NEG_INF, t), 64)

    @pytest.mark.parametrize("family, params, t", [
        ("quadratic", {"c2": 1.0}, 0.0), ("affine", {"c1": -1.0}, 2.0),
        ("exp_growth", {"rate": -2.0}, 1.0), ("neg_abs", {"slope": 2.0}, 1.5),
    ])
    def test_probe_keeps_width_4_for_order_one_potentials(self, family, params, t):
        assert _probe_lambda(make_potential(family, **params), t)[0] == 4.0

    @pytest.mark.parametrize("s", [0.3, 0.1, 0.03, 0.01, 0.001, 1e2, 1e3])
    def test_scaled_airy_error_matches_the_unscaled_one(self, s):
        # V = -s^3 x on (-inf, 2/s) is V = -x on (-inf, 2) on the length
        # scale 1/s, so at the same N its lambda, s^2 (-a_1 - 2), carries the
        # same relative O(h^2) error.  A probe fixed at width 4 lost its
        # turning point for s < 1: the error grew to -2.2e-3 at s = 0.1 and
        # +2.3e3 at s = 0.001; one that only halved where V overflowed put
        # the wall too far out for s > 1: -4.1e-4 at s = 1000
        def rel_err(s):
            spec = make_potential("affine", c1=-s**3)
            gs = solve_ground_state(spec, Domain(NEG_INF, 2.0 / s), 801)
            exact = s * s * (-AIRY_ZERO - 2.0)
            return (gs.lam - exact) / exact
        assert rel_err(s) == pytest.approx(rel_err(1.0), rel=0.05)

    @pytest.mark.parametrize("s", [1e2, 1e3])
    def test_scaled_oscillator_error_matches_the_unscaled_one(self, s):
        # V = s^4 x^2 on (-inf, 0) has lambda = 3 s^2 and the same relative
        # error as x^2 at the same N; a probe that kept width 4 for a V
        # finite there gave -8.7e-5 at s = 1000 against -9.4e-6
        def rel_err(s):
            gs = solve_ground_state(make_potential("quadratic", c2=s**4),
                                    Domain(NEG_INF, 0.0), 801)
            return gs.lam / (3.0 * s * s) - 1.0
        assert rel_err(s) == pytest.approx(rel_err(1.0), rel=0.05)

    @pytest.mark.parametrize("family, params, t", [
        ("quadratic", lambda s: {"c2": s**4}, 0.0),
        ("affine", lambda s: {"c1": -s**3}, 2.0),
        ("exp_growth", lambda s: {"amp": s**2, "rate": -s}, 1.0),
        ("neg_abs", lambda s: {"slope": 2.0 * s**3, "amp": s**3}, 1.0),
    ], ids=["x2", "airy", "exp", "neg_abs"])
    def test_half_line_wall_commutes_with_power_of_two_scale(self, family, params, t):
        # W(x) = s^2 V(s x) on (-inf, t/s) is V on (-inf, t) on the length
        # scale 1/s.  For s = 2^j every box-bound rung, probe node and march
        # cell scales exactly, so s a_eff is the same double at every j, and
        # lambda maps to s^2 lambda within the finite-a scale law's bound
        base = solve_ground_state(make_potential(family, **params(1.0)),
                                  Domain(NEG_INF, t), 801)
        for j in range(-10, 11):
            s = 2.0 ** j
            gs = solve_ground_state(make_potential(family, **params(s)),
                                    Domain(NEG_INF, t / s), 801)
            assert s * gs.domain.a_eff == base.domain.a_eff
            bound = 64 * np.finfo(float).eps * 2.0 / gs.grid.h ** 2
            assert abs(gs.lam - s * s * base.lam) <= bound

    def test_wall_costs_one_eigensolve(self, monkeypatch):
        import eigenshift.ground_state as ground_state

        calls = []
        real = ground_state.smallest_eigenpair

        def counting(op, start=None):
            calls.append(op.n)
            return real(op, start)

        monkeypatch.setattr(ground_state, "smallest_eigenpair", counting)
        spec = make_potential("quadratic", c2=1.0)
        truncate_domain(spec, 0.0, 3.0, 4.0)
        assert calls == []
        solve_ground_state(spec, Domain(NEG_INF, 0.0), 301)
        assert calls == [200, 301]   # the probe, then the solve itself

    def test_shallow_tilt_is_resolved(self):
        # V = -1e-3 x: lambda = -a_1 1e-3^(2/3), lambda_dot = -1e-3; an
        # absolute V-margin put the wall at -32768 with h = 16 here
        spec = make_potential("affine", c1=-1e-3)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        assert gs.lam == pytest.approx(2.338107410459767e-2, rel=1e-3)
        assert lambda_dot_flux(gs) == pytest.approx(-1e-3, rel=1e-2)

    def test_far_vertex_is_found(self):
        # V = (x + 50)^2 on (-inf, 0]: the well lies 50 left of t
        spec = make_potential("quadratic", c0=2500.0, c1=100.0, c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        assert gs.lam == pytest.approx(1.0, abs=1e-3)

    def test_doubling_agreement(self):
        # lambda from the chosen wall and from twice the distance agree
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        wall = gs.domain.a_eff
        far = solve_ground_state(spec, Domain(NEG_INF, 0.0, 2 * wall), 4003)
        assert abs(gs.lam - far.lam) < 2e-9

    def test_confinement_failure_raises(self):
        spec = make_potential("neg_quadratic")
        with pytest.raises(ConfinementError):
            solve_ground_state(spec, Domain(NEG_INF, 1.0), 301)

    def test_quadratic_falling_past_1e40_is_not_confined(self):
        # -1e-40 x^2 - x rises for |x| < 5e39, farther out than any sample
        # of V reaches, and then falls to -inf
        spec = make_potential("quadratic", c2=-1e-40, c1=-1.0)
        with pytest.raises(ConfinementError):
            solve_ground_state(spec, Domain(NEG_INF, 0.0), 801)

    def test_faint_tilt_is_confined_and_solved(self):
        # Airy length 1e4: lambda = 1e-8 (-a_1)
        for N in (801, 2001):
            gs = solve_ground_state(make_potential("affine", c1=-1e-12), Domain(NEG_INF, 0.0), N)
            assert gs.lam == pytest.approx(-1e-8 * AIRY_ZERO, rel=1e-4)

    def test_tilt_of_airy_length_1e20_is_solved(self):
        # lambda = 1e-40 (-a_1).  A probe that doubled from width 4 still lay
        # below its turning point after 60 doublings and raised
        # TruncationError; the box bound sizes it near 1e20 at once
        gs = solve_ground_state(make_potential("affine", c1=-1e-60), Domain(NEG_INF, 0.0), 2001)
        assert gs.lam == pytest.approx(-1e-40 * AIRY_ZERO, rel=1e-4)

    def test_steep_exponential_is_resolved_at_t(self):
        # V = e^{-90 x} on (-inf, -4): V(t) = e^360, and V's length scale
        # near t is about 5e-53, so lambda exceeds e^360 by about 4e-51 of
        # it.  A probe halved only to width 2 put the wall 0.01 left of t,
        # and lambda came out 4.5e-4 too large
        gs = solve_ground_state(make_potential("exp_growth", rate=-90.0),
                                Domain(NEG_INF, -4.0), 2001)
        assert gs.lam == pytest.approx(math.exp(360.0), rel=1e-12)


class TestSolverValidation:
    def test_minimum_interior_nodes(self):
        with pytest.raises(DomainError):
            solve_ground_state(free(), Domain(0.0, 1.0), 15)

    def test_second_eigenvalue_strictly_larger(self):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 301)
        eps = 1e-6 * (1 + abs(gs.lam))
        assert gs.op.count_below(gs.lam - eps) == 0
        assert gs.op.count_below(gs.lam + eps) == 1


class TestNestedStart:
    """A cold solve on N >= 4000 nodes starts from the ground state on N // 8."""

    @pytest.fixture()
    def eigensolves(self, monkeypatch):
        import eigenshift.ground_state as ground_state

        calls, real = [], ground_state.smallest_eigenpair

        def recording(op, start=None):
            calls.append((op.n, start is None))
            return real(op, start)

        monkeypatch.setattr(ground_state, "smallest_eigenpair", recording)
        return calls

    def test_oscillator_at_32001_takes_two_factorisations(self, eigensolves, lapack_sizes):
        solve_ground_state(make_potential("quadratic", c2=1.0), Domain(NEG_INF, 0.0), 32001)
        # the probe, then 500 cold, 4000 from 500, 32001 from 4000
        assert eigensolves == [(200, True), (500, True), (4000, False), (32001, False)]
        full = [name for name, n in lapack_sizes if n == 32001]
        assert full == ["dptsv", "dptsv"]   # no certificate pttrf

    @pytest.mark.parametrize("N", [2001, 3999])
    def test_below_4000_nodes_the_solve_is_one_cold_eigensolve(self, N, eigensolves,
                                                                lapack_sizes):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(-5.0, 0.0), N)
        assert eigensolves == [(N, True)]
        solved = list(lapack_sizes)
        lapack_sizes.clear()
        lam = smallest_eigenpair(_operator_on(spec, Grid.build(-5.0, 0.0, N)))[0]
        assert solved == lapack_sizes
        assert gs.lam == lam

    @pytest.mark.parametrize("N", [4001, 8001, 32001])
    @pytest.mark.parametrize("family, params, t, isolated", [
        ("quadratic", {"c2": 1.0}, 0.0, True),
        ("affine", {"c1": -1.0}, 2.0, True),
        ("abs_shift", {}, 1.0, True),
        ("neg_abs", {"slope": 2.0, "amp": 1.0}, 1.0, True),
        # the wall lies 3e-15 left of t, where V = e^360 changes by 3e-13 of
        # itself: the whole spectrum lies within eps_gap of lambda
        ("exp_growth", {"rate": -90.0}, -4.0, False),
    ], ids=["x2", "airy", "abs", "neg_abs", "exp_90"])
    def test_nested_pair_is_bracketed_by_sturm_counts(self, family, params, t, isolated, N):
        gs = solve_ground_state(make_potential(family, **params), Domain(NEG_INF, t), N)
        vec = gs.u[1:-1] * math.sqrt(gs.grid.h)
        local = blas.dnrm2(row_sums(gs.op) * vec)   # no overflow near e^360
        eps_gap = max(1e-10 * (1.0 + abs(gs.lam)), 256 * np.finfo(float).eps * local)
        assert gs.op.count_below(gs.lam - eps_gap) == 0
        assert gs.op.count_below(gs.lam + eps_gap) == (1 if isolated else N)


class TestTabulatedPotentialSolve:
    def test_table_reproduces_kinked_family_exactly(self):
        # |x - 0.3| is itself piecewise linear, so a three-point table is not
        # an approximation: both routes must give the same operator
        from eigenshift.potentials import make_tabulated
        from eigenshift.sensitivity import lambda_dot_flux, lambda_dot_integral

        kinked = make_potential("abs_shift", shift=0.3)
        table = make_tabulated([0.0, 0.3, 1.0], [0.3, 0.0, 0.7])
        gs_k = solve_ground_state(kinked, Domain(0.0, 1.0), 1001)
        gs_t = solve_ground_state(table, Domain(0.0, 1.0), 1001)
        assert gs_t.lam == pytest.approx(gs_k.lam, rel=1e-12)
        np.testing.assert_allclose(gs_t.u, gs_k.u, atol=1e-10)
        assert lambda_dot_integral(gs_t, table) == pytest.approx(
            lambda_dot_integral(gs_k, kinked), rel=1e-10)
        assert abs(lambda_dot_flux(gs_t) - lambda_dot_integral(gs_t, table)) \
            <= 1e-5 * abs(lambda_dot_flux(gs_t))


class TestExport:
    def test_csv_and_json(self, tmp_path):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 64)
        csv_path = tmp_path / "gs.csv"
        json_path = tmp_path / "gs.json"
        _write_columns(RunConfig(mode="solve", out_dir=tmp_path), _row_blocks(gs.grid.x, gs.u),
                       "gs.csv", "x,u")
        write_json(json_path, ground_state_metadata(gs))

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 1 + 66
        xs = np.array([float(line.split(",")[0]) for line in lines[1:]])
        us = np.array([float(line.split(",")[1]) for line in lines[1:]])
        np.testing.assert_allclose(xs, gs.grid.x, rtol=1e-16)
        np.testing.assert_allclose(us, gs.u, rtol=1e-16)

        meta = json.loads(json_path.read_text())
        assert set(meta) == {"lambda", "flux_a", "flux_t", "residual", "N", "a_eff", "t"}
        assert meta["lambda"] == gs.lam
        assert meta["N"] == 64

    def test_metadata_round_trip(self):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 64)
        meta = ground_state_metadata(gs)
        assert meta["t"] == 1.0 and meta["a_eff"] == 0.0
