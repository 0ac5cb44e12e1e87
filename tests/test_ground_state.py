import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ai_zeros, airy

from eigenshift.cli import _format_rows, write_columns, write_json
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


class TestDiscretize:
    def test_two_interior_nodes_free(self):
        op = _operator_on(free(), Grid.build(0.0, 1.0, 2))
        np.testing.assert_allclose(op.d, [18.0, 18.0])
        np.testing.assert_allclose(op.e, [-9.0])

    def test_constant_potential_shifts_diagonal(self):
        spec = make_potential("affine", c0=7.0)
        # the operator each ground state carries is the one it was solved from
        op0 = solve_ground_state(free(), Domain(0.0, 2.0), 31).op
        op7 = solve_ground_state(spec, Domain(0.0, 2.0), 31).op
        np.testing.assert_allclose(op7.d - op0.d, 7.0)
        np.testing.assert_allclose(op7.e, op0.e)

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
        # belongs just past the turning point
        spec = make_potential("exp_growth", rate=-90.0)
        w, lam = _probe_lambda(spec, -4.0)
        wall = truncate_domain(spec, -4.0, lam, w)
        turning = -4.0 - math.log(lam / eval_V(spec, -4.0)) / 90.0
        assert 0.0 < turning - wall < 1e-6

    def test_probe_narrows_for_a_steep_potential(self):
        # e^{-1000 x} overflows within 4 of t = 1; the probe halves its width
        # to 1 and the solve matches one on an explicit wall at -0.05
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
        # V overflows at every probe node.  The halving once ran on until
        # t - w rounded to t and the operator divided by h^2 = 0; in the
        # last case V(t) = 1.8e308 is finite, so the collapsed probe grid,
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

    def test_wall_costs_one_eigensolve(self, monkeypatch):
        import eigenshift.ground_state as ground_state

        calls = []
        real = ground_state.smallest_eigenpair

        def counting(op, start=None):
            calls.append(op.n)
            return real(op, start=start)

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


class TestSolverValidation:
    def test_minimum_interior_nodes(self):
        with pytest.raises(DomainError):
            solve_ground_state(free(), Domain(0.0, 1.0), 15)

    def test_second_eigenvalue_strictly_larger(self):
        gs = solve_ground_state(free(), Domain(0.0, 1.0), 301)
        eps = 1e-6 * (1 + abs(gs.lam))
        assert gs.op.count_below(gs.lam - eps) == 0
        assert gs.op.count_below(gs.lam + eps) == 1


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
        write_columns(csv_path, _format_rows(gs.grid.x, gs.u), header="x,u")
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
