import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ai_zeros

from eigenshift.errors import ConditioningError, RangeError, StructureError
from eigenshift.ground_state import Domain, Grid, solve_ground_state
from eigenshift.potentials import eval_V, eval_Vprime, make_potential, make_tabulated, vprime_kinks
from eigenshift.sensitivity import (
    compute_sensitivity,
    fd_derivatives,
    find_nodal_point,
    integrate_vprime_weighted,
    lambda_ddot,
    lambda_dot_flux,
    lambda_dot_integral,
    orthogonality_residual,
    solve_u_dot,
    u_dot_flux_left,
)
from eigenshift.tridiag import row_sums

NEG_INF = float("-inf")
PI = math.pi
PI2 = PI * PI
AIRY_ZERO = float(ai_zeros(1)[0][0])


def closed_form_u_dot(x):
    """d/dt of sqrt(2/t) sin(pi x / t) at t = 1."""
    return -(math.sqrt(2) / 2) * np.sin(PI * x) - math.sqrt(2) * PI * x * np.cos(PI * x)


@pytest.fixture(scope="module")
def free_bundle():
    spec = make_potential("affine")
    gs = solve_ground_state(spec, Domain(0.0, 1.0), 2001)
    return spec, gs, compute_sensitivity(gs, spec)


@pytest.fixture(scope="module")
def airy_bundle():
    spec = make_potential("affine", c1=-1.0)
    gs = solve_ground_state(spec, Domain(NEG_INF, 2.0), 8001)
    return spec, gs, compute_sensitivity(gs, spec)


class TestLambdaDotFlux:
    def test_free_t1(self, free_bundle):
        _, _, sens = free_bundle
        # d/dt (pi^2 / t^2) at t = 1
        assert sens.lambda_dot_flux == pytest.approx(-2 * PI2, rel=1e-4)

    def test_free_t2(self):
        spec = make_potential("affine")
        gs = solve_ground_state(spec, Domain(0.0, 2.0), 2001)
        assert lambda_dot_flux(gs) == pytest.approx(-PI2 / 4, rel=1e-4)

    def test_airy_slope_is_minus_one(self, airy_bundle):
        _, _, sens = airy_bundle
        assert sens.lambda_dot_flux == pytest.approx(-1.0, abs=5e-5)

    def test_always_negative(self, free_bundle):
        _, gs, _ = free_bundle
        assert lambda_dot_flux(gs) < 0


class TestLambdaDotIntegral:
    def test_free_reduces_to_left_flux(self, free_bundle):
        spec, gs, _ = free_bundle
        # V' = 0, so the integral route is exactly -u_x(0)^2
        assert lambda_dot_integral(gs, spec) == pytest.approx(-gs.flux_a**2, rel=1e-14)

    def test_constant_slope_gives_normalization(self, airy_bundle):
        spec, gs, _ = airy_bundle
        # V' = -1 and no boundary term: the integral is -||u||^2 = -1
        val = lambda_dot_integral(gs, spec)
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_agrees_with_flux_route(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 8001)
        flux = lambda_dot_flux(gs)
        integ = lambda_dot_integral(gs, spec)
        assert abs(flux - integ) <= 1e-5 * (1 + abs(flux))


class TestKinkAwareQuadrature:
    def test_smooth_matches_plain_trapezoid(self):
        spec = make_potential("quadratic", c2=1.0)
        grid = Grid.build(-1.0, 1.0, 199)
        w = np.cos(grid.x) ** 2
        plain = np.trapezoid(2.0 * grid.x * w, grid.x)
        assert integrate_vprime_weighted(spec, grid, w) == pytest.approx(plain, rel=1e-13)

    def test_kink_on_node(self):
        # integral of sign(x) * 1 over [-1, 1] must vanish exactly
        spec = make_potential("abs_shift")
        grid = Grid.build(-1.0, 1.0, 199)   # 0 is a node
        w = np.ones_like(grid.x)
        assert integrate_vprime_weighted(spec, grid, w) == pytest.approx(0.0, abs=1e-14)

    def test_kink_between_nodes(self):
        # integral of d|x-s|/dx over [0, 1] with s strictly inside a cell:
        # exact value is (1 - s) - s = 1 - 2s for weight 1
        s = 0.30001
        spec = make_potential("abs_shift", shift=s)
        grid = Grid.build(0.0, 1.0, 99)
        w = np.ones_like(grid.x)
        got = integrate_vprime_weighted(spec, grid, w)
        assert got == pytest.approx(1 - 2 * s, abs=1e-12)

    @pytest.mark.parametrize("N", [64, 200, 2001])
    def test_knots_closer_than_a_cell(self, N):
        # h >= 0.00175 here, so some cell holds three of the knots or more
        spec = fine_knots_table()
        gs = solve_ground_state(spec, Domain(-2.0, 1.5), N)
        w = gs.u * gs.u
        got = integrate_vprime_weighted(spec, gs.grid, w)
        assert got == pytest.approx(refined_trapezoid(spec, gs.grid, w)[0], rel=1e-12)

    def test_knots_closer_than_a_cell_keep_the_routes_together(self):
        spec = fine_knots_table()
        sens = compute_sensitivity(solve_ground_state(spec, Domain(-2.0, 1.5), 2001), spec)
        flux = sens.lambda_dot_flux
        assert abs(flux - sens.lambda_dot_integral) <= 1e-5 * (1 + abs(flux))


# nine knots 0.0005 apart: some share a cell wherever h > 0.0005
FINE_KNOTS = np.r_[-2.0, np.linspace(0.2, 0.204, 9), 2.0]


def fine_knots_table():
    return make_tabulated(FINE_KNOTS, np.abs(FINE_KNOTS) + 5.0 * np.maximum(FINE_KNOTS - 0.2, 0.0))


def refined_trapezoid(spec, grid, w, shift=0.0):
    """The trapezoid rule for (V' - shift) w on the grid refined by every
    kink inside it, V' one-sided within each piece and w linear between
    nodes; returns the sum and the sum of its pieces' magnitudes."""
    x, kinks = grid.x, vprime_kinks(spec)
    p = np.union1d(x, kinks[(x[0] < kinks) & (kinks < x[-1])])
    wp = np.interp(p, x, w)
    pieces = 0.5 * np.diff(p) * ((eval_Vprime(spec, p[:-1], "right") - shift) * wp[:-1]
                                 + (eval_Vprime(spec, p[1:], "left") - shift) * wp[1:])
    return float(np.sum(pieces)), float(np.sum(np.abs(pieces)))


@seed(38)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kink_quadrature_is_the_refined_trapezoid(data):
    # tables of 2 to 40 knots: some packed into one cell, some loose, some on
    # nodes, two beyond the grid's ends
    N = data.draw(st.integers(17, 400), label="N")
    grid = Grid.build(0.0, 1.0, N)
    packed = np.array(data.draw(st.lists(st.integers(1, 999), max_size=20))) / 1000
    cell = data.draw(st.integers(0, N), label="cell")
    loose = np.array(data.draw(st.lists(st.integers(1, 10 ** 6 - 1), max_size=15))) / 10 ** 6
    nodes = data.draw(st.lists(st.integers(0, N + 1), max_size=3))
    xs = np.unique(np.r_[-0.5, grid.x[cell] + packed * grid.h, loose, grid.x[nodes], 1.5])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="rng"))
    spec = make_tabulated(xs, rng.uniform(-10.0, 10.0, len(xs)))
    w, shift = rng.uniform(-1.0, 1.0, N + 2), rng.uniform(-5.0, 5.0)
    want, scale = refined_trapezoid(spec, grid, w, shift)
    # the rule sums the grid's cells before it replaces the split ones, so
    # its rounding also scales with a steep piece's slope across its cell
    scale += grid.h * float(np.sum(np.abs((eval_Vprime(spec, grid.x, "right") - shift) * w)))
    assert abs(integrate_vprime_weighted(spec, grid, w, shift) - want) <= 1e-12 * scale


class TestUDot:
    def test_endpoint_datum(self, free_bundle):
        _, gs, sens = free_bundle
        assert sens.u_dot[-1] == -gs.flux_t
        assert sens.u_dot[0] == 0.0

    def test_orthogonality_enforced(self, free_bundle):
        _, gs, sens = free_bundle
        assert sens.orth_residual <= 1e-12

    def test_matches_closed_form_pointwise(self, free_bundle):
        _, gs, sens = free_bundle
        exact = closed_form_u_dot(gs.grid.x)
        err = np.max(np.abs(sens.u_dot - exact))
        # second-order accurate: measured about 15 h^2
        assert err <= 60 * gs.grid.h**2

    def test_convergence_is_second_order(self):
        spec = make_potential("affine")
        errs = []
        for N in (250, 500, 1000):
            gs = solve_ground_state(spec, Domain(0.0, 1.0), N)
            ud = solve_u_dot(gs, lambda_dot_flux(gs))
            errs.append(np.max(np.abs(ud - closed_form_u_dot(gs.grid.x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


class TestNodalPoint:
    def test_free_matches_root_of_closed_form(self, free_bundle):
        _, _, sens = free_bundle
        root = brentq(closed_form_u_dot, 0.51, 0.99, xtol=1e-14)
        assert sens.t0 == pytest.approx(root, abs=1e-6)

    def test_sign_pattern_negative_then_positive(self, free_bundle):
        _, gs, sens = free_bundle
        interior = sens.u_dot[1:-1]
        signs = np.sign(interior[np.flatnonzero(interior)])
        assert signs[0] == -1 and signs[-1] == 1

    def test_interior(self, free_bundle):
        _, gs, sens = free_bundle
        assert gs.domain.a_eff < sens.t0 < gs.domain.t

    def test_lobe_far_below_the_maximum_keeps_its_sign(self):
        # V = e^{3x} on (0, 3) has u_x(t) = -8.4e-24: the positive lobe of
        # u_dot near t lies under 1e-9 max|u_dot|, so a dead band of that
        # size saw no sign change and raised StructureError
        spec = make_potential("exp_growth", amp=1.0, rate=3.0)
        gs = solve_ground_state(spec, Domain(0.0, 3.0), 801)
        sens = compute_sensitivity(gs, spec)
        assert gs.domain.a_eff < sens.t0 < gs.t

    def test_rejects_no_sign_change(self):
        grid = Grid.build(0.0, 1.0, 50)
        with pytest.raises(StructureError):
            find_nodal_point(np.linspace(0.1, 1.0, 52), grid)

    def test_rejects_multiple_sign_changes(self):
        grid = Grid.build(0.0, 1.0, 200)
        wiggle = np.sin(3 * PI * grid.x)
        with pytest.raises(StructureError):
            find_nodal_point(wiggle, grid)


class TestLambdaDdot:
    def test_free_is_six_pi_squared(self, free_bundle):
        spec, gs, sens = free_bundle
        # V' = 0 kills the integral; only the boundary term survives and the
        # closed form d^2/dt^2 (pi^2/t^2) at t = 1 is 6 pi^2
        assert sens.lambda_ddot == pytest.approx(6 * PI2, rel=1e-3)

    def test_airy_is_exactly_zero(self, airy_bundle):
        _, _, sens = airy_bundle
        assert sens.lambda_ddot == 0.0

    def test_convex_well_positive(self):
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        sens = compute_sensitivity(gs, spec)
        assert sens.lambda_ddot > 0.1

    def test_concave_tilt_negative(self):
        spec = make_potential("neg_abs", slope=2.0, amp=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 1.0), 2001)
        sens = compute_sensitivity(gs, spec)
        assert sens.lambda_ddot < -0.1

    @pytest.mark.parametrize("N", [201, 801])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_free_matches_closed_form_at_its_h2_tolerance(self, t, N):
        # d^2/dt^2 (pi^2/t^2) = 6 pi^2 / t^4 on (0, t) comes wholly from the
        # finite-end term -2 u_x(a) u_dot_x(a); the one-sided stencils leave a
        # relative error of (4 pi^2 / 3)(h/t)^2, here held to 16 (h/t)^2
        spec = make_potential("affine")
        gs = solve_ground_state(spec, Domain(0.0, t), N)
        exact = 6.0 * PI2 / t**4
        err = compute_sensitivity(gs, spec).lambda_ddot - exact
        assert abs(err) <= 16.0 * (gs.grid.h / t) ** 2 * exact

    def test_boundary_term_sign_at_finite_a(self, free_bundle):
        spec, gs, sens = free_bundle
        udxa = u_dot_flux_left(sens.u_dot, gs.grid)
        assert udxa <= 1e-8    # nonpositive, so -2 flux_a * udxa >= 0
        assert udxa == pytest.approx(-1.5 * math.sqrt(2) * PI, rel=1e-3)


class TestFiniteDifferences:
    def test_free_first_and_second(self):
        spec = make_potential("affine")
        centre = solve_ground_state(spec, Domain(0.0, 1.0), 2001)
        ld, ldd, _ = fd_derivatives(spec, centre, solve_u_dot(centre, lambda_dot_flux(centre)))
        assert ld == pytest.approx(-2 * PI2, rel=1e-4)
        assert ldd == pytest.approx(6 * PI2, rel=1e-3)

    def test_airy_second_derivative_vanishes(self):
        spec = make_potential("affine", c1=-1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 2.0), 4001)
        _, ldd, _ = fd_derivatives(spec, gs, solve_u_dot(gs, lambda_dot_flux(gs)))
        assert abs(ldd) <= 1e-6

    def test_step_outgrows_the_rounding_of_a_large_lambda(self):
        # V = 1e12 on (0, 1): lambda is rounded at about eps 1e12, which the
        # old step of 1e-3 (t - a) turned into lambda_ddot_fd = 0.0; the
        # derived step is 75 cells and reads 6 pi^2
        spec = make_potential("affine", c0=1e12)
        gs = solve_ground_state(spec, Domain(0.0, 1.0), 2001)
        _, ldd, step = fd_derivatives(spec, gs, compute_sensitivity(gs, spec).u_dot)
        assert step > 10 * gs.grid.h
        assert ldd == pytest.approx(6 * PI2, rel=1e-3)

    def test_rounding_that_swamps_the_curvature_raises(self):
        # V = 1e15: the step that clears lambda's rounding is longer than the
        # domain, where the old step printed lambda_ddot_fd = 375750.375
        spec = make_potential("affine", c0=1e15)
        gs = solve_ground_state(spec, Domain(0.0, 1.0), 2001)
        with pytest.raises(ConditioningError, match="rounding swamps its curvature"):
            compute_sensitivity(gs, spec)

    def test_steep_wall_scale_does_not_overflow(self):
        # V = e^{-90 x} on (-inf, -4): the rows of |T| 1 reach about 1e165,
        # whose squares overflow a plain 2-norm; the scaled norm keeps the
        # failure typed
        spec = make_potential("exp_growth", rate=-90.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, -4.0), 801)
        with pytest.raises(ConditioningError, match="the FD step inf leaves"):
            compute_sensitivity(gs, spec)

    @pytest.mark.parametrize("bundle", ["free_bundle", "airy_bundle"])
    def test_bundle_fd_equals_block_solves(self, bundle, request, monkeypatch):
        # lambda(t +- m h) are the lowest eigenvalues of one operator on N + m
        # nodes, gs.op bit for bit with m rows at t, t + h, ... below it, and
        # of its leading N - m rows; the + side starts from u + s u_dot and a
        # linear tail, the - side from the + side's vector less 2 s u_dot
        import eigenshift.sensitivity as sensitivity

        spec, gs, sens = request.getfixturevalue(bundle)
        calls, real = [], sensitivity.smallest_eigenpair

        def recording(op, start=None):
            calls.append((op, np.array(start)))   # a copy: the oracle reuses its buffers
            return real(op, start)

        monkeypatch.setattr(sensitivity, "smallest_eigenpair", recording)
        ld_fd, ldd_fd, fd_step = fd_derivatives(spec, gs, sens.u_dot)
        N, h, t, u, u_dot = gs.grid.n_interior, gs.grid.h, gs.t, gs.u[1:-1], sens.u_dot[1:-1]
        m = round(fd_step / h)
        step = m * h
        assert m >= 1 and fd_step == step
        (whole, hi_start), (block, lo_start) = calls
        assert whole.n == N + m and block.n == N - m
        assert np.array_equal(whole.d[:N], gs.op.d) and whole.c == gs.op.c
        x = t + h * np.arange(m)
        assert x[0] == t
        assert np.array_equal(whole.d[N:], eval_V(spec, x) + 2.0 / (h * h))
        assert np.array_equal(block.d, whole.d[:N - m]) and block.c == whole.c
        start = np.concatenate((u + step * u_dot, -gs.flux_t * (t + step - x)))
        assert np.array_equal(hi_start, start)
        hi, vec, _ = real(whole, start)
        sign = -1.0 if -vec.min() > vec.max() else 1.0
        start = vec[:N - m] / (sign * math.sqrt(h)) - (2.0 * step) * u_dot[:N - m]
        assert np.array_equal(lo_start, start)
        lo = real(block, start)[0]
        assert ld_fd == (hi - lo) / (2.0 * step)
        assert ldd_fd == (hi - 2.0 * gs.lam + lo) / (step * step)

    @pytest.mark.parametrize("family, params, a, t, N", [
        ("affine", {}, 0.0, 1.0, 2001),
        ("affine", {"c1": -1.0}, NEG_INF, 2.0, 2001),
        ("quadratic", {"c2": 1.0}, NEG_INF, 0.0, 2001),
        ("abs_shift", {}, NEG_INF, 1.0, 801),
        ("affine", {"c0": 1e12}, 0.0, 1.0, 2001),
    ])
    def test_side_energies_do_not_depend_on_the_start(self, family, params, a, t, N,
                                                        monkeypatch):
        # a start only steers the eigensolve: from the centre's vector
        # truncated or zero-padded, from u -+ s u_dot, and from the starts a
        # wrong u_dot gives, each side energy lies within the index
        # certificate's eps_gap of the others, so a wrong u_dot can slow the
        # oracle but cannot move its answer
        import eigenshift.sensitivity as sensitivity

        spec = make_potential(family, **params)
        gs = solve_ground_state(spec, Domain(a, t), N)
        u_dot = solve_u_dot(gs, lambda_dot_flux(gs))
        calls, real = [], sensitivity.smallest_eigenpair

        def recording(op, start=None):
            out = real(op, start)
            calls.append((op, out))
            return out

        monkeypatch.setattr(sensitivity, "smallest_eigenpair", recording)
        wrong = np.random.default_rng(7).normal(size=N + 2) * np.max(np.abs(u_dot))
        for field in (u_dot, np.zeros(N + 2), -u_dot, wrong):
            fd_derivatives(spec, gs, field)
        assert len(calls) == 8
        u = gs.u[1:-1]
        for side, old_start in ((0, np.concatenate((u, np.zeros(calls[0][0].n - N)))),
                                (1, u[:calls[1][0].n])):
            op, (lam, vec, _) = calls[side]
            energies = [out[0] for _, out in calls[side::2]] + [real(op, old_start)[0]]
            local = np.linalg.norm(row_sums(op) * vec)
            eps_gap = max(1e-10 * (1.0 + abs(lam)), 256.0 * np.finfo(float).eps * local)
            assert max(energies) - min(energies) <= eps_gap, side

    def test_oscillator_at_32001_factors_at_most_five_times_beside_the_centre(self,
                                                                           lapack_sizes):
        # the side eigensolves took 3 ptsv and a certificate pttrf each from
        # the truncated and zero-padded centre vector: 8 factorisations
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 32001)
        u_dot = compute_sensitivity(gs, spec).u_dot
        lapack_sizes.clear()
        m = round(fd_derivatives(spec, gs, u_dot)[2] / gs.grid.h)
        assert m >= 1
        sides = [name for name, n in lapack_sizes if n in (32001 - m, 32001 + m)]
        assert set(sides) <= {"dptsv", "dpttrf"}
        assert len(sides) <= 5

    def test_a_table_ending_at_t_serves_a_one_cell_step_at_every_N(self):
        # the first new node is t itself: a_eff + (N + 1) h rounded past the
        # table's last knot at 6 of these N, and the oracle raised RangeError
        spec = make_tabulated([0.0, 0.37, 1.3], [1.0, 0.0, 1.0])
        for N in range(100, 1300, 7):
            gs = solve_ground_state(spec, Domain(0.0, 1.3), N)
            step = fd_derivatives(spec, gs, compute_sensitivity(gs, spec).u_dot)[2]
            assert round(step / gs.grid.h) == 1, N

    def test_a_step_reaching_past_the_table_names_the_oracle(self):
        # compute_sensitivity needs no V past t; the oracle does
        spec = make_tabulated([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
        gs = solve_ground_state(spec, Domain(0.0, 1.0), 4001)
        sens = compute_sensitivity(gs, spec)
        with pytest.raises(RangeError, match=r"^the FD oracle's step 0\.0009995 at t = 1\.0 "
                                             r"needs V beyond the table: x outside"):
            fd_derivatives(spec, gs, sens.u_dot)

    @pytest.mark.parametrize("family, params", [("abs_shift", {}),
                                                ("neg_abs", {"slope": 2.0, "amp": 1.0})])
    def test_kinked_fd_curvature_is_wall_independent(self, family, params):
        # the three energies come from leading blocks of one matrix, so the
        # kink sits on identical nodes at t - m h, t and t + m h; a fixed-N
        # step moved it and missed by 4e-2 to 3e-1 at every one of these walls
        spec = make_potential(family, **params)
        for wall in np.linspace(-13.0, -12.0, 11):
            gs = solve_ground_state(spec, Domain(NEG_INF, 1.0, float(wall)), 801)
            sens = compute_sensitivity(gs, spec)
            ldd_fd = fd_derivatives(spec, gs, sens.u_dot)[1]
            assert abs(sens.lambda_ddot - ldd_fd) <= 1e-2 * abs(ldd_fd), wall

    def test_bundle_runs_two_block_eigensolves(self, monkeypatch):
        import eigenshift.ground_state as ground_state
        import eigenshift.sensitivity as sensitivity

        spec = make_potential("affine")
        gs = solve_ground_state(spec, Domain(0.0, 1.0), 301)
        rows, real = [], sensitivity.smallest_eigenpair

        def counting(op, start=None):
            rows.append(op.n)
            return real(op, start)

        def no_ground_state(**fields):
            raise AssertionError("the FD oracle built a ground state")

        monkeypatch.setattr(sensitivity, "smallest_eigenpair", counting)
        # solve_ground_state, however imported, builds its result from this name
        monkeypatch.setattr(ground_state, "GroundState", no_ground_state)
        sens = compute_sensitivity(gs, spec)
        assert rows == []
        m = round(fd_derivatives(spec, gs, sens.u_dot)[2] / gs.grid.h)
        assert rows == [301 + m, 301 - m]

    def test_oracle_agreement_bundle(self, free_bundle):
        spec, gs, sens = free_bundle
        ld_fd, ldd_fd, fd_step = fd_derivatives(spec, gs, sens.u_dot)
        assert abs(sens.lambda_dot_flux - ld_fd) <= max(1e-4 * abs(ld_fd), 10 * fd_step**2)
        assert abs(sens.lambda_ddot - ldd_fd) <= \
            max(1e-2 * abs(ldd_fd), 1e-4 * (1 + abs(sens.lam)))

    def test_bundle_factors_only_its_own_grid(self, lapack_sizes):
        # the bordered solve's two dpttrf and one dpttrs on N nodes are the
        # only LAPACK calls: no side eigensolve on N + m or N - m nodes
        spec = make_potential("quadratic", c2=1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 0.0), 2001)
        lapack_sizes.clear()
        compute_sensitivity(gs, spec)
        assert lapack_sizes == [("dpttrf", 2001), ("dpttrf", 2001), ("dpttrs", 2001)]


class TestSensitivityBundle:
    def test_metadata_keys(self, free_bundle):
        from eigenshift.sensitivity import sensitivity_metadata
        _, _, sens = free_bundle
        assert set(sensitivity_metadata(sens)) == {
            "t", "lambda", "lambda_dot_flux", "lambda_dot_integral",
            "lambda_ddot", "t0", "orth_residual",
        }

    def test_orthogonality_helper_matches(self, free_bundle):
        _, gs, sens = free_bundle
        assert orthogonality_residual(gs, sens.u_dot) == sens.orth_residual


@st.composite
def shifted_pairs(draw):
    """(V, V + c, c, a, t): a finite-a quadratic, or |x - s| beside the table
    of |x - s| + c, which reproduces it exactly; |c| <= 1e3."""
    a = draw(st.floats(-2.0, 1.0))
    t = a + draw(st.floats(0.5, 3.0))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        c1, c2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 2.0))
        return (make_potential("quadratic", c1=c1, c2=c2),
                make_potential("quadratic", c0=c, c1=c1, c2=c2), c, a, t)
    s = draw(st.floats(a - 1.0, t + 1.0))
    # the table reaches past t, where the FD oracle's solve at t + m h looks
    xs = sorted({a, t + 1.0} | ({s} if a < s < t + 1.0 else set()))
    return (make_potential("abs_shift", shift=s),
            make_tabulated(xs, [abs(x - s) + c for x in xs]), c, a, t)


@seed(1502)
@given(pair=shifted_pairs())
@settings(max_examples=10, deadline=None)
def test_constant_shift_moves_lambda_and_keeps_its_derivatives(pair):
    # V + c has the eigenvectors of V and every eigenvalue moved by c: the
    # solve's margins and Gershgorin bound scale with |d| ~ 2/h^2 + |c|, so
    # they must not move the pair by more than rounding of that size
    base, shifted, c, a, t = pair
    gs0 = solve_ground_state(base, Domain(a, t), 401)
    gs1 = solve_ground_state(shifted, Domain(a, t), 401)
    scale = 2.0 / gs0.grid.h ** 2 + abs(c)
    assert abs(gs1.lam - (gs0.lam + c)) <= 64 * np.finfo(float).eps * scale
    s0, s1 = compute_sensitivity(gs0, base), compute_sensitivity(gs1, shifted)
    assert s1.lambda_dot_flux == pytest.approx(s0.lambda_dot_flux, rel=1e-10)
    assert s1.lambda_dot_integral == pytest.approx(s0.lambda_dot_integral, rel=1e-10)
    assert abs(s1.lambda_ddot - s0.lambda_ddot) <= 1e-9 * (1.0 + abs(s0.lambda_ddot))


@st.composite
def scaled_pairs(draw):
    """(V, W, s, a, t) with W(x) = s^2 V(s x), s in [1e-2, 1e2], a finite:
    quadratic, exp_growth, neg_abs, affine or a piecewise-linear table, whose
    nodes scale by 1/s and values by s^2, so W reproduces it exactly."""
    a = draw(st.floats(-2.0, 1.0))
    t = a + draw(st.floats(0.5, 3.0))
    s = 10.0 ** draw(st.floats(-2.0, 2.0))
    coef = st.floats(-2.0, 2.0)
    family = draw(st.sampled_from(["quadratic", "exp_growth", "neg_abs", "affine",
                                   "tabulated"]))
    if family == "quadratic":
        c0, c1, c2 = draw(coef), draw(coef), draw(st.floats(0.0, 2.0))
        return (make_potential("quadratic", c0=c0, c1=c1, c2=c2),
                make_potential("quadratic", c0=s**2 * c0, c1=s**3 * c1, c2=s**4 * c2),
                s, a, t)
    if family == "exp_growth":
        amp, rate = draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0))
        return (make_potential("exp_growth", amp=amp, rate=rate),
                make_potential("exp_growth", amp=s**2 * amp, rate=s * rate), s, a, t)
    if family == "neg_abs":
        slope, amp = draw(coef), draw(st.floats(0.0, 2.0))
        shift = draw(st.floats(a - 1.0, t + 1.0))
        return (make_potential("neg_abs", slope=slope, amp=amp, shift=shift),
                make_potential("neg_abs", slope=s**3 * slope, amp=s**3 * amp,
                               shift=shift / s), s, a, t)
    if family == "affine":
        c0, c1 = draw(coef), draw(coef)
        return (make_potential("affine", c0=c0, c1=c1),
                make_potential("affine", c0=s**2 * c0, c1=s**3 * c1), s, a, t)
    # the table reaches past t, where the FD oracle's solve at t + m h looks
    xs = np.linspace(a, t + 1.0, draw(st.integers(2, 5)))
    vs = np.array([draw(st.floats(-3.0, 3.0)) for _ in xs])
    return make_tabulated(xs, vs), make_tabulated(xs / s, s**2 * vs), s, a, t


@seed(1502)
@given(pair=scaled_pairs())
@settings(max_examples=30, deadline=None)
def test_scale_law_maps_lambda_and_its_derivatives(pair):
    # u(x) solves -u'' + V u = lambda u on (a, t) exactly when u(s x) solves
    # -u'' + W u = s^2 lambda u on (a/s, t/s), W(x) = s^2 V(s x); at the same N
    # the two operators differ by the factor s^2 and rounding, so lambda maps
    # to s^2 lambda, lambda_dot to s^3 lambda_dot and lambda_ddot to s^4
    # lambda_ddot.  a = -inf is left out here: the probe's width is a power
    # of two, so only s = 2^j maps the wall exactly, and the drawn s are
    # arbitrary.  test_ground_state's
    # test_half_line_wall_commutes_with_power_of_two_scale holds the
    # half-line wall and lambda to the same bound for s = 2^j, j in [-10, 10]
    base, scaled, s, a, t = pair
    gs0 = solve_ground_state(base, Domain(a, t), 801)
    gs1 = solve_ground_state(scaled, Domain(a / s, t / s), 801)
    assert abs(gs1.lam - s**2 * gs0.lam) <= 64 * np.finfo(float).eps * 2.0 / gs1.grid.h ** 2
    s0, s1 = compute_sensitivity(gs0, base), compute_sensitivity(gs1, scaled)
    assert s1.lambda_dot_flux == pytest.approx(s**3 * s0.lambda_dot_flux, rel=1e-10)
    # the integral route is int V' u^2 less u_x(a)^2, two terms of up to 1e4
    # times their difference here: it is held to 1e-10 of their size
    terms = abs(s0.lambda_dot_integral) + gs0.flux_a ** 2
    assert abs(s1.lambda_dot_integral - s**3 * s0.lambda_dot_integral) <= 1e-10 * s**3 * terms
    ldd = s**4 * s0.lambda_ddot
    assert abs(s1.lambda_ddot - ldd) <= 1e-9 * (1.0 + abs(ldd))
    # the FD step is scale-free in cells
    step0, step1 = (fd_derivatives(v, gs, sens.u_dot)[2]
                    for v, gs, sens in ((base, gs0, s0), (scaled, gs1, s1)))
    assert step1 == pytest.approx(step0 / s, rel=1e-12)
