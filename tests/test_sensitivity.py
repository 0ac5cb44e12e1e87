import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ai_zeros

from eigenshift.errors import DomainError, StructureError
from eigenshift.ground_state import Domain, Grid, solve_ground_state
from eigenshift.potentials import make_potential, make_tabulated
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
        band = 1e-9 * np.max(np.abs(sens.u_dot))
        idx = np.nonzero(np.abs(interior) > band)[0]
        signs = np.sign(interior[idx])
        assert signs[0] == -1 and signs[-1] == 1

    def test_interior(self, free_bundle):
        _, gs, sens = free_bundle
        assert gs.domain.a_eff < sens.t0 < gs.domain.t

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
        ld, ldd = fd_derivatives(spec, centre, 1e-3)
        assert ld == pytest.approx(-2 * PI2, rel=1e-4)
        assert ldd == pytest.approx(6 * PI2, rel=1e-3)

    def test_airy_second_derivative_vanishes(self):
        spec = make_potential("affine", c1=-1.0)
        gs = solve_ground_state(spec, Domain(NEG_INF, 2.0), 4001)
        _, ldd = fd_derivatives(spec, gs, 0.03)
        assert abs(ldd) <= 1e-6

    def test_step_reaching_the_wall_rejected(self):
        spec = make_potential("affine")
        centre = solve_ground_state(spec, Domain(0.0, 1.0), 301)
        with pytest.raises(DomainError):
            fd_derivatives(spec, centre, 1.5)

    @pytest.mark.parametrize("bundle", ["free_bundle", "airy_bundle"])
    def test_bundle_fd_equals_three_solves(self, bundle, request):
        # the bundle takes gs as its centre solve: the outer solves keep its
        # wall and spacing on N -+ m nodes and start from its vector,
        # truncated or padded with zeros
        spec, gs, sens = request.getfixturevalue(bundle)
        N, h, start = gs.grid.n_interior, gs.grid.h, gs.u[1:-1]
        m = round(sens.fd_step / h)
        assert m >= 1 and sens.fd_step == m * h
        lo = solve_ground_state(spec, Domain(gs.domain.a, gs.t - m * h, gs.domain.a_eff),
                                N - m, start=start[:N - m])
        hi = solve_ground_state(spec, Domain(gs.domain.a, gs.t + m * h, gs.domain.a_eff),
                                N + m, start=np.concatenate((start, np.zeros(m))))
        for outer in (lo, hi):
            assert outer.grid.h == pytest.approx(h, rel=1e-12)
        step = m * h
        assert sens.lambda_dot_fd == (hi.lam - lo.lam) / (2.0 * step)
        assert sens.lambda_ddot_fd == (hi.lam - 2.0 * gs.lam + lo.lam) / (step * step)

    @pytest.mark.parametrize("family, params", [("abs_shift", {}),
                                                ("neg_abs", {"slope": 2.0, "amp": 1.0})])
    def test_kinked_fd_curvature_is_wall_independent(self, family, params):
        # with whole-cell steps the kink keeps its place within its cell at
        # t - h_t, t and t + h_t; a fixed-N step moved it and missed by
        # 4e-2 to 3e-1 at every one of these walls
        spec = make_potential(family, **params)
        for wall in np.linspace(-13.0, -12.0, 11):
            gs = solve_ground_state(spec, Domain(NEG_INF, 1.0, float(wall)), 801)
            sens = compute_sensitivity(gs, spec)
            assert abs(sens.lambda_ddot - sens.lambda_ddot_fd) <= \
                1e-2 * abs(sens.lambda_ddot_fd), wall

    def test_bundle_solves_the_centre_only_on_another_grid(self, monkeypatch):
        import eigenshift.sensitivity as sensitivity

        spec = make_potential("affine")
        gs = solve_ground_state(spec, Domain(0.0, 1.0), 301)
        solved_at = []
        real = sensitivity.solve_ground_state

        def counting(spec, domain, N, **kw):
            solved_at.append(domain.t)
            return real(spec, domain, N, **kw)

        monkeypatch.setattr(sensitivity, "solve_ground_state", counting)
        compute_sensitivity(gs, spec)
        assert len(solved_at) == 2 and gs.t not in solved_at

    def test_oracle_agreement_bundle(self, free_bundle):
        _, _, sens = free_bundle
        assert abs(sens.lambda_dot_flux - sens.lambda_dot_fd) <= \
            max(1e-4 * abs(sens.lambda_dot_fd), 10 * sens.fd_step**2)
        assert abs(sens.lambda_ddot - sens.lambda_ddot_fd) <= \
            max(1e-2 * abs(sens.lambda_ddot_fd), 1e-4 * (1 + abs(sens.lam)))


class TestSensitivityBundle:
    def test_metadata_keys(self, free_bundle):
        from eigenshift.sensitivity import sensitivity_metadata
        _, _, sens = free_bundle
        assert set(sensitivity_metadata(sens)) == {
            "t", "lambda", "lambda_dot_flux", "lambda_dot_integral",
            "lambda_ddot", "lambda_dot_fd", "lambda_ddot_fd", "fd_step",
            "t0", "orth_residual",
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
    # lambda_ddot.  a = -inf is left out: the wall march starts from a fixed
    # width-4 probe, so its wall is covariant only to within one march cell
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
