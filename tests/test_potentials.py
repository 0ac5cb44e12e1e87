import re

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from eigenshift.errors import RangeError, UsageError
from eigenshift.potentials import (
    _FAMILIES,
    FAMILIES,
    ConvexityClass,
    _table_convexity,
    convexity_on,
    eval_V,
    eval_Vprime,
    load_tabulated,
    make_potential,
    make_tabulated,
    parse_potential,
    validate_confinement,
    vprime_kinks,
)

NEG_INF = float("-inf")

COEFF = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


class TestEvalV:
    def test_quadratic(self):
        spec = make_potential("quadratic", c2=1.0)
        assert eval_V(spec, 2.0) == 4.0

    def test_affine_constant(self):
        spec = make_potential("affine", c0=5.0)
        for x in (-3.0, 0.0, 17.5):
            assert eval_V(spec, x) == 5.0

    def test_abs_shift(self):
        spec = make_potential("abs_shift", shift=1.0)
        assert eval_V(spec, -2.0) == 3.0

    def test_vectorized(self):
        spec = make_potential("quadratic", c1=1.0, c2=2.0)
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(eval_V(spec, xs), [1.0, 0.0, 10.0])

    def test_neg_abs(self):
        spec = make_potential("neg_abs", slope=2.0, amp=1.0)
        assert eval_V(spec, -1.0) == 1.0   # -2*(-1) - |-1| = 2 - 1
        assert eval_V(spec, 1.0) == -3.0

    def test_neg_abs_with_equal_slopes_is_constant_left_of_the_kink(self):
        # -x - |x - s| is -s exactly for x < s; summing the two terms cancels
        # and left a rounding wobble, which a sampled table reads as curvature
        spec = make_potential("neg_abs", slope=1.0, amp=1.0, shift=0.015625)
        xs = np.linspace(-1.0, 0.0, 2001)
        vs = eval_V(spec, xs)
        assert np.all(vs == -0.015625)
        assert _table_convexity(xs, vs) is ConvexityClass.AFFINE

    def test_unknown_family_or_param(self):
        with pytest.raises(UsageError):
            make_potential("coulomb")
        with pytest.raises(UsageError):
            make_potential("affine", c7=1.0)
        with pytest.raises(UsageError, match="'label'"):   # specs carry no label
            make_potential("affine", label="V=0")

    def test_zero_amplitude_exponential_is_exactly_zero(self):
        # exp(1000) overflows, and 0 * inf would be nan
        spec = make_potential("exp_growth", amp=0.0, rate=-1.0)
        xs = np.array([-1000.0, 0.0, 5.0])
        assert np.all(eval_V(spec, xs) == 0.0)
        assert np.all(eval_Vprime(spec, xs) == 0.0)


# one case per family, kinked ones and a table included
VPRIME_CASES = [
    ("quadratic", dict(c0=1.0, c1=-2.0, c2=0.7)),
    ("exp_growth", dict(amp=0.5, rate=-1.3)),
    ("neg_quadratic", dict(scale=2.0)),
    ("affine", dict(c0=1.0, c1=-2.0)),
    ("abs_shift", dict(shift=0.3)),
    ("neg_abs", dict(slope=2.0, amp=0.7, shift=-0.3)),
    ("tabulated", dict(xs=[-4.0, -1.3, 0.2, 1.7, 4.0], vs=[3.0, -0.5, 0.25, 2.0, -1.0])),
]


class TestEvalVprime:
    def test_quadratic(self):
        spec = make_potential("quadratic", c2=1.0)
        assert eval_Vprime(spec, 3.0) == 6.0

    def test_abs_negative_side(self):
        spec = make_potential("abs_shift")
        assert eval_Vprime(spec, -1.0) == -1.0

    def test_abs_left_convention_at_kink(self):
        spec = make_potential("abs_shift")
        assert eval_Vprime(spec, 0.0) == -1.0
        assert eval_Vprime(spec, 0.0, "right") == 1.0

    def test_neg_abs_sided(self):
        spec = make_potential("neg_abs", slope=2.0, amp=1.0)
        assert eval_Vprime(spec, 0.0, "left") == -1.0
        assert eval_Vprime(spec, 0.0, "right") == -3.0

    @pytest.mark.parametrize("family,params", VPRIME_CASES)
    def test_matches_central_differences(self, family, params):
        if family == "tabulated":
            spec = make_tabulated(**params)
        else:
            spec = make_potential(family, **params)
        h = 1e-5
        xs = np.linspace(-3.0, 3.0, 13)
        # the difference quotient straddles no kink or table knot
        kinks = vprime_kinks(spec)
        xs = [x for x in xs if np.all(np.abs(kinks - x) > 2 * h)]
        assert len(xs) >= 10
        for x in xs:
            fd = (eval_V(spec, x + h) - eval_V(spec, x - h)) / (2 * h)
            for side in ("left", "right"):
                assert eval_Vprime(spec, x, side) == pytest.approx(fd, abs=1e-7 * (1 + abs(fd)))

    def test_every_family_has_a_central_difference_case(self):
        assert sorted(family for family, _ in VPRIME_CASES) == sorted(FAMILIES)

    def test_kink_list(self):
        assert vprime_kinks(make_potential("abs_shift", shift=0.5)) == pytest.approx([0.5])
        assert len(vprime_kinks(make_potential("quadratic", c2=1.0))) == 0


# magnitudes 0.1-10 of either sign
MAGNITUDE = st.builds(lambda m, neg: -m if neg else m, st.floats(0.1, 10), st.booleans())


@st.composite
def spec_on_interval(draw):
    """(spec, lo, hi): any family on a finite interval, kinks near or in it.

    The interval stays near the origin, so exp_growth is of order one there:
    in the far tail of an exponential every slope jump of the 2001 samples
    lies inside the sampled class's rounding floor, which reads it as affine.
    """
    family = draw(st.sampled_from(FAMILIES))
    lo = draw(st.floats(-1, 1))
    hi = lo + draw(st.floats(0.5, 2))
    if family == "tabulated":
        inner = draw(st.lists(st.floats(lo - 1, hi + 1), max_size=6, unique=True))
        xs = [lo - 2.0] + sorted(inner) + [hi + 2.0]
        assume(np.min(np.diff(xs)) >= 1e-3)
        return make_tabulated(xs, [draw(MAGNITUDE) for _ in xs]), lo, hi
    params = {k: draw(MAGNITUDE) for k in _FAMILIES[family].defaults}
    if "shift" in params:
        params["shift"] = draw(st.floats(lo - 5, hi + 5))
    return make_potential(family, **params), lo, hi


class TestClassify:
    def test_quadratic_convex(self):
        spec = make_potential("quadratic", c2=1.0)
        assert convexity_on(spec, -5, 5) is ConvexityClass.CONVEX

    def test_affine(self):
        spec = make_potential("affine", c0=1.0, c1=-1.0)
        assert convexity_on(spec, -5, 5) is ConvexityClass.AFFINE

    def test_neg_quadratic_concave(self):
        spec = make_potential("neg_quadratic", scale=1.0)
        assert convexity_on(spec, -5, 5) is ConvexityClass.CONCAVE

    def test_tabulated_from_table(self):
        spec = make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0, 6.0])
        assert convexity_on(spec) is ConvexityClass.CONVEX

    def test_indeterminate(self):
        spec = make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0])
        assert convexity_on(spec) is ConvexityClass.INDETERMINATE

    @pytest.mark.parametrize("spec, lo, hi, expected", [
        # a kink counts only inside the open interval
        (make_potential("abs_shift", shift=0.5), -1.0, 1.0, ConvexityClass.CONVEX),
        (make_potential("abs_shift", shift=0.5), 1.0, 3.0, ConvexityClass.AFFINE),
        (make_potential("abs_shift", shift=0.5), -3.0, 0.5, ConvexityClass.AFFINE),
        (make_potential("abs_shift", shift=0.5), NEG_INF, 0.6, ConvexityClass.CONVEX),
        # the sweep repro: the wall at -15.5 puts the kink at -8 in the domain
        (make_potential("neg_abs", slope=2.0, amp=1.0, shift=-8.0), -15.5, 2.5,
         ConvexityClass.CONCAVE),
        (make_potential("neg_abs", slope=2.0, amp=1.0, shift=-8.0), -5.0, 5.0,
         ConvexityClass.AFFINE),
        # slopes 2, 0.5, 3.5: one segment, a segment exactly, across each kink
        (make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0]), 0.2, 0.8,
         ConvexityClass.AFFINE),
        (make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0]), 1.0, 2.0,
         ConvexityClass.AFFINE),
        (make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0]), 0.5, 1.5,
         ConvexityClass.CONCAVE),
        (make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0]), 1.5, 2.5,
         ConvexityClass.CONVEX),
        (make_tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 6.0]), 0.5, 2.5,
         ConvexityClass.INDETERMINATE),
    ])
    def test_class_on_interval(self, spec, lo, hi, expected):
        assert convexity_on(spec, lo, hi) is expected

    @pytest.mark.parametrize("lo, hi", [(5.0, 6.0), (-3.0, -2.0)])
    def test_interval_off_the_table(self, lo, hi):
        spec = make_tabulated([0, 1, 2], [1, 0, 1])
        with pytest.raises(RangeError, match=re.escape(
                f"[{lo}, {hi}] meets no segment of the tabulated range [0.0, 2.0]")):
            convexity_on(spec, lo, hi)

    @given(c0=COEFF, c1=COEFF)
    @settings(max_examples=50, deadline=None)
    def test_affine_always_affine(self, c0, c1):
        spec = make_potential("affine", c0=c0, c1=c1)
        assert convexity_on(spec, -5, 5) is ConvexityClass.AFFINE

    @given(case=spec_on_interval())
    @settings(max_examples=200, deadline=None)
    def test_exact_class_matches_sampled_class(self, case):
        spec, lo, hi = case
        xs = np.linspace(lo, hi, 2001)
        gap = 2.0 * (xs[1] - xs[0])
        kinks = vprime_kinks(spec)
        assume(np.all((np.abs(kinks - lo) >= gap) & (np.abs(kinks - hi) >= gap)))
        assert convexity_on(spec, lo, hi) is _table_convexity(xs, eval_V(spec, xs))

    @given(x=st.floats(-10, 10), y=st.floats(-10, 10),
           c2=st.floats(0.01, 10), shift=st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_convex_midpoint_inequality(self, x, y, c2, shift):
        for spec in (make_potential("quadratic", c2=c2),
                     make_potential("abs_shift", shift=shift)):
            mid = eval_V(spec, (x + y) / 2)
            avg = (eval_V(spec, x) + eval_V(spec, y)) / 2
            assert mid <= avg + 1e-12 * (1 + abs(avg))


    @given(xs=st.lists(st.integers(-1000, 1000), min_size=2, max_size=8, unique=True),
           vs=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8),
           c=st.floats(1e-12, 1e12))
    @settings(max_examples=300, deadline=None)
    def test_table_class_is_scale_free(self, xs, vs, c):
        # integer tables: a slope jump is 0 or at least 1 / 2000^2, far outside
        # the rounding floor
        xs = sorted(xs)
        vs = np.array(vs[:len(xs)], dtype=float)
        expected = convexity_on(make_tabulated(xs, vs))
        assert convexity_on(make_tabulated(xs, c * vs)) is expected
        assert convexity_on(make_tabulated(xs, c * vs), xs[0], xs[-1]) is expected

    def test_small_kinked_table_is_convex(self):
        # a dead band fixed in absolute units read this table as affine
        for c in (1.0, 1e12):
            spec = make_tabulated([0.0, 1.0, 2.0], [c * 1e-11, 0.0, c * 1e-11])
            assert convexity_on(spec) is ConvexityClass.CONVEX


class TestConfinement:
    def test_downward_tilt_confines(self):
        assert validate_confinement(make_potential("affine", c1=-1.0), NEG_INF)

    def test_quadratic_confines(self):
        assert validate_confinement(make_potential("quadratic", c2=1.0), NEG_INF)

    def test_upward_tilt_fails(self):
        assert not validate_confinement(make_potential("affine", c1=1.0), NEG_INF)

    def test_neg_quadratic_fails(self):
        assert not validate_confinement(make_potential("neg_quadratic"), NEG_INF)

    def test_finite_a_always_true(self):
        assert validate_confinement(make_potential("neg_quadratic"), -3.0)

    def test_decaying_exponential_confines(self):
        assert validate_confinement(make_potential("exp_growth", rate=-1.0), NEG_INF)

    def test_growing_exponential_fails(self):
        assert not validate_confinement(make_potential("exp_growth", rate=1.0), NEG_INF)

    @pytest.mark.parametrize("family, params, confined", [
        # the exact rule at scales no sampling of V reaches: a quadratic that
        # falls to -inf only past |x| = 1e40, and a tilt of 1e-12
        ("quadratic", dict(c2=-1e-40, c1=-1.0), False),
        ("quadratic", dict(c2=1e-40, c1=1.0), True),
        ("affine", dict(c1=-1e-12), True),
        ("affine", dict(c1=-1e-300), True),
        ("quadratic", dict(c2=0.0, c1=-1e-300), True),
        ("quadratic", dict(c2=0.0, c1=0.0, c0=1e300), False),
        ("neg_abs", dict(slope=1.0 + 1e-15, amp=1.0), True),
        ("neg_abs", dict(slope=1.0, amp=1.0), False),
        ("exp_growth", dict(amp=1e-300, rate=-1e-300), True),
        ("neg_quadratic", dict(scale=-1e-300), True),
    ])
    def test_rule_is_exact_at_every_scale(self, family, params, confined):
        assert validate_confinement(make_potential(family, **params), NEG_INF) is confined

    @seed(20261018)
    @given(data=st.data(), family=st.sampled_from(FAMILIES))
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_sampled_growth(self, data, family):
        # On O(1) parameters, where sampling V at x = -2^k is reliable, the
        # exact rule agrees with it: V must rise past 1e8 on two rising
        # samples, or overflow to +inf, within 60 doublings.
        if family == "tabulated":
            spec = make_tabulated([-10.0, 0.0, 10.0], [100.0, 0.0, 100.0])
        else:
            params = {k: data.draw(MAGNITUDE, label=k) for k in _FAMILIES[family].defaults}
            if "shift" in params:
                params["shift"] = data.draw(st.floats(-5, 5), label="shift")
            if family == "neg_abs":
                assume(abs(params["slope"] - params["amp"]) >= 0.1)
            spec = make_potential(family, **params)
        prev, rising, sampled = -np.inf, 0, False
        for k in range(1, 61):
            try:
                v = eval_V(spec, -(2.0 ** k))
            except RangeError:
                break   # not evaluable arbitrarily far left
            rising = rising + 1 if v > prev else 0
            if v == np.inf or (v >= 1e8 and rising >= 2):
                sampled = True
                break
            prev = v
        assert validate_confinement(spec, NEG_INF) is sampled


class TestGrammar:
    def test_parse_quadratic(self):
        spec = parse_potential("quadratic:c0=0,c1=0,c2=1")
        assert spec.family == "quadratic"
        assert eval_V(spec, 2.0) == 4.0

    def test_parse_affine_partial_keys(self):
        spec = parse_potential("affine:c1=-1")
        assert eval_V(spec, 3.0) == -3.0

    def test_canonical_is_sorted_and_deterministic(self):
        a = parse_potential("quadratic:c2=1,c0=0")
        b = parse_potential("quadratic:c0=0,c2=1")
        assert a == b
        assert list(a.params) == ["c0", "c1", "c2"]

    def test_bad_family(self):
        with pytest.raises(UsageError, match="family"):
            parse_potential("morse:d=1")

    def test_bad_value(self):
        with pytest.raises(UsageError, match="c2"):
            parse_potential("quadratic:c2=abc")

    def test_missing_equals(self):
        with pytest.raises(UsageError, match="key=value"):
            parse_potential("quadratic:c2")

    @pytest.mark.parametrize("text", ["quadratic:c2=nan", "affine:c1=-inf",
                                      "exp_growth:rate=inf", "neg_abs:amp=1e999"])
    def test_non_finite_value(self, text):
        # a usage error, not a potential that is not finite on the grid
        with pytest.raises(UsageError, match="must be finite"):
            parse_potential(text)
        family, _, pair = text.partition(":")
        key, _, val = pair.partition("=")
        with pytest.raises(UsageError, match="must be finite"):
            make_potential(family, **{key: float(val)})

    @pytest.mark.parametrize("text", ["affine:c1=1,c1=-1", "quadratic:c2=1, c2 =1",
                                      "tabulated:file=a.csv,file=b.csv"])
    def test_repeated_key(self, text):
        with pytest.raises(UsageError, match="given twice"):
            parse_potential(text)


class TestTabulated:
    def test_interpolates(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("x,V\n0,0\n1,2\n2,2\n")
        spec = parse_potential(f"tabulated:file={path}")
        assert eval_V(spec, 0.5) == 1.0
        assert eval_Vprime(spec, 0.5) == 2.0
        assert eval_Vprime(spec, 1.0) == 2.0       # left convention
        assert eval_Vprime(spec, 1.0, "right") == 0.0
        np.testing.assert_allclose(vprime_kinks(spec), [1.0])

    def test_out_of_range(self):
        spec = make_tabulated([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(RangeError):
            eval_V(spec, 1.5)
        with pytest.raises(RangeError):
            eval_Vprime(spec, -0.5)

    def test_requires_increasing_x(self):
        with pytest.raises(UsageError):
            make_tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])

    def test_overflowing_slope_rejected(self):
        # knots a subnormal distance apart: 1 / 1e-310 overflows a double
        with pytest.raises(UsageError, match="slope"):
            make_tabulated([0.0, 1e-310, 1.0], [0.0, 1.0, 0.0])
        # finite slopes whose jump passes the double range still classify
        spec = make_tabulated([0.0, 1.0, 2.0], [0.0, 1.5e308, 0.0])
        assert convexity_on(spec) is ConvexityClass.CONCAVE

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        with pytest.raises(UsageError, match="header"):
            parse_potential(f"tabulated:file={path}")

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,V\n0,1\n1\n2,3\n")
        with pytest.raises(UsageError, match=re.escape(f"{path}: line 3 needs two fields")):
            parse_potential(f"tabulated:file={path}")

    def test_make_potential_points_to_the_table_constructors(self):
        with pytest.raises(UsageError, match=re.escape("use make_tabulated()")):
            make_potential("tabulated")

    @pytest.mark.parametrize("xs, vs, message", [
        ([0.0, 1.0, 2.0], [0.0, 1.0], "two 1-d arrays of equal length"),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]], "two 1-d arrays of equal length"),
        ([0.0, 1.0], [0.0, float("nan")], "must be finite"),
    ], ids=["unequal_length", "two_dimensional", "nan_value"])
    def test_malformed_arrays_rejected(self, xs, vs, message):
        with pytest.raises(UsageError, match=message):
            make_tabulated(xs, vs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read tabulated potential"):
            load_tabulated(str(tmp_path / "missing.csv"))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,V\n0,1\n1,abc\n")
        with pytest.raises(UsageError, match=re.escape(f"{path}: malformed numeric row")):
            load_tabulated(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("x,V\n0,1\n1,2\n2,0\n")
        spaced.write_text("x,V\n\n0,1\n\n1,2\n2,0\n\n")
        want, got = load_tabulated(str(plain)).table, load_tabulated(str(spaced)).table
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)

    def test_parse_needs_file_and_only_file(self, tmp_path):
        with pytest.raises(UsageError, match=re.escape("requires file=<path.csv>")):
            parse_potential("tabulated:")
        path = tmp_path / "v.csv"
        path.write_text("x,V\n0,0\n1,1\n")
        with pytest.raises(UsageError, match="unknown parameter 'foo' for family 'tabulated'"):
            parse_potential(f"tabulated:file={path},foo=1")

    def test_confinement_false_beyond_table(self):
        spec = make_tabulated([-10.0, 0.0, 10.0], [100.0, 0.0, 100.0])
        assert not validate_confinement(spec, NEG_INF)
