"""Golden format of the column writer: every value in %.16e, one row per line.

The reference is the per-value formatting loop the writer replaced, so a
change of format fails here even when two runs of the new code agree.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import cli
from eigenshift.cli import (
    _BLOCK,
    _E_HI,
    _E_LO,
    _TIE_BAND,
    _VEC_MAX,
    _VEC_MIN,
    RunConfig,
    _row_blocks,
    _write_columns,
    main,
)
from eigenshift.ground_state import Domain, solve_ground_state
from eigenshift.potentials import make_potential
from eigenshift.sweep import sweep

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300]


def reference_rows(*cols, sep=","):
    return "".join(sep.join(f"{v:.16e}" for v in row) + "\n" for row in zip(*cols))


def format_rows(*cols):
    """The whole CSV text of ``_row_blocks``."""
    return b"".join(_row_blocks(*cols)).decode()


def columns(k, n, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 300, (k, n))
    flat = cols.ravel()
    flat[: min(len(flat), len(SPECIAL))] = SPECIAL[: len(flat)]
    return list(cols)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_format_rows_matches_per_value_reference(k, n):
    cols = columns(k, n, seed=10 * k + n)
    assert format_rows(*cols) == reference_rows(*cols)


def test_special_values_one_per_row():
    col = np.array(SPECIAL)
    text = format_rows(col)
    assert text.splitlines() == [f"{v:.16e}" for v in SPECIAL]
    assert text.splitlines()[:4] == ["nan", "inf", "-inf", "-0.0000000000000000e+00"]


def ulp_neighbours(values):
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def powers_of_ten():
    """Every power of ten a float64 holds, each correctly rounded."""
    return [float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(-323, 309)]


def rounds_up_to_power_of_ten():
    """Doubles just below 10^k whose 17-digit rounding is 10^k."""
    out = []
    for k, v in zip(range(-323, 309), powers_of_ten()):
        num, den = v.as_integer_ratio()
        if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0) and f"{v:.16e}".startswith("1.0000"):
            out.append(v)
    return out


def ties(n=2000, seed=3):
    # m / 4 with 4e15 < m < 2^53 has 16 integer digits, so odd m puts the
    # 17th significant digit exactly on a half
    m = np.random.default_rng(seed).integers(4 * 10 ** 15 + 1, 2 ** 53, n)
    return m * 0.25


EXPLICIT = {
    "ties": ties(),
    "powers_of_ten": ulp_neighbours(powers_of_ten()),
    "round_up_to_power_of_ten": np.array(rounds_up_to_power_of_ten()),
    "range_ends": ulp_neighbours([_VEC_MIN, _VEC_MAX]),
    "exponent_width": ulp_neighbours([1e99, 9.999999999999999e99, 1e100, 1e-99,
                                      9.999999999999999e-100, 1e-100, 1e-101]),
    "subnormal_zero_nonfinite": np.array([5e-324, 1e-310, 2.2250738585072009e-308,
                                          2.2250738585072014e-308, 1.7976931348623157e308,
                                          0.0, -0.0, np.nan, np.inf, -np.inf]),
}


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_format_rows_explicit_values(name):
    v = np.concatenate([EXPLICIT[name], -EXPLICIT[name]])
    assert format_rows(v) == reference_rows(v)
    cols = list(v[: len(v) // 3 * 3].reshape(3, -1))
    assert format_rows(*cols) == reference_rows(*cols)


def first_double_of_decade(k):
    """The smallest double whose %.16e has exponent k: the first whose 17
    digits round up to 10^k, a carry when it lies below 10^k."""
    # 9.99...95e(k-1): a tie, which rounds half-even up past the odd digit 9
    threshold = Fraction(10) ** k * (1 - Fraction(5, 10 ** 18))
    v = float(threshold)
    return v if Fraction(v) >= threshold else math.nextafter(v, math.inf)


def test_format_rows_every_kernel_exponent():
    exps = range(_E_LO, _E_HI + 1)
    up = np.array([first_double_of_decade(e + 1) for e in exps])
    for e, v in zip(exps, up):
        assert int(f"{v:.16e}".split("e")[1]) == e + 1
        assert int(f"{math.nextafter(v, 0.0):.16e}".split("e")[1]) == e
    assert sum(Fraction(v) < Fraction(10) ** (e + 1) for e, v in zip(exps, up)) >= 10
    powers = [float(10 ** e) if e >= 0 else 1 / 10 ** -e for e in exps]
    v = np.concatenate([ulp_neighbours(powers), up])
    v = np.concatenate([v, -v])
    assert format_rows(v) == reference_rows(v)
    cols = list(v.reshape(2, -1))
    assert format_rows(*cols) == reference_rows(*cols)


def test_round_half_even_ties_and_carries():
    assert format_rows(np.array([4000000000000001 * 0.25])) == "1.0000000000000002e+15\n"
    assert format_rows(np.array([4000000000000003 * 0.25])) == "1.0000000000000008e+15\n"
    assert len(rounds_up_to_power_of_ten()) >= 10


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 4), bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=240))
def test_format_rows_property_bit_patterns(k, bits):
    n = len(bits) // k
    flat = np.array(bits[: n * k], dtype=np.uint64).view(np.float64)
    cols = list(flat.reshape(k, n))
    assert format_rows(*cols) == reference_rows(*cols)


def tie_distance(v):
    """Exact distance of 10^(16 - e) |v| from its nearest half-integer,
    e chosen so the scaled value has 17 integer digits."""
    q = Fraction(abs(v)) * Fraction(10) ** (16 - math.floor(math.log10(abs(v))))
    while q >= 10 ** 17:
        q /= 10
    while q < 10 ** 16:
        q *= 10
    return abs(q - math.floor(q) - Fraction(1, 2))


def test_exact_arbiter_is_rare_on_the_oscillator_profile(monkeypatch):
    gs = solve_ground_state(make_potential("quadratic", c2=1.0), Domain(-math.inf, 0.0), 32001)
    x, u = gs.grid.x, gs.u
    seen = []
    exact_fields = cli._exact_fields

    def spy(values):
        seen.extend(values.tolist())
        return exact_fields(values)

    monkeypatch.setattr(cli, "_exact_fields", spy)
    assert format_rows(x, u) == reference_rows(x, u)
    # the zeros are the Dirichlet values u(a_eff) = u(t) = 0 and the grid point x = t = 0
    assert np.flatnonzero(u == 0.0).tolist() == [0, len(u) - 1]
    assert np.flatnonzero(x == 0.0).tolist() == [len(x) - 1]
    assert [v for v in seen if v == 0.0] == [0.0, 0.0, 0.0]
    # anything else must be a near-tie; 1e-12 covers the kernel's own error
    assert all(tie_distance(v) < _TIE_BAND + 1e-12 for v in seen if v != 0.0)


def test_write_columns_header_then_rows(tmp_path):
    x, y = np.linspace(0.0, 1.0, 5), np.arange(5.0)
    cfg = RunConfig(mode="solve", out_dir=tmp_path, formats=("csv", "plot"))
    _write_columns(cfg, _row_blocks(x, y), "cols.csv", "x,y")
    assert (tmp_path / "cols.csv").read_text() == "x,y\n" + reference_rows(x, y)
    _write_columns(cfg, _row_blocks(x, y), plot_name="cols.dat")
    assert (tmp_path / "cols.dat").read_text() == reference_rows(x, y, sep=" ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cols.csv", "cols.dat"]


@pytest.mark.parametrize("formats", [("csv",), ("plot",), ("csv", "plot")])
@pytest.mark.parametrize("n", [100, 3 * (_BLOCK // 2), 3 * (_BLOCK // 2) + 17],
                         ids=["one_block", "whole_blocks", "partial_last_block"])
def test_streamed_profile_equals_the_whole_text(tmp_path, formats, n):
    # two columns make blocks of _BLOCK // 2 rows
    x, y = columns(2, n, seed=n)
    cfg = RunConfig(mode="solve", out_dir=tmp_path, formats=formats)
    _write_columns(cfg, _row_blocks(x, y), "p.csv", "x,y", "p.dat")
    expected = {"p.csv": "x,y\n" + reference_rows(x, y), "p.dat": reference_rows(x, y, sep=" ")}
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted({"csv": "p.csv", "plot": "p.dat"}[f] for f in formats)
    for name in written:
        assert (tmp_path / name).read_bytes() == expected[name].encode()


def test_formatting_peak_does_not_grow_with_the_row_count(working_set):
    # the peak above entry of formatting a profile, in vectors of 32_003
    # values; a copy of every column into one table would add two
    def peak(n):
        x = np.linspace(-1.0, 1.0, n)
        u = np.cos(x)
        return working_set(lambda: sum(1 for _ in _row_blocks(x, u)), 32_003)[1]

    peak(17)   # first-call set-up (the cached word tables) is not counted
    growth = peak(320_003) - peak(32_003)
    assert growth < 1.0, growth


@pytest.mark.parametrize("mode, csv_name, plot_name, extra", [
    ("solve", "ground_state.csv", "u_vs_x.dat", ()),
    ("sensitivity", "u_dot.csv", "u_dot_vs_x.dat", ()),
])
def test_plot_file_is_csv_body_space_separated(tmp_path, mode, csv_name, plot_name, extra):
    code = main([mode, "--potential", "quadratic:c2=1", "--a", "-inf", "--t", "0.5",
                 "--N", "301", "--format", "csv,plot", "--out-dir", str(tmp_path),
                 *extra])
    assert code == 0
    csv_lines = (tmp_path / csv_name).read_text().splitlines()
    plot_lines = (tmp_path / plot_name).read_text().splitlines()
    assert len(plot_lines) == 303
    assert plot_lines == [line.replace(",", " ") for line in csv_lines[1:]]


def test_sweep_plot_files_match_reference(tmp_path):
    code = main(["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:2:7",
                 "--N", "301", "--format", "plot", "--out-dir", str(tmp_path)])
    assert code == 0
    res = sweep(make_potential("affine"), 0.0, 0.5, 2.0, 7, 301)
    expected = {
        "lambda_vs_t.dat": (res.ts, res.lambdas),
        "lambda_dot_vs_t.dat": (res.ts, res.lambda_dots),
        "second_diff_vs_t.dat": (res.ts[1:-1], res.second_diffs),
    }
    for name, cols in expected.items():
        assert (tmp_path / name).read_text() == reference_rows(*cols, sep=" ")


def test_written_columns_are_fixed_points_of_the_format(tmp_path):
    # every non-empty field reads back and re-formats to itself: sweep.csv
    # leaves the curvature cell of its end rows empty, and u_dot changes sign
    # and has values near the wall
    osc = ["--potential", "quadratic:c2=1", "--a", "-inf"]
    assert main(["solve", *osc, "--t", "0", "--N", "32001", "--format", "csv,plot",
                 "--out-dir", str(tmp_path / "f")]) == 0
    assert main(["sensitivity", *osc, "--t", "0", "--N", "32001",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["sweep", *osc, "--t-range", "-1:2:31", "--N", "2001",
                 "--out-dir", str(tmp_path / "w")]) == 0

    def body(path):
        header, rest = path.read_text().split("\n", 1)
        return rest

    csv = body(tmp_path / "f" / "ground_state.csv")
    plot = (tmp_path / "f" / "u_vs_x.dat").read_text()
    fields = csv.replace("\n", ",").split(",")[:-1] + plot.split()
    swept = [f for f in body(tmp_path / "w" / "sweep.csv").replace("\n", ",").split(",") if f]
    dotted = body(tmp_path / "s" / "u_dot.csv").replace("\n", ",").split(",")[:-1]
    assert len(fields) == 4 * 32003
    assert len(swept) == 4 * 31 - 2
    assert len(dotted) == 2 * 32003
    assert [f for f in fields + swept + dotted if "%.16e" % float(f) != f] == []
    assert plot == csv.replace(",", " ")


def test_three_digit_exponents_stay_on_the_kernel(monkeypatch):
    # the ground state of 1e4 x^2 on (-10, 10) has 12,276 values below
    # 1e-99, whose three-digit exponents fill their slots
    gs = solve_ground_state(make_potential("quadratic", c2=1e4), Domain(-10.0, 10.0), 32001)
    x, u = gs.grid.x, gs.u
    assert np.sum((u != 0.0) & (np.abs(u) < 1e-99)) == 12_276
    seen = []
    exact_fields = cli._exact_fields

    def spy(values):
        seen.extend(values.tolist())
        return exact_fields(values)

    monkeypatch.setattr(cli, "_exact_fields", spy)
    flipped = np.where(np.arange(len(u)) % 3 == 1, -u, u)
    for cols in ((x, u), (x, flipped), (flipped, x)):
        assert format_rows(*cols) == reference_rows(*cols)
    # the Dirichlet zeros u(-10) = u(10) = 0 and the node x = 0, once per call
    assert np.flatnonzero(u == 0.0).tolist() == [0, len(u) - 1]
    assert np.flatnonzero(x == 0.0).tolist() == [(len(x) - 1) // 2]
    assert sorted(seen) == [0.0] * 9


def spread_values():
    """Doubles of every kind the writer meets: any bit pattern (most have
    three-digit exponents), values only the arbiter formats, three-digit
    exponents on the kernel's range, and near-ties."""
    bits = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    arbiter = st.sampled_from(SPECIAL + [1e-310, -2.5e-300, 1.7976931348623157e308])
    wide = st.floats(1e-280, 1e-100) | st.floats(1e100, 1e280)
    tie = st.sampled_from(ties(50).tolist())
    return st.lists(st.one_of(bits, arbiter, wide, wide.map(lambda v: -v), tie),
                    min_size=2, max_size=60)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), block=st.integers(1, 7), values=spread_values())
def test_small_blocks_property(tmp_path_factory, k, block, values):
    # blocks of a few values, so full slots, arbiter rows and row ends fall
    # on block boundaries in every example
    n = max(len(values) // k, block // k + 2)   # two blocks or more
    flat = np.resize(np.array(values), n * k)
    flat[0], flat[-1] = 0.0, -1e-200
    cols = list(flat.reshape(n, k).T)
    out = tmp_path_factory.mktemp("blocks")
    cfg = RunConfig(mode="solve", out_dir=out, formats=("csv", "plot"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK", block)
        _write_columns(cfg, _row_blocks(*cols), "p.csv", "h", "p.dat")
    assert (out / "p.csv").read_text() == "h\n" + reference_rows(*cols)
    assert (out / "p.dat").read_text() == reference_rows(*cols, sep=" ")
