"""Golden format of the column writers: every value in %.16e, one row per line.

The reference is the per-value formatting loop the writers replaced, so a
change of format fails here even when two runs of the new code agree.
"""

import numpy as np
import pytest

from eigenshift.cli import main
from eigenshift.ground_state import _format_rows, write_columns
from eigenshift.potentials import make_potential
from eigenshift.sweep import sweep

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300]


def reference_rows(*cols, sep=","):
    return "".join(sep.join(f"{v:.16e}" for v in row) + "\n" for row in zip(*cols))


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
    assert _format_rows(*cols) == reference_rows(*cols)
    assert _format_rows(*cols, sep=" ") == reference_rows(*cols, sep=" ")


def test_special_values_one_per_row():
    col = np.array(SPECIAL)
    text = _format_rows(col)
    assert text.splitlines() == [f"{v:.16e}" for v in SPECIAL]
    assert text.splitlines()[:4] == ["nan", "inf", "-inf", "-0.0000000000000000e+00"]


def test_write_columns_header_then_rows(tmp_path):
    x, y = np.linspace(0.0, 1.0, 5), np.arange(5.0)
    path = tmp_path / "cols.csv"
    write_columns(path, _format_rows(x, y), header="x,y")
    assert path.read_text() == "x,y\n" + reference_rows(x, y)
    write_columns(path, _format_rows(x, y))
    assert path.read_text() == reference_rows(x, y)


@pytest.mark.parametrize("mode, csv_name, plot_name, extra", [
    ("solve", "ground_state.csv", "u_vs_x.dat", ()),
    ("sensitivity", "u_dot.csv", "u_dot_vs_x.dat", ("--h-t", "0.01")),
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
