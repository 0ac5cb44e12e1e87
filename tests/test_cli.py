import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigenshift.cli import _FLAGS, main, parse_config
from eigenshift.errors import UsageError
from eigenshift.potentials import make_potential
from eigenshift.sweep import sweep


# (mode, config key, a JSON value, the same value as flag text)
KEY_CASES = [
    ("solve", "potential", "quadratic:c0=0,c2=1", "quadratic:c0=0,c2=1"),
    ("solve", "a", "-inf", "-inf"),
    ("solve", "t", 2.0, "2"),
    ("sweep", "t-range", "-1:2:31", "-1:2:31"),
    ("solve", "N", 64, "64"),
    ("verify", "n-t", 7, "7"),
    ("solve", "out-dir", "runs/one", "runs/one"),
    ("solve", "format", "json,plot", "json,plot"),
]


class TestParseConfig:
    def test_sweep_grammar(self):
        cfg = parse_config(["sweep", "--potential", "quadratic:c2=1", "--a", "-inf",
                            "--t-range", "-1:2:31", "--N", "2001"])
        assert cfg.mode == "sweep"
        assert cfg.a == float("-inf")
        assert cfg.t_range == (-1.0, 2.0, 31)
        assert cfg.N == 2001
        assert cfg.spec.family == "quadratic"

    def test_solve_grammar(self):
        cfg = parse_config(["solve", "--potential", "affine:c1=-1", "--a", "-inf",
                            "--t", "2"])
        assert cfg.mode == "solve" and cfg.t == 2.0

    def test_reversed_range_rejected(self):
        with pytest.raises(UsageError, match="t_min < t_max"):
            parse_config(["sweep", "--potential", "affine:", "--a", "0",
                          "--t-range", "2:1:5"])

    def test_successive_calls_do_not_leak_flags(self):
        # the parser is built once per process; each call starts from defaults
        sens = parse_config(["sensitivity", "--potential", "affine:", "--a", "0",
                             "--t", "1", "--N", "301", "--format", "json"])
        assert (sens.t, sens.N, sens.formats) == (1.0, 301, ("json",))
        swept = parse_config(["sweep", "--potential", "affine:", "--a", "0",
                              "--t-range", "0.5:2:5"])
        assert swept.mode == "sweep" and swept.t_range == (0.5, 2.0, 5)
        assert (swept.t, swept.N, swept.formats) == (None, 2001, ("csv", "json"))
        again = parse_config(["sensitivity", "--potential", "affine:", "--a", "0", "--t", "2"])
        assert (again.t, again.t_range, again.N) == (2.0, None, 2001)
        with pytest.raises(UsageError):
            parse_config(["solve", "--potential", "affine:", "--a", "0", "--t", "1",
                          "--t-range", "0.5:2:5"])

    def test_missing_potential(self):
        with pytest.raises(UsageError, match="potential"):
            parse_config(["solve", "--a", "0", "--t", "1"])

    def test_a_not_less_than_t(self):
        with pytest.raises(UsageError, match="a < t"):
            parse_config(["solve", "--potential", "affine:", "--a", "2", "--t", "1"])

    def test_small_N_rejected(self):
        with pytest.raises(UsageError, match="--N"):
            parse_config(["solve", "--potential", "affine:", "--a", "0",
                          "--t", "1", "--N", "8"])

    def test_bad_format(self):
        with pytest.raises(UsageError, match="format"):
            parse_config(["verify", "--format", "csv,xml"])

    def test_canonical_potential_string(self):
        cfg1 = parse_config(["solve", "--potential", "quadratic:c2=1,c0=0",
                             "--a", "0", "--t", "1"])
        cfg2 = parse_config(["solve", "--potential", "quadratic:c0=0,c2=1",
                             "--a", "0", "--t", "1"])
        assert cfg1.spec == cfg2.spec


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "a": 0.0,
                                     "t": 1.0, "N": 64}))
        cfg = parse_config(["solve", "--config", str(cfile), "--N", "128"])
        assert cfg.N == 128 and cfg.t == 1.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "grid": 10}))
        with pytest.raises(UsageError, match="grid"):
            parse_config(["solve", "--config", str(cfile), "--a", "0", "--t", "1"])
        # the FD step is derived, so its old key is unknown too
        cfile.write_text(json.dumps({"h-t": 1e-3}))
        assert main(["sensitivity", "--config", str(cfile), "--potential", "affine:",
                     "--a", "0", "--t", "1", "--out-dir", str(tmp_path / "out")]) == 2
        assert "unknown config key 'h-t'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, flag", [
        ("N", 2001.9, "--N"),
        ("N", True, "--N"),
        ("n-t", 7.8, "--n-t"),
        ("n-t", False, "--n-t"),
        ("a", True, "--a"),
        ("a", float("nan"), "--a"),
        ("a", float("inf"), "--a"),
        ("t", True, "--t"),
        ("t", float("nan"), "--t"),
        ("t", float("inf"), "--t"),
        ("t", float("-inf"), "--t"),
    ])
    def test_non_integral_or_boolean_value_rejected(self, tmp_path, key, value, flag):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "a": 0.0, "t": 1.0,
                                     key: value}))
        # named as a malformed value, not as a truncated one that is too small
        with pytest.raises(UsageError, match=f"{flag}: expected"):
            parse_config(["verify", "--config", str(cfile)])

    @pytest.mark.parametrize("text, message", [
        ("{potential", "config file is not valid JSON: "),
        ("[1, 2]", "config file must hold a flat JSON object"),
        ('{"a": true, "t": 1.0}', "--a: expected a real number or -inf, got True"),
    ], ids=["not_json", "list", "boolean_a"])
    def test_malformed_file_is_2(self, tmp_path, capsys, text, message):
        cfile = tmp_path / "run.json"
        cfile.write_text(text)
        assert main(["solve", "--config", str(cfile), "--potential", "affine:",
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integral_float_accepted(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"N": 2001.0, "n-t": 7.0}))
        cfg = parse_config(["verify", "--config", str(cfile)])
        assert (cfg.N, cfg.n_t) == (2001, 7)

    @pytest.mark.parametrize("mode, key, value, flag_text", KEY_CASES)
    def test_config_key_equals_its_flag(self, tmp_path, mode, key, value, flag_text):
        # the other values a mode needs, and a different value for the key
        needs = {"solve": {"potential": "affine:", "a": "-5", "t": "1"},
                 "sensitivity": {"potential": "affine:", "a": "-5", "t": "1"},
                 "sweep": {"potential": "affine:", "a": "-5", "t-range": "0.5:2:5"},
                 "verify": {}}[mode]
        rest = [tok for k, v in needs.items() if k != key for tok in (f"--{k}", v)]
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({key: value}))
        from_file = parse_config([mode, "--config", str(cfile)] + rest)
        from_flag = parse_config([mode, f"--{key}", flag_text] + rest)
        assert from_file == from_flag
        without = [tok for k, v in needs.items() for tok in (f"--{k}", v)]
        assert from_flag != parse_config([mode] + without)

    def test_every_config_key_has_a_case(self):
        assert sorted(key for _, key, _, _ in KEY_CASES) == sorted(f.name for f in _FLAGS)

    @pytest.mark.parametrize("value", [5, True, ["out"], {"dir": "out"}])
    def test_out_dir_must_be_a_string(self, tmp_path, value):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"out-dir": value}))
        with pytest.raises(UsageError, match="--out-dir: expected a path"):
            parse_config(["verify", "--config", str(cfile)])

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENSHIFT_OUT_DIR", str(tmp_path / "envdir"))
        cfg = parse_config(["solve", "--potential", "affine:", "--a", "0", "--t", "1"])
        assert cfg.out_dir == tmp_path / "envdir"


class TestFlags:
    # a value that begins with '-' and is not a plain negative number is read
    # by argparse as a flag unless the CLI joins it to its flag first
    @pytest.mark.parametrize("args, field, expected", [
        (["solve", "--potential", "-x"], None, "unknown potential family"),
        (["solve", "--potential", "affine:", "--a", "-inf", "--t", "1"], "a", float("-inf")),
        (["solve", "--potential", "affine:", "--a", "-inf", "--t", "-1e0"], "t", -1.0),
        (["sweep", "--potential", "affine:", "--a", "-inf", "--t-range", "-1:2:5"],
         "t_range", (-1.0, 2.0, 5)),
        (["verify", "--N", "-0x10"], None, "--N: expected an integer"),
        (["verify", "--n-t", "-0x10"], None, "--n-t: expected an integer"),
        (["sensitivity", "--potential", "affine:", "--a", "-1e0", "--t", "1"], "a", -1.0),
        (["verify", "--out-dir", "-out"], "out_dir", Path("-out")),
        (["verify", "--format", "-csv"], None, "--format: unknown format '-csv'"),
        (["verify", "--config", "-missing.json"], None, "cannot read config file"),
    ])
    def test_value_may_begin_with_a_dash(self, args, field, expected):
        if field is None:
            with pytest.raises(UsageError, match=re.escape(expected)):
                parse_config(args)
        else:
            assert getattr(parse_config(args), field) == expected

    @pytest.mark.parametrize("mode, own", [
        ("solve", ["--potential", "--a", "--t", "--N", "--out-dir", "--format"]),
        ("sensitivity", ["--potential", "--a", "--t", "--N", "--out-dir", "--format"]),
        ("sweep", ["--potential", "--a", "--t-range", "--N", "--out-dir", "--format"]),
        ("verify", ["--N", "--n-t", "--out-dir", "--format"]),
    ])
    def test_help_lists_the_flags_of_its_mode(self, capsys, mode, own):
        # the flags its mode takes, in _FLAGS order, after --config
        assert main([mode, "--help"]) == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == ["--config", *own]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["solve", "--potential", "nope:", "--a", "0", "--t", "1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_2(self, tmp_path, capsys):
        assert main(["solve", "--wibble", "3"]) == 2
        # the FD step is derived, so its old flag is unknown too
        assert main(["sensitivity", "--potential", "affine:", "--a", "0", "--t", "1",
                     "--h-t", "1e-3", "--out-dir", str(tmp_path)]) == 2
        # verify solves no V of its own, so it takes neither --potential nor --a
        assert main(["verify", "--potential", "affine:", "--out-dir", str(tmp_path)]) == 2
        assert main(["verify", "--a", "0", "--out-dir", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_tolerance_flag_and_key_are_2(self, tmp_path, capsys):
        # the stated tolerances are fixed: neither a flag nor a config key sets them
        code = main(["solve", "--potential", "affine:", "--a", "0", "--t", "1",
                     "--N", "64", "--tol-res", "1e-6", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--tol-res" in capsys.readouterr().err
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"tol-res": 1e-6}))
        code = main(["verify", "--config", str(cfile), "--N", "64", "--n-t", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown config key 'tol-res'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, t", [("--t", "inf")])
    def test_non_finite_value_is_2(self, tmp_path, capsys, flag, t):
        code = main(["sensitivity", "--potential", "affine:", "--a", "0", "--t", t,
                     "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"usage error: {flag}: expected" in capsys.readouterr().err

    def test_non_finite_t_range_is_2(self, tmp_path, capsys):
        # a usage error naming the flag, not a numerical failure of the sweep
        code = main(["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:inf:5",
                     "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "usage error: --t-range: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["sensitivity", "--potential", "affine:", "--a", "0", "--t", "1", "--N", "16"],
         "--N: need at least 17 interior nodes, got 16"),
        (["verify", "--N", "64", "--n-t", "4"], "--n-t: need at least 5 sweep samples"),
        (["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:2:4"],
         "--t-range: need at least 5 samples, got 4"),
        ([], "missing mode (choose from solve, sensitivity, sweep, verify)"),
        (["sweep", "--potential", "affine:", "--a", "0", "--t-range", "1:2"],
         "--t-range: expected min:max:count, got '1:2'"),
        (["sweep", "--potential", "affine:", "--a", "0", "--t-range", "1:2:x"],
         "--t-range: malformed component in '1:2:x'"),
        (["solve", "--potential", "affine:", "--a", "0", "--t", "1", "--format", ","],
         "--format: empty format list"),
        (["sweep", "--potential", "affine:", "--a", "1", "--t-range", "0.5:2:5"],
         "sweep: need a < t_min, got a=1.0, t_min=0.5"),
        (["solve", "--potential", "affine:", "--a", "0", "--t", "abc"],
         "--t: expected a finite real number, got 'abc'"),
        (["solve", "--potential", "affine:", "--a", "xyz", "--t", "1"],
         "--a: expected a real number or -inf, got 'xyz'"),
    ])
    def test_input_below_its_limit_is_2(self, tmp_path, monkeypatch, capsys, args, message):
        # the limits are the solver's own: MIN_INTERIOR nodes and one more for
        # the FD oracle's step, MIN_ENDPOINTS samples.  The out-dir comes from
        # the environment, since a flag needs a mode
        monkeypatch.setenv("EIGENSHIFT_OUT_DIR", str(tmp_path))
        assert main(args) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows, message", [
        ("0,1\n", "tabulated potential needs two 1-d arrays of equal length >= 2"),
        ("0,1\n0,2\n", "tabulated abscissae must be strictly increasing"),
        ("0,1\n1,inf\n", "tabulated potential values must be finite"),
        ("0,0\n1e-310,1\n1,0\n", "tabulated potential has a slope that overflows a double"),
    ], ids=["one_row", "not_increasing", "not_finite", "slope_overflows"])
    def test_bad_table_file_names_it(self, tmp_path, capsys, rows, message):
        path = tmp_path / "v.csv"
        path.write_text("x,V\n" + rows)
        assert main(["solve", "--potential", f"tabulated:file={path}", "--a", "0", "--t", "1",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {path}: {message}"]
        assert not (tmp_path / "out").exists()

    def test_input_at_its_limit_parses(self, tmp_path):
        cfg = parse_config(["sweep", "--potential", "affine:", "--a", "0",
                            "--t-range", "0.5:2:5", "--N", "17"])
        assert cfg.N == 17 and cfg.t_range[2] == 5
        assert parse_config(["verify", "--n-t", "5"]).n_t == 5
        # and runs: a one-cell FD step leaves MIN_INTERIOR nodes, so the
        # step guard passes
        assert main(["sensitivity", "--potential", "affine:", "--a", "0", "--t", "1",
                     "--N", "17", "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("args, line", [
        # e^{-5000 x} overflows on every probe left of t = -4.2
        (["solve", "--potential", "exp_growth:rate=-5000", "--a", "-inf", "--t", "-4.2",
          "--N", "64"], "V is not finite on any probe left of t = -4.2"),
        # confinement on a half-line is read exactly off the family's
        # parameters: -1e-40 x^2 - x falls to -inf
        (["solve", "--potential", "quadratic:c2=-1e-40,c1=-1", "--a", "-inf", "--t", "0",
          "--N", "64"], "V does not tend to +infinity as x -> -infinity; "
                        "no ground state on a half-infinite domain"),
        # the FD oracle's scale is a scaled norm: the rows of e^{-90 x} on
        # (-inf, -4) reach 1e165, and overflow nowhere
        (["sensitivity", "--potential", "exp_growth:rate=-90", "--a", "-inf", "--t", "-4",
          "--N", "801"], "lambda's rounding swamps its curvature on this grid: "
                         "the FD step inf leaves under 16 nodes at t - m h"),
        # 2/h^2 overflows: h^2 is 0, or inf is added to V = 0
        (["solve", "--potential", "affine", "--a", "0", "--t", "1e-160", "--N", "64"],
         "grid spacing h = 1.53846e-162 is too small: 2/h^2 overflows"),
        (["solve", "--potential", "affine", "--a", "0", "--t", "1e-300", "--N", "64"],
         "grid spacing h = 1.53846e-302 is too small: 2/h^2 overflows"),
        (["solve", "--potential", "affine", "--a", "0", "--t", "1e-155", "--N", "64"],
         "grid spacing h = 1.53846e-157 is too small: 2/h^2 overflows"),
        (["sweep", "--potential", "affine", "--a", "0", "--t-range", "1e-300:2e-300:5",
          "--N", "64"], "sweep failed at t=1e-300: grid spacing h = 1.53846e-302 is too "
                        "small: 2/h^2 overflows"),
        # the wall probe of e^{1e300 |x|} is a few subnormals wide
        (["solve", "--potential", "exp_growth:amp=1,rate=-1e300", "--a", "-inf", "--t", "0",
          "--N", "64"], "grid spacing h = 1.4822e-323 is too small: 2/h^2 overflows"),
        # t - a overflows a double, so h is inf before any node is placed
        (["solve", "--potential", "affine", "--a", "-1e308", "--t", "1e308", "--N", "64"],
         "interval length 1e+308 - (-1e+308) overflows a double"),
        (["sweep", "--potential", "affine", "--a", "-1e308", "--t-range", "1e308:1.5e308:5",
          "--N", "64"], "sweep failed at t=1e+308: interval length 1e+308 - (-1e+308) "
                        "overflows a double"),
        # x^2 overflows on the grid: reported once, with no numpy warning
        (["sensitivity", "--potential", "quadratic:c2=1", "--a", "-1e300", "--t", "1e300",
          "--N", "64"], "potential is not finite on the working grid"),
        # lambda_dot u ~ t^-3.5 overflows u_dot's source
        (["sensitivity", "--potential", "affine", "--a", "0", "--t", "1e-90", "--N", "64"],
         "grid spacing h = 1.53846e-92 is too small: u_dot's source "
         "lambda_dot u + u_x(t) / h^2 overflows"),
        # lambda_ddot = 6 pi^2 / t^4 is past the float range
        (["sensitivity", "--potential", "affine", "--a", "0", "--t", "1e-80", "--N", "64"],
         "lambda_ddot = inf is not finite on this interval"),
    ], ids=["infinite_left_of_t", "falls_past_1e40", "rounding_swamps_curvature",
            "h2_is_zero", "h2_is_zero_at_1e-300", "2_over_h2_is_inf", "sweep_h2_is_zero",
            "probe_h2_is_zero", "length_overflows", "sweep_length_overflows",
            "V_overflows_on_the_grid", "u_dot_source_overflows",
            "lambda_ddot_overflows"])
    def test_error_is_1_with_one_line(self, tmp_path, capsys, args, line):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("t", ["1e-50", "1e-60", "1e-70"])
    def test_short_free_interval_scales_its_sensitivity(self, tmp_path, capsys, t):
        # the free particle is scale-free: lambda_ddot(t) = t^-4 lambda_ddot(1)
        # at the same N.  The bordered solve's residual norms are scaled, so
        # entries past 1e154 no longer turn its gate to nan
        def lambda_ddot_at(t):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["sensitivity", "--potential", "affine", "--a", "0", "--t", t,
                             "--N", "64", "--format", "json", "--out-dir", str(tmp_path)])
            assert code == 0 and [str(w.message) for w in caught] == []
            assert capsys.readouterr().err == ""
            return json.loads((tmp_path / "sensitivity.json").read_text())["lambda_ddot"]

        scale = float(t) ** -4
        assert lambda_ddot_at(t) == pytest.approx(scale * lambda_ddot_at("1"), rel=1e-13)

    def test_diagonal_spanning_the_double_range_solves_silently(self, tmp_path, capsys):
        # V runs from -1e308 to 1e308, so d - sigma overflows on the right
        # rows; those pivots are beyond the double range and decouple
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--potential", "affine:c1=1e307", "--a", "-10", "--t", "10",
                         "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 0 and [str(w.message) for w in caught] == []
        out = capsys.readouterr()
        assert out.err == ""
        lam = float(re.search(r"^lambda = (\S+)$", out.out, re.MULTILINE)[1])
        # the ground state sits on the first node, at V(-10 + h), h = 20 / 65
        assert lam == pytest.approx(1e307 * (-10.0 + 20.0 / 65.0), rel=1e-14)

    def test_knots_closer_than_a_cell_keep_the_routes_together(self, tmp_path, capsys):
        # nine knots within 0.004 share one cell of the N = 2001 grid
        table = tmp_path / "fine_knots.csv"
        rows = (f"{x!r},{abs(x) + 5.0 * max(x - 0.2, 0.0)!r}\n"
                for x in [-2.0, *np.linspace(0.2, 0.204, 9).tolist(), 2.0])
        table.write_text("x,V\n" + "".join(rows))
        assert main(["sensitivity", "--potential", f"tabulated:file={table}", "--a", "-2",
                     "--t", "1.5", "--N", "2001", "--out-dir", str(tmp_path / "out")]) == 0
        out = dict(re.findall(r"^(\w+) = (\S+)$", capsys.readouterr().out, re.MULTILINE))
        flux, integral = float(out["lambda_dot_flux"]), float(out["lambda_dot_integral"])
        assert abs(flux - integral) <= 1e-5 * (1 + abs(flux))

    @pytest.mark.parametrize("args", [
        ["solve", "--potential", "affine:", "--a", "0", "--t", "1", "--N", str(10 ** 17)],
        ["sweep", "--potential", "affine:", "--a", "0", "--t-range", f"1:2:{10 ** 17}"],
    ], ids=["N", "sweep_count"])
    def test_array_too_large_to_allocate_is_1(self, tmp_path, capsys, args):
        # 8e17 bytes exceed every 64-bit address space, 57-bit ones included,
        # so the allocation fails at once and touches no memory
        assert main(args + ["--out-dir", str(tmp_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "allocate" in line, line

    @pytest.mark.parametrize("args, value", [
        (["solve", "--potential", "affine:", "--a", "0", "--t", "1", "--N", "9" * 20],
         repr("9" * 20)),
        (["sweep", "--potential", "affine:", "--a", "0", "--t-range", "1:2:" + "9" * 20],
         "9" * 20),
        (["verify", "--n-t", "9" * 20], repr("9" * 20)),
    ], ids=["N", "sweep_count", "n_t"])
    def test_size_numpy_cannot_index_is_2(self, tmp_path, capsys, args, value):
        # past np.iinfo(np.intp).max // 8 float64 entries numpy raises a
        # ValueError instead of a MemoryError; the reader names the flag
        most = np.iinfo(np.intp).max // 8 - 2
        assert main(args + ["--out-dir", str(tmp_path)]) == 2
        flag = args[-2]
        assert capsys.readouterr().err == f"usage error: {flag}: need at most {most}, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_size_numpy_cannot_index_is_2(self, tmp_path, capsys):
        cfile = tmp_path / "big.json"
        cfile.write_text('{"N": 1e300}')
        assert main(["solve", "--config", str(cfile), "--potential", "affine:", "--a", "0",
                     "--t", "1", "--out-dir", str(tmp_path)]) == 2
        most = np.iinfo(np.intp).max // 8 - 2
        assert capsys.readouterr().err == f"usage error: --N: need at most {most}, got 1e+300\n"
        assert list(tmp_path.iterdir()) == [cfile]

    def test_n_32001_calls_hold_their_working_set(self, tmp_path, working_set):
        # the traced peak above main's entry, in N-vectors of 8 N bytes, of
        # each N-sized call: its numerics, then the column writer
        N, peaks = 32001, {}
        for mode, formats in (("solve", "csv,json,plot"), ("sensitivity", "csv,json")):
            def run(n):
                return main([mode, "--potential", "quadratic:c2=1", "--a", "-inf", "--t", "0.2",
                             "--N", str(n), "--format", formats, "--out-dir", str(tmp_path)])

            assert run(64) == 0   # first-call set-up is not counted
            code, peaks[mode] = working_set(lambda: run(N), N)
            assert code == 0
        assert peaks["solve"] <= 9.7 and peaks["sensitivity"] <= 9.4, peaks

    def test_zero_amplitude_exponential_solves_as_v_zero(self, tmp_path, capsys):
        # exp(-x) overflows near a = -1000, where amp = 0 made V nan, not 0
        lams = []
        for pot in ("exp_growth:amp=0,rate=-1", "affine:"):
            out = tmp_path / pot.partition(":")[0]
            assert main(["solve", "--potential", pot, "--a", "-1000", "--t", "0",
                         "--N", "64", "--out-dir", str(out)]) == 0
            assert capsys.readouterr().err == ""
            lams.append(json.loads((out / "ground_state.json").read_text())["lambda"])
        assert lams[0] == lams[1]

    def test_table_ending_at_t_is_0(self, tmp_path, capsys):
        # sensitivity reads V on the grid only; the FD oracle's longer step
        # at N = 4001, which needs V beyond the table, belongs to verify
        table = tmp_path / "t.csv"
        table.write_text("x,V\n0,1\n0.5,0\n1,1\n")
        args = ["sensitivity", "--potential", f"tabulated:file={table}", "--a", "0",
                "--t", "1", "--out-dir", str(tmp_path / "s")]
        for N in ("801", "4001"):
            assert main(args + ["--N", N]) == 0
            assert capsys.readouterr().err == ""

    def test_unwritable_out_dir_is_1(self, tmp_path, capsys):
        # a file where the out-dir or its parent should be, and a directory
        # where an artifact should be: one error line naming the path.  A
        # plot file that cannot be opened leaves no header-only CSV behind
        afile = tmp_path / "F"
        afile.write_text("")
        (tmp_path / "d" / "ground_state.csv").mkdir(parents=True)
        (tmp_path / "p" / "u_vs_x.dat").mkdir(parents=True)
        for out, path, extra in (
                (afile, afile, []), (afile / "sub", afile / "sub", []),
                (tmp_path / "d", tmp_path / "d" / "ground_state.csv", []),
                (tmp_path / "p", tmp_path / "p" / "u_vs_x.dat", ["--format", "csv,plot"])):
            assert main(["solve", "--potential", "affine:", "--a", "0", "--t", "1",
                         "--N", "64", "--out-dir", str(out)] + extra) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(path) in captured.err
        assert [p.name for p in (tmp_path / "p").iterdir()] == ["u_vs_x.dat"]

    def test_solver_failure_is_1(self, tmp_path, capsys):
        # unconfined potential on a half-infinite domain
        code = main(["solve", "--potential", "neg_quadratic:scale=1", "--a", "-inf",
                     "--t", "1", "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_failed_sweep_verdict_is_1(self, tmp_path, capsys):
        # the endpoints span 300 decades at N = 64, so lambda(t) is not
        # resolved as decreasing; the artifacts are written all the same
        code = main(["sweep", "--potential", "affine:", "--a", "0",
                     "--t-range", "0.5:1e308:5", "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "ok = False"
        assert "monotone_decreasing = False" in captured.out.splitlines()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "verdict.json"]
        assert json.loads((tmp_path / "verdict.json").read_text())["ok"] is False

    def test_readme_sweep_is_0(self, tmp_path, capsys):
        code = main(["sweep", "--potential", "quadratic:c2=1", "--a", "-inf",
                     "--t-range", "-1:2:31", "--N", "2001", "--out-dir", str(tmp_path / "w")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "ok = True"
        assert captured.err == ""
        # the same values from a config file write the same bytes
        cfile = tmp_path / "w.json"
        cfile.write_text(json.dumps({"potential": "quadratic:c2=1", "a": "-inf",
                                     "t-range": "-1:2:31", "N": 2001,
                                     "out-dir": str(tmp_path / "wc")}))
        assert main(["sweep", "--config", str(cfile)]) == 0
        for name in ("sweep.csv", "verdict.json"):
            assert (tmp_path / "wc" / name).read_bytes() == (tmp_path / "w" / name).read_bytes()

    def test_readme_verify_is_0(self, tmp_path, capsys):
        # the battery at the README size gates the a = -inf wall and the FD
        # oracle at a second N
        assert main(["verify", "--N", "2001", "--n-t", "31", "--format", "json",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "verify.json").read_text())["failed"] == 0

    def test_sweep_classifies_the_solved_domain(self, tmp_path, capsys):
        # the wall lands at -15.5, so the kink at -8 lies in the solved domain
        code = main(["sweep", "--potential", "neg_abs:slope=2,amp=1,shift=-8",
                     "--a", "-inf", "--t-range", "0.5:2.5:11", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("(V class: concave)")
        assert "expect_convex = False" in out and "expect_concave = True" in out
        assert json.loads((tmp_path / "verdict.json").read_text())["a_eff"] < -8.0

    def test_half_line_with_a_long_length_scale(self, tmp_path):
        # V = -1e-6 x has an Airy length of 100: lambda = 1e-4 (-a_1 - 2).
        # A width-4 probe saturated near pi^2/16 and put the wall at -617761,
        # so h = 309 and lambda came out 1.293e-4; the box bound sizes the
        # probe by V's own length scale
        code = main(["solve", "--potential", "affine:c1=-1e-6", "--a", "-inf",
                     "--t", "200", "--N", "2001", "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "ground_state.json").read_text())
        assert meta["lambda"] == pytest.approx(1e-4 * (2.338107410459767 - 2.0), rel=1e-4)

    @pytest.mark.parametrize("pot, t, exact", [
        ("affine:c1=-1e300", "0", 1e200 * 2.338107410459767),
        ("quadratic:c2=1e300", "1e-100", 3e150),
    ], ids=["airy_length_1e-100", "oscillator_length_1e-75"])
    def test_half_line_with_a_short_length_scale(self, tmp_path, pot, t, exact):
        # A probe that kept width 4 for a V finite there put the wall about
        # 0.02 left of t, 2e98 and 2e73 of V's length scales, and lambda came
        # out 9.94e294 and 9.88e289; the box bound sizes the probe by V
        code = main(["solve", "--potential", pot, "--a", "-inf", "--t", t,
                     "--N", "2001", "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "ground_state.json").read_text())
        assert meta["lambda"] == pytest.approx(exact, rel=1e-4)

    def test_solve_success_is_0(self, tmp_path, capsys):
        code = main(["solve", "--potential", "affine:", "--a", "0", "--t", "1",
                     "--N", "301", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ground_state.csv").exists()
        assert (tmp_path / "ground_state.json").exists()
        out = capsys.readouterr().out
        assert "lambda" in out


class TestArtifacts:
    def test_solve_csv_header_and_metadata(self, tmp_path):
        main(["solve", "--potential", "affine:", "--a", "0", "--t", "1",
              "--N", "301", "--out-dir", str(tmp_path), "--format", "csv,json,plot"])
        lines = (tmp_path / "ground_state.csv").read_text().splitlines()
        assert lines[0] == "x,u" and len(lines) == 1 + 303
        meta = json.loads((tmp_path / "ground_state.json").read_text())
        assert meta["N"] == 301 and meta["t"] == 1.0
        plot = (tmp_path / "u_vs_x.dat").read_text().splitlines()
        assert len(plot) == 303 and " " in plot[0] and "," not in plot[0]

    def test_sensitivity_artifacts(self, tmp_path):
        code = main(["sensitivity", "--potential", "affine:", "--a", "0",
                     "--t", "1", "--N", "301", "--out-dir", str(tmp_path)])
        assert code == 0
        sens = json.loads((tmp_path / "sensitivity.json").read_text())
        assert set(sens) == {"t", "lambda", "lambda_dot_flux", "lambda_dot_integral",
                             "lambda_ddot", "t0", "orth_residual"}
        lines = (tmp_path / "u_dot.csv").read_text().splitlines()
        assert lines[0] == "x,u_dot"

    @pytest.mark.parametrize("mode", ["solve", "sensitivity"])
    @pytest.mark.parametrize("pot, a, t", [
        ("quadratic:c2=1", "-inf", "0"),
        # a kink inside the grid, where the V' quadrature splits a cell
        ("abs_shift:shift=0.3", "-inf", "1"),
        ("abs_shift:shift=0.3", "-2", "1"),
        # u_dot's lobe near t lies under 1e-9 of the field's maximum, and its
        # sign change is still counted
        ("exp_growth:amp=1,rate=3", "0", "3"),
    ], ids=["smooth", "kink_half_line", "kink_interval", "faint_lobe"])
    def test_stdout_values_are_plain_floats(self, tmp_path, capsys, mode, pot, a, t):
        code = main([mode, "--potential", pot, "--a", a, "--t", t, "--N", "801",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "np." not in out
        pairs = [item.split(" = ") for line in out.splitlines() for item in line.split(", ")]
        assert len(pairs) >= 5 and all(len(pair) == 2 for pair in pairs)
        for _key, value in pairs:
            float(value)

    def test_sweep_artifacts(self, tmp_path):
        code = main(["sweep", "--potential", "affine:", "--a", "0",
                     "--t-range", "0.5:2:7", "--N", "301",
                     "--out-dir", str(tmp_path), "--format", "csv,json,plot"])
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["monotone_decreasing"] is True
        assert (tmp_path / "lambda_vs_t.dat").exists()

    def test_sweep_csv_bytes(self, tmp_path):
        # every value in "%.16e"; the curvature cell is blank on the first and
        # last rows, where no second difference exists
        code = main(["sweep", "--potential", "quadratic:c2=1", "--a", "-inf",
                     "--t-range", "-0.5:1.5:7", "--N", "301", "--format", "csv",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        res = sweep(make_potential("quadratic", c2=1.0), float("-inf"), -0.5, 1.5, 7, 301)
        sds = [None, *res.second_diffs, None]
        rows = [["%.16e" % t, "%.16e" % lam, "%.16e" % ld, "" if sd is None else "%.16e" % sd]
                for t, lam, ld, sd in zip(res.ts, res.lambdas, res.lambda_dots, sds)]
        text = (tmp_path / "sweep.csv").read_text()
        assert text == "t,lambda,lambda_dot,second_diff\n" + "".join(
            ",".join(row) + "\n" for row in rows)
        lines = text.splitlines()
        assert len(lines) == 8 and lines[1].endswith(",") and lines[-1].endswith(",")

    def test_tabulated_potential_end_to_end(self, tmp_path):
        table = tmp_path / "well.csv"
        table.write_text("x,V\n0,0.3\n0.3,0\n1,0.7\n")
        code = main(["solve", "--potential", f"tabulated:file={table}",
                     "--a", "0", "--t", "1", "--N", "301",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "ground_state.json").read_text())
        assert meta["lambda"] > 0

    def test_double_well_sweep_is_neither_convex_nor_concave(self, tmp_path, capsys):
        # negative control: a double well is not convex, so its lambda(t) must
        # come out neither convex nor concave, and the verdict, which expects
        # no curvature for that class, still ok; a curvature check that
        # always passes fails here
        table = tmp_path / "dw.csv"
        table.write_text("x,V\n-3,40\n-1.5,0\n-0.5,6\n0.5,6\n1.5,0\n4,40\n")
        code = main(["sweep", "--potential", f"tabulated:file={table}", "--a", "-3",
                     "--t-range", "-0.2:3:81", "--N", "2001",
                     "--out-dir", str(tmp_path / "dw")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("convex_in_t = False", "concave_in_t = False", "ok = True"):
            assert line in lines

    def test_verify_coarse_smoke(self, tmp_path):
        code = main(["verify", "--N", "64", "--n-t", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "verify_report.txt").read_text()
        assert "[PASS]" in report and "FAIL" not in report.replace("0 failed", "")
        assert "widened" in report


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        args = ["sweep", "--potential", "quadratic:c2=1", "--a", "-inf",
                "--t-range", "-0.5:1.5:7", "--N", "301", "--format", "csv,json,plot"]
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the CLI tunes glibc's malloc only; "
                    "with another libc there is nothing to measure")
def test_repeated_large_call_faults_in_no_new_memory(tmp_path):
    # with glibc's default thresholds every freed O(N) temporary of an
    # N = 32001 call goes back to the kernel, and the next call in the same
    # process faults it in again: over 3,000 minor faults per call.  BLAS is
    # pinned to one thread so that no worker thread's first touch counts.
    code = """
import contextlib, io, resource, sys
from eigenshift.cli import main
argv = ["sensitivity", "--potential", "quadratic:c2=1", "--a", "-inf", "--t", "0",
        "--N", "32001", "--out-dir", sys.argv[1]]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 200
