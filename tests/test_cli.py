import json
import re
from pathlib import Path

import numpy as np
import pytest

from eigenshift.cli import _FLAGS, main, parse_config
from eigenshift.errors import UsageError
from eigenshift.ground_state import Domain, solve_ground_state
from eigenshift.potentials import canonical_string, make_potential
from eigenshift.sweep import sweep


# (mode, config key, a JSON value, the same value as flag text)
KEY_CASES = [
    ("solve", "potential", "quadratic:c0=0,c2=1", "quadratic:c0=0,c2=1"),
    ("solve", "a", "-inf", "-inf"),
    ("solve", "t", 2.0, "2"),
    ("sweep", "t-range", "-1:2:31", "-1:2:31"),
    ("solve", "N", 64, "64"),
    ("verify", "n-t", 7, "7"),
    ("sensitivity", "h-t", 1e-3, "1e-3"),
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
                             "--t", "1", "--h-t", "1e-3", "--N", "301", "--format", "json"])
        assert (sens.t, sens.h_t, sens.N, sens.formats) == (1.0, 1e-3, 301, ("json",))
        swept = parse_config(["sweep", "--potential", "affine:", "--a", "0",
                              "--t-range", "0.5:2:5"])
        assert swept.mode == "sweep" and swept.t_range == (0.5, 2.0, 5)
        assert (swept.t, swept.h_t, swept.N, swept.formats) == (None, None, 2001, ("csv", "json"))
        again = parse_config(["sensitivity", "--potential", "affine:", "--a", "0", "--t", "2"])
        assert (again.t, again.h_t, again.t_range, again.N) == (2.0, None, None, 2001)
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
        assert canonical_string(cfg1.spec) == canonical_string(cfg2.spec)


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "a": 0.0,
                                     "t": 1.0, "N": 64}))
        cfg = parse_config(["solve", "--config", str(cfile), "--N", "128"])
        assert cfg.N == 128 and cfg.t == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "grid": 10}))
        with pytest.raises(UsageError, match="grid"):
            parse_config(["solve", "--config", str(cfile), "--a", "0", "--t", "1"])

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
        ("h-t", True, "--h-t"),
        ("h-t", float("nan"), "--h-t"),
        ("h-t", float("inf"), "--h-t"),
    ])
    def test_non_integral_or_boolean_value_rejected(self, tmp_path, key, value, flag):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"potential": "affine:", "a": 0.0, "t": 1.0,
                                     key: value}))
        # named as a malformed value, not as a truncated one that is too small
        with pytest.raises(UsageError, match=f"{flag}: expected"):
            parse_config(["verify", "--config", str(cfile)])

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
        (["sensitivity", "--potential", "affine:", "--a", "0", "--t", "1", "--h-t", "-1e-3"],
         None, "--h-t: the FD step must be positive"),
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
        ("solve", ["--t"]),
        ("sensitivity", ["--t", "--h-t"]),
        ("sweep", ["--t-range"]),
        ("verify", ["--n-t"]),
    ])
    def test_help_lists_the_flags_of_its_mode(self, capsys, mode, own):
        assert main([mode, "--help"]) == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == ["--config", "--potential", "--a", "--N", "--out-dir",
                          "--format", *own]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["solve", "--potential", "nope:", "--a", "0", "--t", "1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_2(self, capsys):
        assert main(["solve", "--wibble", "3"]) == 2

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

    @pytest.mark.parametrize("flag, t, h_t", [("--t", "inf", "1e-3"),
                                              ("--h-t", "1", "nan")])
    def test_non_finite_value_is_2(self, tmp_path, capsys, flag, t, h_t):
        code = main(["sensitivity", "--potential", "affine:", "--a", "0", "--t", t,
                     "--h-t", h_t, "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"usage error: {flag}: expected" in capsys.readouterr().err

    def test_non_finite_t_range_is_2(self, tmp_path, capsys):
        # a usage error naming the flag, not a numerical failure of the sweep
        code = main(["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:inf:5",
                     "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "usage error: --t-range: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["solve", "--potential", "affine:", "--a", "0", "--t", "1", "--N", "15"],
         "--N: need at least 16 interior nodes, got 15"),
        (["verify", "--N", "64", "--n-t", "4"], "--n-t: need at least 5 sweep samples"),
        (["sweep", "--potential", "affine:", "--a", "0", "--t-range", "0.5:2:4"],
         "--t-range: need at least 5 samples, got 4"),
    ])
    def test_input_below_its_limit_is_2(self, tmp_path, capsys, args, message):
        # the limits are the solver's own: MIN_INTERIOR nodes, MIN_ENDPOINTS samples
        assert main(args + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_input_at_its_limit_parses(self):
        cfg = parse_config(["sweep", "--potential", "affine:", "--a", "0",
                            "--t-range", "0.5:2:5", "--N", "16"])
        assert cfg.N == 16 and cfg.t_range[2] == 5
        assert parse_config(["verify", "--n-t", "5"]).n_t == 5

    def test_potential_infinite_left_of_t_is_1(self, tmp_path, capsys):
        # e^{-5000 x} overflows on every probe left of t = -4.2
        code = main(["solve", "--potential", "exp_growth:rate=-5000", "--a", "-inf",
                     "--t", "-4.2", "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: V is not finite on any probe left of t = -4.2"]

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
                     "--t-range", "-1:2:31", "--N", "2001", "--out-dir", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "ok = True"
        assert captured.err == ""

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
        # so h = 309 and lambda came out 1.293e-4; the probe now widens until
        # it holds its turning point
        code = main(["solve", "--potential", "affine:c1=-1e-6", "--a", "-inf",
                     "--t", "200", "--N", "2001", "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "ground_state.json").read_text())
        assert meta["lambda"] == pytest.approx(1e-4 * (2.338107410459767 - 2.0), rel=1e-4)

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
                             "lambda_ddot", "lambda_dot_fd", "lambda_ddot_fd",
                             "fd_step", "t0", "orth_residual"}
        lines = (tmp_path / "u_dot.csv").read_text().splitlines()
        assert lines[0] == "x,u_dot"

    def test_fd_step_is_recorded_in_whole_cells(self, tmp_path, capsys):
        # a step far below the spacing snaps to one cell, and says so
        code = main(["sensitivity", "--potential", "quadratic:c2=1", "--a", "-inf",
                     "--t", "0", "--N", "2001", "--h-t", "1e-6", "--out-dir", str(tmp_path)])
        assert code == 0
        h = solve_ground_state(make_potential("quadratic", c2=1.0),
                               Domain(float("-inf"), 0.0), 2001).grid.h
        sens = json.loads((tmp_path / "sensitivity.json").read_text())
        assert sens["fd_step"] == h
        assert f"fd_step = {h!r}" in capsys.readouterr().out.splitlines()

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
