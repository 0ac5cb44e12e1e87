"""Command-line front end: solve / sensitivity / sweep / verify.

Configuration comes from flags, optionally seeded by a flat JSON config file
whose keys mirror the flag names; explicit flags win.  All file output uses
fixed 17-digit scientific notation (CSV / plot data) or shortest round-trip
floats (JSON), so identical configs produce byte-identical artifacts.  Column
data is formatted once per call by ``ground_state._format_rows``, a numpy
kernel that writes the characters of ``"%.16e" % v`` and hands the values it
cannot decide (zeros, non-finite values, extreme magnitudes, near-ties) to
that exact per-value call.  ``write_columns`` writes the rows; a CSV file and
its plot file share that one formatting pass.

The numerical tolerances are the package's stated ones (``tolerances.py``);
no flag or config key changes them.

Exit codes: 0 success, 1 numerical/convergence failure (for ``sweep``, also
a verdict that is not ok), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EigenshiftError, UsageError
from .ground_state import (
    Domain,
    _format_rows,
    ground_state_metadata,
    solve_ground_state,
    write_columns,
    write_ground_state_json,
)
from .potentials import PotentialSpec, canonical_string, parse_potential
from .sensitivity import (
    compute_sensitivity,
    sensitivity_metadata,
    write_sensitivity_json,
)
from .sweep import check_theorem, sweep, write_sweep_csv, write_verdict_json
from .verify import run_battery

MODES = ("solve", "sensitivity", "sweep", "verify")
FORMATS = ("csv", "json", "plot")

_CONFIG_KEYS = {
    "potential", "a", "t", "t-range", "N", "h-t", "out-dir", "format", "n-t",
}


@dataclass
class RunConfig:
    mode: str
    potential: str = ""
    spec: PotentialSpec = None
    a: float = None
    t: float = None
    t_range: tuple = None          # (t_min, t_max, count)
    N: int = 2001
    n_t: int = 31
    h_t: float = None
    out_dir: Path = field(default_factory=Path)
    formats: tuple = ("csv", "json")


def _parse_real(value, flag: str, neg_inf: bool = False) -> float:
    """A finite real from a flag string or a config value; ``neg_inf`` also
    admits -inf (the half-infinite left endpoint)."""
    want = "a real number or -inf" if neg_inf else "a finite real number"
    try:
        # a JSON config hands over bools, which float() would read as 0 or 1
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) or (neg_inf and x == -math.inf)):
        raise UsageError(f"{flag}: expected {want}, got {value!r}")
    return x


def _parse_int(value, flag: str) -> int:
    # a JSON config hands over bools and floats, which int() would truncate
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{flag}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag}: expected an integer, got {value!r}") from None


def _parse_t_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--t-range: expected min:max:count, got {text!r}")
    lo, hi = _parse_real(parts[0], "--t-range"), _parse_real(parts[1], "--t-range")
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"--t-range: malformed component in {text!r}") from None
    if not lo < hi:
        raise UsageError(f"--t-range: need t_min < t_max, got {text!r}")
    if count < 5:
        raise UsageError(f"--t-range: need at least 5 samples, got {count}")
    return lo, hi, count


def _parse_formats(text: str) -> tuple:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    for item in items:
        if item not in FORMATS:
            raise UsageError(f"--format: unknown format {item!r} (choose from {','.join(FORMATS)})")
    if not items:
        raise UsageError("--format: empty format list")
    return items


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenshift",
        description="Dirichlet ground states on (a,t) and the energy curve "
                    "over the moving right endpoint",
    )
    sub = parser.add_subparsers(dest="mode")
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="flat JSON config file; flags override")
        p.add_argument("--potential", default=None,
                       help="family:key=value,... e.g. quadratic:c2=1")
        p.add_argument("--a", default=None, help="left endpoint (number or -inf)")
        p.add_argument("--N", default=None, help="interior grid nodes")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--format", default=None, help="comma list of csv,json,plot")
        if mode in ("solve", "sensitivity"):
            p.add_argument("--t", default=None, help="right endpoint")
        if mode == "sensitivity":
            p.add_argument("--h-t", default=None, help="FD step for the oracle")
        if mode == "sweep":
            p.add_argument("--t-range", default=None, help="min:max:count")
        if mode == "verify":
            p.add_argument("--n-t", default=None, help="sweep samples per battery entry")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a flat JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    return data


def _merged(flag_value, config: dict, key: str):
    if flag_value is not None:
        return flag_value
    return config.get(key)


_VALUE_FLAGS = {"--config"} | {"--" + k for k in _CONFIG_KEYS}


def _join_values(argv: list) -> list:
    """Merge ``--flag value`` into ``--flag=value`` so values may start with '-'."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_config(argv: list) -> RunConfig:
    """Parse CLI arguments (and an optional config file) into a RunConfig.

    Flags override config-file keys; unknown keys and malformed values raise
    UsageError naming the offending token.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_values(argv))
    except SystemExit as exc:
        # argparse already printed a message; normalize to UsageError for
        # unknown flags, but let --help exit cleanly
        if exc.code == 0:
            raise
        raise UsageError("malformed command line") from None
    if ns.mode is None:
        raise UsageError(f"missing mode (choose from {', '.join(MODES)})")

    config = _load_config_file(ns.config) if ns.config else {}
    cfg = RunConfig(mode=ns.mode)

    pot = _merged(ns.potential, config, "potential")
    if pot is not None:
        cfg.spec = parse_potential(str(pot))
        cfg.potential = canonical_string(cfg.spec)

    a = _merged(ns.a, config, "a")
    if a is not None:
        cfg.a = _parse_real(a, "--a", neg_inf=True)

    t = _merged(getattr(ns, "t", None), config, "t")
    if t is not None:
        cfg.t = _parse_real(t, "--t")

    t_range = _merged(getattr(ns, "t_range", None), config, "t-range")
    if t_range is not None:
        cfg.t_range = _parse_t_range(str(t_range))

    n = _merged(ns.N, config, "N")
    if n is not None:
        cfg.N = _parse_int(n, "--N")
        if cfg.N < 16:
            raise UsageError(f"--N: need at least 16 interior nodes, got {cfg.N}")

    n_t = _merged(getattr(ns, "n_t", None), config, "n-t")
    if n_t is not None:
        cfg.n_t = _parse_int(n_t, "--n-t")
        if cfg.n_t < 5:
            raise UsageError("--n-t: need at least 5 sweep samples")

    h_t = _merged(getattr(ns, "h_t", None), config, "h-t")
    if h_t is not None:
        cfg.h_t = _parse_real(h_t, "--h-t")
        if cfg.h_t <= 0:
            raise UsageError("--h-t: the FD step must be positive")

    out_dir = _merged(ns.out_dir, config, "out-dir")
    if out_dir is None:
        out_dir = os.environ.get("EIGENSHIFT_OUT_DIR", ".")
    cfg.out_dir = Path(out_dir)

    fmt = _merged(ns.format, config, "format")
    if fmt is not None:
        cfg.formats = _parse_formats(str(fmt))

    _validate_mode_fields(cfg)
    return cfg


def _validate_mode_fields(cfg: RunConfig) -> None:
    if cfg.mode in ("solve", "sensitivity", "sweep"):
        if cfg.spec is None:
            raise UsageError(f"{cfg.mode}: --potential is required")
        if cfg.a is None:
            raise UsageError(f"{cfg.mode}: --a is required")
    if cfg.mode in ("solve", "sensitivity"):
        if cfg.t is None:
            raise UsageError(f"{cfg.mode}: --t is required")
        if not cfg.a < cfg.t:
            raise UsageError(f"{cfg.mode}: need a < t, got a={cfg.a}, t={cfg.t}")
    if cfg.mode == "sweep":
        if cfg.t_range is None:
            raise UsageError("sweep: --t-range is required")
        if not cfg.a < cfg.t_range[0]:
            raise UsageError(f"sweep: need a < t_min, got a={cfg.a}, t_min={cfg.t_range[0]}")


def _write_profile(cfg: RunConfig, csv_name: str, plot_name: str, header: str,
                   x, y) -> None:
    """Write (x, y) as a CSV file and/or a plot file, formatting the rows once."""
    want_csv, want_plot = "csv" in cfg.formats, "plot" in cfg.formats
    if not (want_csv or want_plot):
        return
    rows = _format_rows(x, y)
    if want_csv:
        write_columns(cfg.out_dir / csv_name, rows, header=header)
    if want_plot:
        # %.16e never emits a comma, so the plot rows are the CSV rows re-separated
        write_columns(cfg.out_dir / plot_name, rows.replace(",", " "))


def _run_solve(cfg: RunConfig) -> int:
    gs = solve_ground_state(cfg.spec, Domain(cfg.a, cfg.t), cfg.N)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_profile(cfg, "ground_state.csv", "u_vs_x.dat", "x,u", gs.grid.x, gs.u)
    if "json" in cfg.formats:
        write_ground_state_json(gs, cfg.out_dir / "ground_state.json")
    meta = ground_state_metadata(gs)
    print(f"lambda = {meta['lambda']!r}")
    print(f"flux_a = {meta['flux_a']!r}, flux_t = {meta['flux_t']!r}")
    print(f"residual = {meta['residual']:.3e}, a_eff = {meta['a_eff']!r}")
    return 0


def _run_sensitivity(cfg: RunConfig) -> int:
    gs = solve_ground_state(cfg.spec, Domain(cfg.a, cfg.t), cfg.N)
    sens = compute_sensitivity(gs, cfg.spec, h_t=cfg.h_t)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        write_sensitivity_json(sens, cfg.out_dir / "sensitivity.json")
    _write_profile(cfg, "u_dot.csv", "u_dot_vs_x.dat", "x,u_dot", gs.grid.x, sens.u_dot)
    for key, val in sensitivity_metadata(sens).items():
        print(f"{key} = {val!r}")
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    lo, hi, count = cfg.t_range
    result = sweep(cfg.spec, cfg.a, lo, hi, count, cfg.N)
    verdict = check_theorem(result, cfg.spec)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        write_sweep_csv(result, cfg.out_dir / "sweep.csv")
    if "json" in cfg.formats:
        write_verdict_json(result, cfg.out_dir / "verdict.json", verdict)
    if "plot" in cfg.formats:
        for name, ts, ys in (("lambda_vs_t.dat", result.ts, result.lambdas),
                             ("lambda_dot_vs_t.dat", result.ts, result.lambda_dots),
                             ("second_diff_vs_t.dat", result.ts[1:-1], result.second_diffs)):
            write_columns(cfg.out_dir / name, _format_rows(ts, ys, sep=" "))
    print(f"swept {count} endpoints in [{lo}, {hi}] (V class: {verdict.convexity.value})")
    for key, val in verdict.as_dict().items():
        print(f"{key} = {val}")
    if not verdict.ok:
        print("error: sweep verdict is not ok: lambda(t) fails a check the "
              "theorem expects it to pass", file=sys.stderr)
        return 1
    return 0


def _run_verify(cfg: RunConfig) -> int:
    report = run_battery(N=cfg.N, n_t=cfg.n_t)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    text = report.render()
    (cfg.out_dir / "verify_report.txt").write_text(text)
    if "json" in cfg.formats:
        with open(cfg.out_dir / "verify.json", "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    print(text, end="")
    return 0 if report.ok else 1


_RUNNERS = {
    "solve": _run_solve,
    "sensitivity": _run_sensitivity,
    "sweep": _run_sweep,
    "verify": _run_verify,
}


def main(argv: list = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _RUNNERS[cfg.mode](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EigenshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
