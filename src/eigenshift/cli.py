"""Command-line front end: solve / sensitivity / sweep / verify.

Configuration comes from flags, optionally seeded by a flat JSON config file
whose keys mirror the flag names; explicit flags win.  Each value flag is
declared once, as a row of the ``_FLAGS`` table, which drives the parser,
the config keys, the value readers and the required checks.

This module owns every artifact; the numerical modules return values and
payload dicts and write no file.  Column data (CSV / plot files) is fixed
17-digit scientific notation, formatted once per file set by ``_format_rows``,
a numpy kernel that writes the characters of ``"%.16e" % v`` and hands the
values it cannot decide (zeros, non-finite values, extreme magnitudes,
near-ties) to that exact per-value call; ``write_columns`` writes the rows,
and a CSV file and its plot file share one formatting pass.  ``write_json``
writes every JSON payload, with shortest round-trip floats.  So identical
configs produce byte-identical artifacts.

The numerical tolerances are the package's stated ones (``tolerances.py``);
no flag or config key changes them.

Exit codes: 0 success, 1 numerical/convergence failure (for ``sweep``, also
a verdict that is not ok), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import EigenshiftError, UsageError
from .ground_state import MIN_INTERIOR, Domain, ground_state_metadata, solve_ground_state
from .potentials import PotentialSpec, parse_potential
from .sensitivity import compute_sensitivity, sensitivity_metadata
from .sweep import MIN_ENDPOINTS, sweep, verdict_metadata
from .verify import run_battery

MODES = ("solve", "sensitivity", "sweep", "verify")
FORMATS = ("csv", "json", "plot")
_SOLVED = ("solve", "sensitivity", "sweep")    # the modes that solve one V
_AT_T = ("solve", "sensitivity")


@dataclass
class RunConfig:
    mode: str
    spec: PotentialSpec = None
    a: float = None
    t: float = None
    t_range: tuple = None          # (t_min, t_max, count)
    N: int = 2001
    n_t: int = 31
    h_t: float = None
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get("EIGENSHIFT_OUT_DIR", ".")))
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


def _parse_t_range(value, flag: str) -> tuple:
    text = str(value)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: expected min:max:count, got {text!r}")
    lo, hi = _parse_real(parts[0], flag), _parse_real(parts[1], flag)
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"{flag}: malformed component in {text!r}") from None
    if not lo < hi:
        raise UsageError(f"{flag}: need t_min < t_max, got {text!r}")
    if count < MIN_ENDPOINTS:
        raise UsageError(f"{flag}: need at least {MIN_ENDPOINTS} samples, got {count}")
    return lo, hi, count


def _parse_formats(value, flag: str) -> tuple:
    items = tuple(s.strip() for s in str(value).split(",") if s.strip())
    for item in items:
        if item not in FORMATS:
            raise UsageError(f"{flag}: unknown format {item!r} (choose from {','.join(FORMATS)})")
    if not items:
        raise UsageError(f"{flag}: empty format list")
    return items


def _checked(read, ok, message: str):
    """``read``, then a bound: a value x failing ``ok`` is the usage error
    ``{flag}: message.format(x)``."""
    def reader(value, flag: str):
        x = read(value, flag)
        if not ok(x):
            raise UsageError(f"{flag}: " + message.format(x))
        return x
    return reader


class _Flag(NamedTuple):
    name: str           # the flag without its dashes, and the config key
    modes: tuple        # the modes that take the flag
    required: tuple     # the modes that fail without it
    field: str          # the RunConfig field it sets
    read: Callable      # (value, "--name") -> the field's value
    help: str = None


# Every value flag, declared once, in reading order: the first bad value is reported.
_FLAGS = (
    _Flag("potential", MODES, _SOLVED, "spec", lambda v, flag: parse_potential(str(v)),
          "family:key=value,... e.g. quadratic:c2=1"),
    _Flag("a", MODES, _SOLVED, "a", functools.partial(_parse_real, neg_inf=True),
          "left endpoint (number or -inf)"),
    _Flag("t", _AT_T, _AT_T, "t", _parse_real, "right endpoint"),
    _Flag("t-range", ("sweep",), ("sweep",), "t_range", _parse_t_range, "min:max:count"),
    _Flag("N", MODES, (), "N", _checked(_parse_int, lambda n: n >= MIN_INTERIOR,
          f"need at least {MIN_INTERIOR} interior nodes, got {{}}"), "interior grid nodes"),
    _Flag("n-t", ("verify",), (), "n_t", _checked(_parse_int, lambda n: n >= MIN_ENDPOINTS,
          f"need at least {MIN_ENDPOINTS} sweep samples"), "sweep samples per battery entry"),
    _Flag("h-t", ("sensitivity",), (), "h_t", _checked(_parse_real, lambda h: h > 0,
          "the FD step must be positive"), "FD oracle step, snapped to whole cells"),
    _Flag("out-dir", MODES, (), "out_dir", lambda v, flag: Path(v)),
    _Flag("format", MODES, (), "formats", _parse_formats, "comma list of csv,json,plot"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each ``parse_args`` call
    fills a fresh namespace, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="eigenshift",
        description="Dirichlet ground states on (a,t) and the energy curve "
                    "over the moving right endpoint",
    )
    sub = parser.add_subparsers(dest="mode")
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="flat JSON config file; flags override")
        # --help lists the flags every mode takes first (the sort is stable)
        for flag in sorted(_FLAGS, key=lambda f: f.modes != MODES):
            if mode in flag.modes:
                p.add_argument("--" + flag.name, help=flag.help)
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
        if not any(flag.name == key for flag in _FLAGS):
            raise UsageError(f"unknown config key {key!r}")
    return data


_VALUE_FLAGS = {"--config"} | {"--" + flag.name for flag in _FLAGS}


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
    UsageError naming the offending token.  A config key is read and checked
    even in a mode whose command line does not take its flag.
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
    for flag in _FLAGS:
        value = getattr(ns, flag.name.replace("-", "_"), None)   # argparse's dest
        if value is None:
            value = config.get(flag.name)
        if value is not None:
            setattr(cfg, flag.field, flag.read(value, "--" + flag.name))
    for flag in _FLAGS:
        if cfg.mode in flag.required and getattr(cfg, flag.field) is None:
            raise UsageError(f"{cfg.mode}: --{flag.name} is required")
    if cfg.mode in _AT_T and not cfg.a < cfg.t:
        raise UsageError(f"{cfg.mode}: need a < t, got a={cfg.a}, t={cfg.t}")
    if cfg.mode == "sweep" and not cfg.a < cfg.t_range[0]:
        raise UsageError(f"sweep: need a < t_min, got a={cfg.a}, t_min={cfg.t_range[0]}")
    return cfg


# %.16e columns.  A value v with _VEC_MIN <= |v| <= _VEC_MAX is printed from
# X = |v| * 10^(16 - e), e = floor(log10 |v|), formed as a double-double by
# Dekker's error-free product (Numer. Math. 18, 1971) against 10^p stored as a
# (hi, lo) pair: X is good to about 1e-14 absolute, so its nearest integer,
# the 17 printed digits, is decided unless X lies within _TIE_BAND of a half.
# Those values, zeros, non-finite values and |v| outside the range go to the
# exact per-value "%.16e" % v (_exact_fields), as in Grisu3 (Loitsch, PLDI
# 2010).  The range keeps every partial product of the split normal.
_VEC_MIN, _VEC_MAX = 1e-280, 1e280
_E_LO, _E_HI = -283, 282          # decimal exponents the kernel may try
_TIE_BAND = 1e-9
_SPLIT = 134217729.0              # 2^27 + 1
_BLOCK = 8192                     # values per block, bounding the temporaries
_FIELD = 24                       # longest %.16e field: -d.dddddddddddddddde-ddd
_FILL = 0                         # filler byte, removed before decoding
_D_LO, _D_HI = 10 ** 16, 10 ** 17


@functools.cache
def _pow10_table() -> tuple:
    """hi, lo, and the Dekker halves of hi, for 10^p with p = 16 - e.

    hi is 10^p correctly rounded and lo the rounded remainder, both from
    exact integer arithmetic (int / int is correctly rounded).  Built on
    first use.
    """
    his, los = [], []
    for p in range(16 - _E_HI, 16 - _E_LO + 1):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            den = 10 ** -p
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (den * two)
        his.append(hi)
        los.append(lo)
    hi, lo = np.array(his), np.array(los)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, lo, hi_h, hi - hi_h


def _scaled(a, e) -> tuple:
    """floor(a * 10^(16 - e)) as int64 and the fraction left over (a = |v|)."""
    hi, lo, hi_h, hi_l = (col[_E_HI - e] for col in _pow10_table())
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * hi
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    whole = np.floor(p)
    r = (p - whole) + (err + a * lo)
    r_whole = np.floor(r)
    return whole.astype(np.int64) + r_whole.astype(np.int64), r - r_whole


def _exact_fields(values) -> np.ndarray:
    """``"%.16e" % v`` for each value, as rows of _FIELD bytes padded with
    _FILL."""
    text = "".join(("%.16e" % v).ljust(_FIELD, "\0") for v in values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FIELD)


def _format_block(v, ends) -> bytes:
    """Rows of one block: ``v`` is the block's values row by row and ``ends``
    the bytes after each field (separator or newline), one row per value."""
    a = np.abs(v)
    fast = (a >= _VEC_MIN) & (a <= _VEC_MAX)
    a = np.where(fast, a, 1.0)   # a stand-in; the arbiter rewrites these rows
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e)
    off = np.flatnonzero((d < _D_LO) | (d >= _D_HI))
    if off.size:   # log10 rounded across a power of ten
        e[off] += np.where(d[off] >= _D_HI, 1, -1)
        d[off], frac[off] = _scaled(a[off], e[off])
    d += frac > 0.5
    carry = d == _D_HI
    d[carry] = _D_LO
    e += carry

    out = np.empty((v.size, _FIELD + ends.shape[1]), np.uint8)
    out[:, _FIELD:] = ends
    out[:, 0] = np.where(np.signbit(v), ord("-"), _FILL)
    for col in range(18, 2, -1):
        q = d // 10
        out[:, col] = d - q * 10 + 48
        d = q
    out[:, 1] = d + 48
    out[:, 2] = ord(".")
    out[:, 19] = ord("e")
    out[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    three = e >= 100
    h, e = e // 100 + 48, e % 100
    t, o = e // 10 + 48, e % 10 + 48
    out[:, 21] = np.where(three, h, t)
    out[:, 22] = np.where(three, t, o)
    out[:, 23] = np.where(three, o, _FILL)

    exact = np.flatnonzero(~fast | (np.abs(frac - 0.5) < _TIE_BAND))
    if exact.size:
        out[exact, :_FIELD] = _exact_fields(v[exact])
    flat = out.ravel()
    return flat[flat != _FILL].tobytes()


def _format_rows(*cols, sep: str = ",") -> str:
    """Equal-length columns as text rows: each value in %.16e, ``sep`` between
    values, a newline after every row.

    The characters are those of ``"%.16e" % v``, which equals
    ``f"{v:.16e}"``, nan and infinities included.  Values are printed by a
    numpy kernel, a block of about _BLOCK values at a time: every field is
    laid out in a fixed-width uint8 row (sign, digit, '.', 16 digits, 'e',
    exponent sign, 2-3 exponent digits, then ``sep`` or a newline) and the
    filler bytes are removed once.  The few values the kernel cannot decide
    (see the comment above _pow10_table) are formatted one by one by
    _exact_fields, the exact arbiter.
    """
    sep = sep.encode()
    if b"\0" in sep:
        raise ValueError("sep must not contain NUL")
    table = np.column_stack(cols).astype(np.float64, copy=False)
    n, k = table.shape
    ends = np.full((k, max(len(sep), 1)), _FILL, np.uint8)
    ends[:-1, :len(sep)] = np.frombuffer(sep, np.uint8)
    ends[-1, 0] = ord("\n")
    rows = max(_BLOCK // k, 1)
    ends = np.tile(ends, (rows, 1))
    return b"".join(
        _format_block(block.ravel(), ends[:block.size])
        for block in (table[r:r + rows] for r in range(0, n, rows))
    ).decode()


def write_columns(path, rows: str, header: str = None) -> None:
    """Write rows from ``_format_rows``, or a report, under an optional header."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write(rows)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a trailing newline, in one
    write: ``json.dump`` would stream it in thousands of small chunks."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


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
    meta = ground_state_metadata(gs)
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "ground_state.json", meta)
    print(f"lambda = {meta['lambda']!r}")
    print(f"flux_a = {meta['flux_a']!r}, flux_t = {meta['flux_t']!r}")
    print(f"residual = {meta['residual']:.3e}, a_eff = {meta['a_eff']!r}")
    return 0


def _run_sensitivity(cfg: RunConfig) -> int:
    gs = solve_ground_state(cfg.spec, Domain(cfg.a, cfg.t), cfg.N)
    sens = compute_sensitivity(gs, cfg.spec, h_t=cfg.h_t)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    meta = sensitivity_metadata(sens)
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "sensitivity.json", meta)
    _write_profile(cfg, "u_dot.csv", "u_dot_vs_x.dat", "x,u_dot", gs.grid.x, sens.u_dot)
    for key, val in meta.items():
        print(f"{key} = {val!r}")
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    lo, hi, count = cfg.t_range
    result = sweep(cfg.spec, cfg.a, lo, hi, count, cfg.N)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        # a nan curvature cell is left blank, as on the end rows, which have no
        # second difference
        sd = np.concatenate(([math.nan], result.second_diffs, [math.nan]))
        rows = _format_rows(result.ts, result.lambdas, result.lambda_dots, sd)
        write_columns(cfg.out_dir / "sweep.csv", rows.replace(",nan\n", ",\n"),
                      header="t,lambda,lambda_dot,second_diff")
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "verdict.json", verdict_metadata(result))
    if "plot" in cfg.formats:
        for name, ts, ys in (("lambda_vs_t.dat", result.ts, result.lambdas),
                             ("lambda_dot_vs_t.dat", result.ts, result.lambda_dots),
                             ("second_diff_vs_t.dat", result.ts[1:-1], result.second_diffs)):
            write_columns(cfg.out_dir / name, _format_rows(ts, ys, sep=" "))
    print(f"swept {count} endpoints in [{lo}, {hi}] (V class: {result.convexity.value})")
    for key, val in result.verdict().items():
        print(f"{key} = {val}")
    if not result.ok:
        print("error: sweep verdict is not ok: lambda(t) fails a check the "
              "theorem expects it to pass", file=sys.stderr)
        return 1
    return 0


def _run_verify(cfg: RunConfig) -> int:
    report = run_battery(N=cfg.N, n_t=cfg.n_t)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    text = report.render()
    write_columns(cfg.out_dir / "verify_report.txt", text)
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "verify.json", report.to_json())
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
        return _RUNNERS[cfg.mode](cfg)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EigenshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
