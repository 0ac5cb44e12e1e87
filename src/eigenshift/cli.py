"""Command-line front end: solve / sensitivity / sweep / verify.

Configuration comes from flags, optionally seeded by a flat JSON config file
whose keys mirror the flag names; explicit flags win.  Each value flag is
declared once, as a row of the ``_FLAGS`` table, which drives the parser,
the config keys, the value readers and the required checks.

This module owns every artifact; the numerical modules return values and
payload dicts and write no file.  Column data (CSV / plot files) is fixed
17-digit scientific notation, formatted by ``_row_blocks``, a numpy kernel
that writes the characters of ``"%.16e" % v`` and hands the values it
cannot decide (zeros, non-finite values, extreme magnitudes, near-ties, a
``log10`` that rounds across a power of ten, a rounding that carries into
an 18th digit) to that exact per-value call, a block of rows at a time.
Every field's suffix word ends in a comma; the last field of a row swaps
it for a newline.  ``_write_columns`` opens every CSV and plot file and
writes each block as it comes, to the CSV file and, with spaces for commas,
to its plot file.
``write_json`` writes every JSON payload, with shortest round-trip floats.
So identical configs produce byte-identical artifacts.

The numerical tolerances are the package's stated ones (``tolerances.py``);
no flag or config key changes them.

``main`` first sets glibc's malloc thresholds (``_keep_freed_heap``), so a
call reuses the memory the call before it freed instead of faulting it in.

Exit codes: 0 success, 1 numerical/convergence failure (for ``sweep``, also
a verdict that is not ok), an artifact or array that cannot be made, 2
usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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


# every integer read sizes an array: numpy indexes float64 grids of this + 2
_MAX_INT = np.iinfo(np.intp).max // 8 - 2


def _parse_int(value, flag: str) -> int:
    try:
        # a JSON config hands over bools and floats, which int() would truncate
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        n = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag}: expected an integer, got {value!r}") from None
    if n > _MAX_INT:
        raise UsageError(f"{flag}: need at most {_MAX_INT}, got {value!r}")
    return n


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
    return lo, hi, _parse_int(count, flag)


def _parse_formats(value, flag: str) -> tuple:
    items = tuple(s.strip() for s in str(value).split(",") if s.strip())
    for item in items:
        if item not in FORMATS:
            raise UsageError(f"{flag}: unknown format {item!r} (choose from {','.join(FORMATS)})")
    if not items:
        raise UsageError(f"{flag}: empty format list")
    return items


def _parse_path(value, flag: str) -> Path:
    # a JSON config may hand over a number, which Path() would not take
    if not isinstance(value, str):
        raise UsageError(f"{flag}: expected a path, got {value!r}")
    return Path(value)


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
    required: bool      # whether its modes fail without it
    field: str          # the RunConfig field it sets
    read: Callable      # (value, "--name") -> the field's value
    help: str = None


# Every value flag, declared once, in reading order: the first bad value is reported.
_FLAGS = (
    _Flag("potential", _SOLVED, True, "spec", lambda v, flag: parse_potential(str(v)),
          "family:key=value,... e.g. quadratic:c2=1"),
    _Flag("a", _SOLVED, True, "a", functools.partial(_parse_real, neg_inf=True),
          "left endpoint (number or -inf)"),
    _Flag("t", _AT_T, True, "t", _parse_real, "right endpoint"),
    _Flag("t-range", ("sweep",), True, "t_range", _parse_t_range, "min:max:count"),
    # one node more than a solve needs, so the FD oracle's one-cell step fits
    _Flag("N", MODES, False, "N", _checked(_parse_int, lambda n: n > MIN_INTERIOR,
          f"need at least {MIN_INTERIOR + 1} interior nodes, got {{}}"), "interior grid nodes"),
    _Flag("n-t", ("verify",), False, "n_t", _checked(_parse_int, lambda n: n >= MIN_ENDPOINTS,
          f"need at least {MIN_ENDPOINTS} sweep samples"), "sweep samples per battery entry"),
    _Flag("out-dir", MODES, False, "out_dir", _parse_path),
    _Flag("format", MODES, False, "formats", _parse_formats, "comma list of csv,json,plot"),
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
        for flag in _FLAGS:
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
        if flag.required and cfg.mode in flag.modes and getattr(cfg, flag.field) is None:
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
# Those values, values whose 17 digits come out of [_D_LO, _D_HI) (log10
# rounded across a power of ten, or rounding carried into an 18th digit),
# zeros, non-finite values and |v| outside the range go to the exact
# per-value "%.16e" % v (_exact_fields), as in Grisu3 (Loitsch, PLDI 2010):
# one fast path that detects what it cannot decide, and one exact fallback.
# The range keeps every partial product of the split normal.
#
# Each field is laid out in four little-endian 64-bit words, _FILL where a
# byte is unused: a prefix word (fill, sign, lead digit, '.') from
# _prefix_words, two words of eight digits each from _digit_words, and a
# suffix word ('e', exponent sign, 2-3 digits, then a comma) from
# _suffix_words.  The last field of each row turns that comma into a
# newline.  The fill bytes are removed once.
_VEC_MIN, _VEC_MAX = 1e-280, 1e280
_E_LO, _E_HI = -283, 282          # decimal exponents the kernel may try
_TIE_BAND = 1e-9
_SPLIT = 134217729.0              # 2^27 + 1
_BLOCK = 8192                     # values per block, bounding the temporaries
_FIELD = 29                       # bytes of a field before its end bytes
_FILL = b"\0"                     # filler byte, removed before writing
_D_LO, _D_HI = 10 ** 16, 10 ** 17
_WORD = np.dtype("<u8")
_U = np.uint64                    # explicit, so no numpy version promotes to float


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


@functools.cache
def _prefix_words() -> np.ndarray:
    """The prefix word for lead digit d, at d for v >= 0 and at 10 + d for
    v < 0.  Built on first use."""
    return np.frombuffer(b"".join(
        _FILL * 5 + sign + b"%d." % d for sign in (_FILL, b"-") for d in range(10)
    ), _WORD)


@functools.cache
def _suffix_words() -> np.ndarray:
    """The suffix word for exponent e, at e - _E_LO, whose last byte is a
    comma, past the bytes that _exact_fields rewrites.  Built on first use."""
    return np.frombuffer(b"".join(
        (b"e%+03d" % e).ljust(_WORD.itemsize - 1, _FILL) + b","
        for e in range(_E_LO, _E_HI + 1)
    ), _WORD)


def _digit_words(y) -> np.ndarray:
    """Eight ASCII digits per word of ``y`` (each < 10^8), first digit in the
    low byte, in place.

    Branch-free SWAR: (x << s) - q ((m << s) - 1) = ((x - m q) << s) + q puts
    the quotient q = x // m in the low lane and the remainder above it, so
    one 32-bit lane pair becomes two 4-digit lanes, then four 2-digit 16-bit
    lanes, then eight bytes; // 100 and // 10 are * 5243 >> 19 and
    * 103 >> 10, exact on those lanes.
    """
    q = y // _U(10 ** 4)
    y <<= _U(32)
    q *= _U((10 ** 4 << 32) - 1)
    y -= q
    np.multiply(y, _U(5243), out=q)
    q >>= _U(19)
    q &= _U(0x0000007F0000007F)
    y <<= _U(16)
    q *= _U((100 << 16) - 1)
    y -= q
    np.multiply(y, _U(103), out=q)
    q >>= _U(10)
    q &= _U(0x000F000F000F000F)
    y <<= _U(8)
    q *= _U((10 << 8) - 1)
    y -= q
    y |= _U(0x3030303030303030)
    return y


def _scaled(a, e, work) -> tuple:
    """floor(a * 10^(16 - e)) as int64 and the fraction left over (a = |v|).

    The operations run in place in ``work`` (eight float rows and two int64
    rows, at least a.size columns), and both results are rows of it.
    """
    flt, ints = work
    hi, lo, hi_h, hi_l, a_h, a_l, p, err = flt[:, :a.size]
    d, k = ints[:, :a.size]
    np.subtract(_E_HI, e, out=k)
    for col, out in zip(_pow10_table(), (hi, lo, hi_h, hi_l)):
        col.take(k, out=out, mode="clip")   # k is in range; "raise" would buffer
    np.multiply(_SPLIT, a, out=err)         # c
    np.subtract(err, a, out=a_h)
    np.subtract(err, a_h, out=a_h)          # a_h = c - (c - a)
    np.subtract(a, a_h, out=a_l)
    np.multiply(a, hi, out=p)
    # err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    np.multiply(a_h, hi_h, out=err)
    err -= p
    a_h *= hi_l
    err += a_h
    hi_h *= a_l
    err += hi_h
    hi_l *= a_l
    err += hi_l
    # r = (p - whole) + (err + a * lo), whole = floor(p)
    np.floor(p, out=hi)
    np.copyto(d, hi, casting="unsafe")
    p -= hi
    lo *= a
    err += lo
    p += err
    np.floor(p, out=hi)                     # r_whole
    np.copyto(k, hi, casting="unsafe")
    d += k
    p -= hi
    return d, p


def _exact_fields(values) -> np.ndarray:
    """``"%.16e" % v`` for each value, as rows of _FIELD bytes padded with
    _FILL."""
    text = "".join(("%.16e" % v).ljust(_FIELD, "\0") for v in values.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FIELD)


def _format_block(v, k, work) -> bytearray:
    """Rows of one block: ``v`` is the block's values row by row, ``k`` to a
    row; ``work`` is ``_scaled``'s workspace."""
    a = np.abs(v)
    fast = (a >= _VEC_MIN) & (a <= _VEC_MAX)
    a = np.where(fast, a, 1.0)   # a stand-in; the arbiter rewrites these rows
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e, work)
    fast &= (d >= _D_LO) & (d < _D_HI)   # else log10 rounded across a power of ten
    d += frac > 0.5
    fast &= d < _D_HI                    # else rounding carried into an 18th digit

    buf = bytearray(v.size * 4 * _WORD.itemsize)
    out = np.frombuffer(buf, _WORD).reshape(v.size, 4)
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    d = d.view(_U)
    halves = np.empty((2, v.size), _U)   # the 16 digits after the lead one
    np.floor_divide(d, _U(10 ** 8), out=halves[0])
    np.multiply(halves[0], _U(10 ** 8), out=halves[1])
    np.subtract(d, halves[1], out=halves[1])
    out[:, 1], out[:, 2] = _digit_words(halves)
    lead += np.signbit(v) * 10
    # a row the arbiter rewrites may have a lead digit outside the table
    out[:, 0] = _prefix_words().take(lead, mode="clip")
    out[:, 3] = _suffix_words().take(e - _E_LO)
    out.view(np.uint8).reshape(-1, k, 4 * _WORD.itemsize)[:, -1, -1] = ord("\n")

    exact = np.flatnonzero(~fast | (np.abs(frac - 0.5) < _TIE_BAND))
    if exact.size:
        out.view(np.uint8)[exact, :_FIELD] = _exact_fields(v[exact])
    return buf.translate(None, _FILL)


def _row_blocks(*cols):
    """Equal-length columns as CSV rows in ASCII bytes, a block of about
    _BLOCK values (whole rows) at a time: each value in %.16e, a comma
    between values, a newline after every row.

    The characters are those of ``"%.16e" % v``, which equals
    ``f"{v:.16e}"``, nan and infinities included.  Every field is built in
    four 64-bit words (see the comment above _pow10_table), the comma in
    the last of them, a newline in place of the comma on each row's last
    field, and the filler bytes are removed once.  The few values the kernel
    cannot decide are formatted one by one by _exact_fields, the exact
    arbiter.
    """
    n, k = len(cols[0]), len(cols)
    rows = max(_BLOCK // k, 1)
    m = min(rows, n) * k
    work = np.empty((8, m)), np.empty((2, m), np.int64)
    for r in range(0, n, rows):
        block = np.column_stack([c[r:r + rows] for c in cols]).astype(np.float64, copy=False)
        yield _format_block(block.ravel(), k, work)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a trailing newline, in one
    write: ``json.dump`` would stream it in thousands of small chunks."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(payload, indent=2) + "\n").encode())


def _write_columns(cfg: RunConfig, blocks, csv_name: str = None, header: str = None,
                   plot_name: str = None) -> None:
    """Write the CSV rows of ``blocks`` (from ``_row_blocks``) to the files
    of this call that ``cfg.formats`` asks for: ``csv_name`` under
    ``header``, and ``plot_name`` with spaces for commas.  Each block is
    formatted once and written to both as it comes, so neither file is ever
    held whole in memory.  Every file is opened before any is written, and
    when one cannot be opened those opened before it are removed."""
    with contextlib.ExitStack() as stack:
        files = []   # (file, whether it is the plot file)
        for name, plot in ((csv_name, False), (plot_name, True)):
            if name and ("plot" if plot else "csv") in cfg.formats:
                try:
                    files.append((stack.enter_context(open(cfg.out_dir / name, "wb")), plot))
                except OSError:
                    stack.close()
                    for fh, _ in files:
                        os.remove(fh.name)
                    raise
        if not files:
            return
        for fh, plot in files:
            if not plot:
                fh.write(header.encode() + b"\n")
        for block in blocks:
            for fh, plot in files:
                # %.16e never emits a comma, so the plot rows are the CSV rows re-separated
                fh.write(block.replace(b",", b" ") if plot else block)


def _run_solve(cfg: RunConfig) -> int:
    gs = solve_ground_state(cfg.spec, Domain(cfg.a, cfg.t), cfg.N)
    x, u, meta = gs.grid.x, gs.u, ground_state_metadata(gs)
    del gs   # frees its operator for the writer
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_columns(cfg, _row_blocks(x, u), "ground_state.csv", "x,u", "u_vs_x.dat")
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "ground_state.json", meta)
    print(f"lambda = {meta['lambda']!r}")
    print(f"flux_a = {meta['flux_a']!r}, flux_t = {meta['flux_t']!r}")
    print(f"residual = {meta['residual']:.3e}, a_eff = {meta['a_eff']!r}")
    return 0


def _run_sensitivity(cfg: RunConfig) -> int:
    gs = solve_ground_state(cfg.spec, Domain(cfg.a, cfg.t), cfg.N)
    sens = compute_sensitivity(gs, cfg.spec)
    x = gs.grid.x
    del gs   # frees its u and operator for the writer
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    meta = sensitivity_metadata(sens)
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "sensitivity.json", meta)
    _write_columns(cfg, _row_blocks(x, sens.u_dot), "u_dot.csv", "x,u_dot",
                   "u_dot_vs_x.dat")
    for key, val in meta.items():
        print(f"{key} = {val!r}")
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    lo, hi, count = cfg.t_range
    result = sweep(cfg.spec, cfg.a, lo, hi, count, cfg.N)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    # a nan curvature cell is left blank, as on the end rows, which have no
    # second difference
    sd = np.concatenate(([math.nan], result.second_diffs, [math.nan]))
    rows = _row_blocks(result.ts, result.lambdas, result.lambda_dots, sd)
    _write_columns(cfg, (block.replace(b",nan\n", b",\n") for block in rows),
                   "sweep.csv", "t,lambda,lambda_dot,second_diff")
    if "json" in cfg.formats:
        write_json(cfg.out_dir / "verdict.json", verdict_metadata(result))
    for name, ts, ys in (("lambda_vs_t.dat", result.ts, result.lambdas),
                         ("lambda_dot_vs_t.dat", result.ts, result.lambda_dots),
                         ("second_diff_vs_t.dat", result.ts[1:-1], result.second_diffs)):
        _write_columns(cfg, _row_blocks(ts, ys), plot_name=name)
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
    (cfg.out_dir / "verify_report.txt").write_bytes(text.encode())
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


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc's malloc keep freed memory for the next call to reuse.

    glibc's default, dynamic thresholds hand every freed O(N) temporary of
    an N = 32001 call (256 KiB and up) back to the kernel, and the next call
    faults it in again.  Setting both thresholds turns that rule off; one
    alone faults more than the default, so the trim threshold is set only
    once the mmap threshold (32 MiB, its 64-bit maximum) is accepted.
    Only the CLI sets them: a library caller's allocator is left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list = None) -> int:
    _keep_freed_heap()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        return _RUNNERS[cfg.mode](cfg)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # OSError: an artifact it cannot write; MemoryError: arrays it cannot allocate
    except (EigenshiftError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
