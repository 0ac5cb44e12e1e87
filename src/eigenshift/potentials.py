"""Evaluable potential families V with derivatives and exact convexity classes.

Each family is piecewise-C1 so that V' can be evaluated pointwise (left-derivative
convention at kinks).  Supported families:

    affine         c0 + c1*x
    quadratic      c0 + c1*x + c2*x**2
    abs_shift      |x - shift|
    exp_growth     amp * exp(rate*x)
    neg_quadratic  -scale * x**2
    neg_abs        -slope*x - amp*|x - shift|
    tabulated      piecewise-linear interpolation of a strictly increasing table

The ``neg_abs`` family is the piecewise-linear concave potential; with
slope > amp > 0 it grows at -infinity and is the standard concave test case on
a half-infinite domain.

Each family is declared once, as a row of ``_FAMILIES``: its parameter
defaults, V, V', the abscissae of its kinks, the sign of its curvature and
the exact rule for V -> +inf as x -> -inf.  ``convexity_on`` gives the exact
convexity class of V on an interval, the hypothesis the theorem asks of the
domain that is solved, and ``validate_confinement`` the exact confinement
verdict on a half-line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import RangeError, UsageError


class ConvexityClass(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    AFFINE = "affine"
    INDETERMINATE = "indeterminate"

    def is_convex(self) -> bool:
        return self in (ConvexityClass.CONVEX, ConvexityClass.AFFINE)

    def is_concave(self) -> bool:
        return self in (ConvexityClass.CONCAVE, ConvexityClass.AFFINE)


@dataclass(frozen=True)
class PotentialSpec:
    """A named potential family with fixed parameters.

    Immutable after construction; all evaluation operations are pure.
    ``table`` is only populated for the tabulated family.
    """

    family: str
    params: dict
    table: Optional[tuple] = field(default=None, repr=False)


class _Family(NamedTuple):
    """One potential family.  Each callable reads p, the spec's parameters
    (for a table, its (xs, vs) pair), and x, a float array."""

    defaults: dict          # parameter keys with their default values
    V: Callable             # (p, x) -> V(x)
    Vprime: Callable        # (p, x, side) -> V'(x), the limit from side at a kink
    kinks: Callable         # p -> the abscissae where V' jumps
    curvature: Callable     # p -> sign of V'' (smooth) or of the slope jump (kinked)
    confined: Callable      # p -> whether V -> +inf as x -> -inf


def _scaled_exp(c, rate, x):
    if c == 0:   # exact zeros, also where exp overflows: 0 * inf is nan
        return np.zeros_like(x)
    with np.errstate(over="ignore"):   # past the double range a value reads as inf
        return c * np.exp(rate * x)


def _abs_slope(y, side: str):
    """d|y|/dy with a one-sided convention at y = 0."""
    s = np.sign(y)
    fill = -1.0 if side == "left" else 1.0
    return np.where(s == 0, fill, s)


def _neg_abs(p, x):
    # each side of the kink as its own line, so slope = amp gives an
    # exactly constant V on the left instead of a cancellation
    slope, amp, shift = p["slope"], p["amp"], p["shift"]
    return np.where(x < shift, (amp - slope) * x - amp * shift,
                    amp * shift - (amp + slope) * x)


def _in_table(table, x) -> tuple:
    tx, tv = table
    if np.any(x < tx[0]) or np.any(x > tx[-1]):
        raise RangeError(f"x outside tabulated range [{tx[0]}, {tx[-1]}]")
    return tx, tv


def _table_slope(table, x, side: str):
    tx, tv = _in_table(table, x)
    slopes = np.diff(tv) / np.diff(tx)
    # left convention takes the segment ending at a node, right convention
    # the one starting there; clip handles the outermost table nodes
    idx = np.searchsorted(tx, x, side=side) - 1
    return slopes[np.clip(idx, 0, len(slopes) - 1)]


def _no_kinks(p):
    return ()


# Every family, declared once.  A table's curvature is read from its slope
# jumps (convexity_on), and a table ends, so V cannot grow to its left.
_FAMILIES = {
    "affine": _Family(
        {"c0": 0.0, "c1": 0.0},
        V=lambda p, x: p["c0"] + p["c1"] * x,
        Vprime=lambda p, x, side: np.full_like(x, p["c1"]),
        kinks=_no_kinks,
        curvature=lambda p: 0.0,
        confined=lambda p: p["c1"] < 0),
    "quadratic": _Family(
        {"c0": 0.0, "c1": 0.0, "c2": 0.0},
        V=lambda p, x: p["c0"] + x * (p["c1"] + p["c2"] * x),
        Vprime=lambda p, x, side: p["c1"] + 2.0 * p["c2"] * x,
        kinks=_no_kinks,
        curvature=lambda p: p["c2"],
        confined=lambda p: p["c2"] > 0 or (p["c2"] == 0 and p["c1"] < 0)),
    "abs_shift": _Family(
        {"shift": 0.0},
        V=lambda p, x: np.abs(x - p["shift"]),
        Vprime=lambda p, x, side: _abs_slope(x - p["shift"], side),
        kinks=lambda p: (p["shift"],),
        curvature=lambda p: 1.0,
        confined=lambda p: True),
    "exp_growth": _Family(
        {"amp": 1.0, "rate": 1.0},
        V=lambda p, x: _scaled_exp(p["amp"], p["rate"], x),
        Vprime=lambda p, x, side: _scaled_exp(p["amp"] * p["rate"], p["rate"], x),
        kinks=_no_kinks,
        curvature=lambda p: p["amp"] if p["rate"] else 0.0,
        confined=lambda p: p["amp"] > 0 and p["rate"] < 0),
    "neg_quadratic": _Family(
        {"scale": 1.0},
        V=lambda p, x: -p["scale"] * x * x,
        Vprime=lambda p, x, side: -2.0 * p["scale"] * x,
        kinks=_no_kinks,
        curvature=lambda p: -p["scale"],
        confined=lambda p: p["scale"] < 0),
    "neg_abs": _Family(
        {"slope": 0.0, "amp": 1.0, "shift": 0.0},
        V=_neg_abs,
        Vprime=lambda p, x, side: -p["slope"] - p["amp"] * _abs_slope(x - p["shift"], side),
        kinks=lambda p: (p["shift"],),
        curvature=lambda p: -p["amp"],
        confined=lambda p: p["slope"] > p["amp"]),
    "tabulated": _Family(
        {},
        V=lambda table, x: np.interp(x, *_in_table(table, x)),
        Vprime=_table_slope,
        kinks=lambda table: table[0][1:-1],
        curvature=None,
        confined=lambda table: False),
}

FAMILIES = tuple(_FAMILIES)


def _row(spec: PotentialSpec) -> tuple:
    """The spec's row of ``_FAMILIES`` and the p its callables read."""
    return _FAMILIES[spec.family], spec.params if spec.table is None else spec.table


def _table_convexity(xs: np.ndarray, vs: np.ndarray) -> ConvexityClass:
    # Classified from the slope jumps of the table itself: the only
    # information a tabulated potential carries.  Jumps inside the rounding
    # floor 64 eps max|V| / min dx, the slope noise of values rounded to
    # eps |V|, count as zero; the floor scales with V, so V -> c V keeps the
    # class.
    with np.errstate(over="ignore"):   # past the double range a value reads as inf
        dslope = np.diff(np.diff(vs) / np.diff(xs))
        tol = 64.0 * np.finfo(float).eps * np.max(np.abs(vs)) / np.min(np.diff(xs))
    up = bool(np.all(dslope >= -tol))
    down = bool(np.all(dslope <= tol))
    if up and down:
        return ConvexityClass.AFFINE
    if up:
        return ConvexityClass.CONVEX
    if down:
        return ConvexityClass.CONCAVE
    return ConvexityClass.INDETERMINATE


def make_potential(family: str, **params) -> PotentialSpec:
    """Construct a PotentialSpec, filling defaulted parameters.

    Raises UsageError for unknown families or parameter keys and for
    parameter values that are not finite.
    """
    if family == "tabulated":
        raise UsageError("use make_tabulated() or parse_potential('tabulated:file=...')")
    if family not in _FAMILIES:
        raise UsageError(f"unknown potential family: {family!r}")
    full = dict(_FAMILIES[family].defaults)
    for key, val in params.items():
        if key not in full:
            raise UsageError(f"unknown parameter {key!r} for family {family!r}")
        full[key] = float(val)
        if not math.isfinite(full[key]):
            raise UsageError(f"parameter {key!r} of family {family!r} must be finite, got {val!r}")
    return PotentialSpec(family, full)


def make_tabulated(xs, vs) -> PotentialSpec:
    """Piecewise-linear potential through (xs, vs); xs must strictly increase."""
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2:
        raise UsageError("tabulated potential needs two 1-d arrays of equal length >= 2")
    if not np.all(np.diff(xs) > 0):
        raise UsageError("tabulated abscissae must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise UsageError("tabulated potential values must be finite")
    with np.errstate(over="ignore"):
        slopes = np.diff(vs) / np.diff(xs)
    if not np.all(np.isfinite(slopes)):
        raise UsageError("tabulated potential has a slope that overflows a double")
    return PotentialSpec(family="tabulated", params={}, table=(xs, vs))


def load_tabulated(path: str) -> PotentialSpec:
    """Load a tabulated potential from a CSV file with header ``x,V``; every
    error names the file."""
    xs, vs = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["x", "V"]:
                raise UsageError(f"{path}: expected CSV header 'x,V'")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise UsageError(f"{path}: line {reader.line_num} needs two fields x,V")
                xs.append(float(row[0]))
                vs.append(float(row[1]))
    except OSError as exc:
        raise UsageError(f"cannot read tabulated potential: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: malformed numeric row ({exc})") from exc
    try:
        return make_tabulated(xs, vs)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None


def parse_potential(text: str) -> PotentialSpec:
    """Parse the CLI grammar ``family:key=value,key=value``.

    Example: ``quadratic:c0=0,c1=0,c2=1``.  Unknown families or keys, keys
    given twice, and malformed or non-finite values raise UsageError naming
    the offending token.
    """
    head, _, rest = text.partition(":")
    family = head.strip()
    if family not in FAMILIES:
        raise UsageError(f"unknown potential family: {family!r}")
    pairs = {}
    if rest.strip():
        for token in rest.split(","):
            key, sep, val = token.partition("=")
            if not sep:
                raise UsageError(f"malformed potential parameter {token!r} (expected key=value)")
            if key.strip() in pairs:
                raise UsageError(f"potential parameter {key.strip()!r} given twice")
            pairs[key.strip()] = val.strip()
    if family == "tabulated":
        path = pairs.pop("file", None)
        if path is None:
            raise UsageError("tabulated potential requires file=<path.csv>")
        if pairs:
            raise UsageError(f"unknown parameter {next(iter(pairs))!r} for family 'tabulated'")
        return load_tabulated(path)
    numeric = {}
    for key, val in pairs.items():
        try:
            numeric[key] = float(val)
        except ValueError:
            raise UsageError(f"malformed value for {key!r}: {val!r}") from None
    return make_potential(family, **numeric)


def eval_V(spec: PotentialSpec, x):
    """Evaluate V(x); accepts a scalar or an ndarray."""
    xs = np.asarray(x, dtype=float)
    row, p = _row(spec)
    out = row.V(p, xs)
    return float(out) if xs.ndim == 0 else out


def eval_Vprime(spec: PotentialSpec, x, side: str = "left"):
    """Evaluate V'(x), taking the one-sided limit from ``side`` ('left' or
    'right') at kinks; the left-derivative convention is the default."""
    xs = np.asarray(x, dtype=float)
    row, p = _row(spec)
    out = row.Vprime(p, xs, side)
    return float(out) if xs.ndim == 0 else out


def vprime_kinks(spec: PotentialSpec) -> np.ndarray:
    """Abscissae where V' jumps (empty for smooth families)."""
    row, p = _row(spec)
    return np.array(row.kinks(p), dtype=float)


def convexity_on(spec: PotentialSpec, lo: float = -math.inf,
                 hi: float = math.inf) -> ConvexityClass:
    """Convexity class of V on [lo, hi], exact for every family; the whole
    line (for a table, the whole table) by default.

    A smooth family's class is the sign of V''.  A kinked family (one with
    a ``vprime_kinks`` entry) is affine on an interval whose interior misses
    the kink, and has the sign of its slope jump otherwise.  A
    tabulated potential is classified from the table segments that meet
    [lo, hi]; RangeError when none does.
    """
    if spec.family == "tabulated":
        xs, vs = spec.table
        first = max(int(np.searchsorted(xs, lo, side="right")) - 1, 0)
        stop = int(np.searchsorted(xs, hi, side="left")) + 1
        if len(xs[first:stop]) < 2:
            raise RangeError(f"[{lo}, {hi}] meets no segment of the tabulated range "
                             f"[{xs[0]}, {xs[-1]}]")
        return _table_convexity(xs[first:stop], vs[first:stop])
    kinks = vprime_kinks(spec)
    if kinks.size and not np.any((lo < kinks) & (kinks < hi)):
        return ConvexityClass.AFFINE
    sign = _FAMILIES[spec.family].curvature(spec.params)
    if sign > 0:
        return ConvexityClass.CONVEX
    return ConvexityClass.CONCAVE if sign < 0 else ConvexityClass.AFFINE


def validate_confinement(spec: PotentialSpec, a: float) -> bool:
    """True iff a is finite, or a = -inf and V -> +inf as x -> -inf.

    The verdict on a half-line is exact, read off the family's parameters
    (never for a table, which ends), so it holds at every scale of V.
    False is a verdict, not an error.
    """
    row, p = _row(spec)
    return math.isfinite(a) or row.confined(p)
