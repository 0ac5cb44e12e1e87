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

``convexity_on`` gives the exact convexity class of V on an interval, the
hypothesis the theorem asks of the domain that is solved.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import RangeError, UsageError

FAMILIES = (
    "affine",
    "quadratic",
    "abs_shift",
    "exp_growth",
    "neg_quadratic",
    "neg_abs",
    "tabulated",
)

# Defaulted parameter keys per family.
_FAMILY_KEYS = {
    "affine": {"c0": 0.0, "c1": 0.0},
    "quadratic": {"c0": 0.0, "c1": 0.0, "c2": 0.0},
    "abs_shift": {"shift": 0.0},
    "exp_growth": {"amp": 1.0, "rate": 1.0},
    "neg_quadratic": {"scale": 1.0},
    "neg_abs": {"slope": 0.0, "amp": 1.0, "shift": 0.0},
}

# Growth-sampling bound for the confinement check at a = -infinity.
_CONFINEMENT_BOUND = 1e8
_CONFINEMENT_MAX_DOUBLINGS = 60


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
    label: str
    table: Optional[tuple] = field(default=None, repr=False)


# Sign of V'' for a smooth family, of the slope jump at the kink for a kinked
# one: the family's convexity class wherever its curvature counts.
_CURVATURE_SIGN = {
    "affine": lambda p: 0.0,
    "quadratic": lambda p: p["c2"],
    "exp_growth": lambda p: p["amp"] if p["rate"] else 0.0,
    "neg_quadratic": lambda p: -p["scale"],
    "abs_shift": lambda p: 1.0,
    "neg_abs": lambda p: -p["amp"],
}


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


def make_potential(family: str, label: Optional[str] = None, **params) -> PotentialSpec:
    """Construct a PotentialSpec, filling defaulted parameters.

    Raises UsageError for unknown families or parameter keys.
    """
    if family == "tabulated":
        raise UsageError("use make_tabulated() or parse_potential('tabulated:file=...')")
    if family not in _FAMILY_KEYS:
        raise UsageError(f"unknown potential family: {family!r}")
    full = dict(_FAMILY_KEYS[family])
    for key, val in params.items():
        if key not in full:
            raise UsageError(f"unknown parameter {key!r} for family {family!r}")
        full[key] = float(val)
    spec = PotentialSpec(family, full, label or "")
    return spec if label else PotentialSpec(family, full, canonical_string(spec))


def make_tabulated(xs, vs, label: Optional[str] = None) -> PotentialSpec:
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
    return PotentialSpec(
        family="tabulated",
        params={},
        label=label or "tabulated",
        table=(xs, vs),
    )


def load_tabulated(path: str, label: Optional[str] = None) -> PotentialSpec:
    """Load a tabulated potential from a CSV file with header ``x,V``."""
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
                xs.append(float(row[0]))
                vs.append(float(row[1]))
    except OSError as exc:
        raise UsageError(f"cannot read tabulated potential: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: malformed numeric row ({exc})") from exc
    return make_tabulated(xs, vs, label=label or f"tabulated:file={path}")


def parse_potential(text: str) -> PotentialSpec:
    """Parse the CLI grammar ``family:key=value,key=value``.

    Example: ``quadratic:c0=0,c1=0,c2=1``.  Unknown families or keys and
    malformed values raise UsageError naming the offending token.
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


def canonical_string(spec: PotentialSpec) -> str:
    """Deterministic canonical form of the potential spec string."""
    if spec.family == "tabulated":
        return spec.label
    body = ",".join(f"{k}={spec.params[k]!r}" for k in sorted(spec.params))
    return f"{spec.family}:{body}"


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def eval_V(spec: PotentialSpec, x):
    """Evaluate V(x); accepts a scalar or an ndarray."""
    xs, scalar = _as_array(x)
    p = spec.params
    if spec.family == "affine":
        out = p["c0"] + p["c1"] * xs
    elif spec.family == "quadratic":
        out = p["c0"] + xs * (p["c1"] + p["c2"] * xs)
    elif spec.family == "abs_shift":
        out = np.abs(xs - p["shift"])
    elif spec.family == "exp_growth":
        with np.errstate(over="ignore"):
            out = p["amp"] * np.exp(p["rate"] * xs)
    elif spec.family == "neg_quadratic":
        out = -p["scale"] * xs * xs
    elif spec.family == "neg_abs":
        # each side of the kink as its own line, so slope = amp gives an
        # exactly constant V on the left instead of a cancellation
        slope, amp, shift = p["slope"], p["amp"], p["shift"]
        out = np.where(xs < shift, (amp - slope) * xs - amp * shift,
                       amp * shift - (amp + slope) * xs)
    elif spec.family == "tabulated":
        tx, tv = spec.table
        if np.any(xs < tx[0]) or np.any(xs > tx[-1]):
            raise RangeError(
                f"x outside tabulated range [{tx[0]}, {tx[-1]}]"
            )
        out = np.interp(xs, tx, tv)
    else:
        raise UsageError(f"unknown potential family: {spec.family!r}")
    return float(out) if scalar else out


def eval_Vprime(spec: PotentialSpec, x, side: str = "left"):
    """Evaluate V'(x), taking the one-sided limit from ``side`` ('left' or
    'right') at kinks; the left-derivative convention is the default."""
    xs, scalar = _as_array(x)
    p = spec.params
    if spec.family == "affine":
        out = np.full_like(xs, p["c1"])
    elif spec.family == "quadratic":
        out = p["c1"] + 2.0 * p["c2"] * xs
    elif spec.family == "abs_shift":
        out = _abs_slope(xs - p["shift"], side)
    elif spec.family == "exp_growth":
        with np.errstate(over="ignore"):
            out = p["amp"] * p["rate"] * np.exp(p["rate"] * xs)
    elif spec.family == "neg_quadratic":
        out = -2.0 * p["scale"] * xs
    elif spec.family == "neg_abs":
        out = -p["slope"] - p["amp"] * _abs_slope(xs - p["shift"], side)
    elif spec.family == "tabulated":
        tx, tv = spec.table
        if np.any(xs < tx[0]) or np.any(xs > tx[-1]):
            raise RangeError(f"x outside tabulated range [{tx[0]}, {tx[-1]}]")
        slopes = np.diff(tv) / np.diff(tx)
        # left convention takes the segment ending at a node, right convention
        # the one starting there; clip handles the outermost table nodes
        idx = np.searchsorted(tx, xs, side=side) - 1
        out = slopes[np.clip(idx, 0, len(slopes) - 1)]
    else:
        raise UsageError(f"unknown potential family: {spec.family!r}")
    return float(out) if scalar else out


def _abs_slope(y, side: str):
    """d|y|/dy with a one-sided convention at y = 0."""
    s = np.sign(y)
    fill = -1.0 if side == "left" else 1.0
    return np.where(s == 0, fill, s)


def vprime_kinks(spec: PotentialSpec) -> np.ndarray:
    """Abscissae where V' jumps (empty for smooth families)."""
    if spec.family in ("abs_shift", "neg_abs"):
        return np.array([spec.params["shift"]])
    if spec.family == "tabulated":
        return spec.table[0][1:-1].copy()
    return np.array([])


def convexity_on(spec: PotentialSpec, lo: float = -math.inf,
                 hi: float = math.inf) -> ConvexityClass:
    """Convexity class of V on [lo, hi], exact for every family; the whole
    line (for a table, the whole table) by default.

    A smooth family's class is the sign of V''.  A kinked family (one with
    a ``vprime_kinks`` entry) is affine on an interval whose interior misses
    the kink, and has the sign of its slope jump otherwise.  A
    tabulated potential is classified from the table segments that meet
    [lo, hi].
    """
    if spec.family == "tabulated":
        xs, vs = spec.table
        first = max(int(np.searchsorted(xs, lo, side="right")) - 1, 0)
        stop = int(np.searchsorted(xs, hi, side="left")) + 1
        return _table_convexity(xs[first:stop], vs[first:stop])
    kinks = vprime_kinks(spec)
    if kinks.size and not np.any((lo < kinks) & (kinks < hi)):
        return ConvexityClass.AFFINE
    sign = _CURVATURE_SIGN[spec.family](spec.params)
    if sign > 0:
        return ConvexityClass.CONVEX
    return ConvexityClass.CONCAVE if sign < 0 else ConvexityClass.AFFINE


def _eval_guarded(spec: PotentialSpec, x: float) -> float:
    try:
        v = eval_V(spec, x)
    except RangeError:
        return math.nan
    return float(v)


def validate_confinement(spec: PotentialSpec, a: float) -> bool:
    """True iff a is finite, or a = -inf and V grows without bound to the left.

    Growth is checked on the geometric samples x_k = -2**k: the values must
    eventually increase beyond a large bound.  False is a verdict, not an error.
    """
    if math.isfinite(a):
        return True
    prev = -math.inf
    rising = 0
    for k in range(1, _CONFINEMENT_MAX_DOUBLINGS + 1):
        v = _eval_guarded(spec, -(2.0**k))
        if math.isnan(v):
            return False  # not evaluable arbitrarily far left (e.g. tabulated)
        if math.isinf(v) and v > 0:
            return True
        rising = rising + 1 if v > prev else 0
        if v >= _CONFINEMENT_BOUND and rising >= 2:
            return True
        prev = v
    return False
