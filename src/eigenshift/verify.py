"""Built-in verification battery: every theorem clause as a machine check.

The battery covers the hypothesis space: a free interval, smooth and kinked
convex wells, a convex well on a finite interval, the affine tilt on a
half-infinite domain (where the energy curve is exactly affine), a tilted
concave kink on a half-infinite domain, and a concave potential that fails
the confinement requirement and must be gated out rather than solved.

Checks whose attainable accuracy scales with the grid (formula agreement,
FD cross-checks, curvature signs) use an effective tolerance
max(base, C * h^2 * scale); lines where the h^2 floor dominates are marked
as widened.  The floor scales a tolerance with the grid's own error; it does
not guarantee that a coarse run passes.  ``verify --N 17 --n-t 5`` exits 1:
``lambda_ddot vs FD`` fails on free, exp and neg_quad against widened
tolerances, and the abs sweep is not strictly decreasing.  What a grid that
coarse should do (a typed error, or FAIL as now) is ROADMAP item 4.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenshiftError
from .ground_state import Domain, rayleigh_energy, solve_ground_state
from .potentials import (
    ConvexityClass,
    PotentialSpec,
    _table_convexity,
    convexity_on,
    eval_V,
    make_potential,
    validate_confinement,
)
from .sensitivity import compute_sensitivity, fd_derivatives, u_dot_flux_left
from .sweep import blowup_profile, chord_tangent_violation, sweep
from .tolerances import DEFAULT_TOLS

# h^2 prefactors for the widened (grid-limited) tolerances
_WIDEN_MATCH = 20.0
_WIDEN_FD = 50.0        # the FD energies share the centre's nodes, so a kink keeps its place
_WIDEN_SIGN = 50.0


@dataclass(frozen=True)
class BatteryEntry:
    key: str
    spec: PotentialSpec
    a: float
    t_ref: float
    sweep_lo: float
    sweep_hi: float
    expect_confined: bool = True
    blowup: bool = False
    note: str = ""


def default_battery() -> list:
    inf = float("-inf")
    return [
        BatteryEntry("free", make_potential("affine"), 0.0, 1.0, 0.5, 2.0, blowup=True),
        BatteryEntry("quadratic", make_potential("quadratic", c2=1.0), inf, 0.0, -1.0, 2.0),
        BatteryEntry("abs", make_potential("abs_shift"), inf, 1.0, 0.5, 2.0),
        BatteryEntry("exp", make_potential("exp_growth"), 0.0, 1.0, 0.5, 2.0, blowup=True),
        BatteryEntry("airy", make_potential("affine", c1=-1.0), inf, 2.0, 0.0, 4.0),
        BatteryEntry("neg_abs", make_potential("neg_abs", slope=2.0, amp=1.0),
                     inf, 1.0, 0.5, 2.5),
        BatteryEntry("neg_quad", make_potential("neg_quadratic"),
                     0.0, 1.0, 0.5, 1.5, blowup=True,
                     note="finite interval: concavity clause not asserted"),
        BatteryEntry("neg_quad_inf", make_potential("neg_quadratic"),
                     inf, 1.0, 0.5, 1.5, expect_confined=False,
                     note="must be gated out by the confinement check"),
    ]


@dataclass(frozen=True)
class CheckLine:
    entry: str
    check: str
    status: str            # PASS / FAIL / SKIP / INFO
    measured: str = ""
    tol: str = ""
    widened: bool = False
    note: str = ""


@dataclass
class VerifyReport:
    lines: list = field(default_factory=list)
    N: int = 0
    n_t: int = 0

    def _tally(self) -> Counter:
        return Counter(c.status for c in self.lines)

    @property
    def ok(self) -> bool:
        return self._tally()["FAIL"] == 0

    def render(self) -> str:
        out = [
            "theorem verification battery",
            f"N = {self.N} interior nodes, {self.n_t}-point sweeps",
            "grid-limited tolerances are widened to their h^2 floor and marked [w]",
            "-" * 78,
        ]
        for c in self.lines:
            tag = f"[{c.status}]"
            wid = " [w]" if c.widened else ""
            parts = [f"{tag:>6} {c.entry:<13} {c.check}"]
            if c.measured:
                parts.append(f"measured={c.measured}")
            if c.tol:
                parts.append(f"tol={c.tol}{wid}")
            if c.note:
                parts.append(f"({c.note})")
            out.append("  ".join(parts))
        tally = self._tally()
        out.append("-" * 78)
        out.append(f"{tally['PASS']} passed, {tally['FAIL']} failed, {tally['SKIP']} skipped")
        return "\n".join(out) + "\n"

    def to_json(self) -> dict:
        tally = self._tally()
        return {
            "N": self.N,
            "n_t": self.n_t,
            "ok": tally["FAIL"] == 0,
            "passed": tally["PASS"],
            "failed": tally["FAIL"],
            # a CheckLine's fields, in their declared order
            "checks": [c.__dict__.copy() for c in self.lines],
        }


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.3e}"
    return str(v)


class _Collector:
    def __init__(self, entry_key: str):
        self.entry = entry_key
        self.lines = []

    def _add(self, name: str, status: str, measured=None, tol=None,
             widened: bool = False, note: str = "") -> None:
        self.lines.append(CheckLine(
            entry=self.entry, check=name, status=status,
            measured=_fmt(measured) if measured is not None else "",
            tol=_fmt(tol) if tol is not None else "",
            widened=widened, note=note,
        ))

    def check(self, name: str, ok: bool, measured=None, tol=None, note: str = "") -> None:
        self._add(name, "PASS" if ok else "FAIL", measured, tol, note=note)

    def within(self, name: str, measured: float, floor: float, *bases: float,
               note: str = "") -> None:
        """PASS when |measured| <= max(floor, *bases); the line is marked
        widened where the h^2 ``floor`` sets that tolerance (pass 0.0 for a
        tolerance with no floor)."""
        base = max(bases)
        tol = max(floor, base)
        self._add(name, "PASS" if abs(measured) <= tol else "FAIL", measured, tol,
                  bool(floor > base), note)

    def fail(self, name: str, exc: Exception) -> None:
        self._add(name, "FAIL", note=str(exc))

    def skip(self, name: str, note: str) -> None:
        self._add(name, "SKIP", note=note)

    def info(self, name: str, measured, note: str = "") -> None:
        self._add(name, "INFO", measured, note=note)


def verify_entry(entry: BatteryEntry, N: int, n_t: int) -> list:
    col = _Collector(entry.key)
    confined = validate_confinement(entry.spec, entry.a)
    if not entry.expect_confined:
        col.check("confinement gate rejects", not confined,
                  measured=confined, note=entry.note)
        col.skip("theorem clauses", "not asserted (confinement hypothesis fails)")
        return col.lines
    col.check("confinement", confined, measured=confined)
    if not confined:
        return col.lines

    try:
        gs = solve_ground_state(entry.spec, Domain(entry.a, entry.t_ref), N)
        sens = compute_sensitivity(gs, entry.spec)
        ld_fd, ldd_fd, fd_step = fd_derivatives(entry.spec, gs, sens.u_dot)
    except EigenshiftError as exc:
        col.fail("solve + sensitivity", exc)
        return col.lines

    # the exact class on the solved domain must match V sampled on its grid
    # and V's class on the whole line
    cls = convexity_on(entry.spec, gs.domain.a_eff, entry.t_ref)
    sampled = _table_convexity(gs.grid.x, eval_V(entry.spec, gs.grid.x))
    declared = convexity_on(entry.spec)
    col.check("convexity class consistent", cls == sampled == declared,
              measured=cls.value, note=f"declared {declared.value}")

    h2 = gs.grid.h * gs.grid.h
    lam_scale = 1.0 + abs(gs.lam)

    # ground-state structure
    umax = float(np.max(gs.u))
    col.check("u > 0 on the interior",
              float(np.min(gs.u[1:-1])) > -DEFAULT_TOLS.pos * umax and umax > 0,
              measured=float(np.min(gs.u[1:-1]) / umax), tol=-DEFAULT_TOLS.pos,
              note="relative dead band")
    col.within("|norm - 1|", abs(gs.quad_norm - 1.0), 0.0, DEFAULT_TOLS.norm)
    col.within("eigen-residual", gs.residual, 0.0, DEFAULT_TOLS.res * lam_scale,
               64.0 * np.finfo(float).eps * (2.0 / h2 + abs(gs.lam)))
    ray = rayleigh_energy(gs, entry.spec)
    col.within("rayleigh = lambda", abs(ray - gs.lam), 0.0, DEFAULT_TOLS.res * lam_scale)
    col.check("flux_t < 0", gs.flux_t < 0, measured=gs.flux_t)
    if gs.domain.unbounded_left:
        # at a truncated wall the true flux is exponentially small; its
        # floating-point sign carries no information, only its negligibility
        col.within("flux_a negligible at the wall", abs(gs.flux_a), 0.0,
                   1e-8 * (1.0 + abs(gs.flux_t)))
    else:
        col.check("flux_a > 0", gs.flux_a > 0, measured=gs.flux_a)
    gap_eps = 1e-6 * lam_scale
    below = gs.op.count_below(gs.lam - gap_eps)
    col.check("ground-state index", below == 0 and gs.op.count_below(gs.lam + gap_eps) == 1,
              measured=below,
              note="Sturm counts below lambda -/+ eps")

    # first derivative: two routes and the FD oracle
    ld = sens.lambda_dot_flux
    ld_scale = 1.0 + abs(ld)
    col.check("lambda_dot < 0", ld < 0, measured=ld)
    col.within("flux vs integral route", abs(ld - sens.lambda_dot_integral),
               _WIDEN_MATCH * h2 * ld_scale, DEFAULT_TOLS.match * ld_scale)
    col.within("lambda_dot vs FD", abs(ld - ld_fd),
               _WIDEN_FD * h2 * ld_scale, 1e-4 * abs(ld_fd), 10.0 * fd_step ** 2)

    # u_dot structure
    col.within("orthogonality", sens.orth_residual, 0.0, DEFAULT_TOLS.orth)
    col.check("u_dot boundary datum",
              abs(sens.u_dot[-1] + gs.flux_t) <= 1e-14 * (1.0 + abs(gs.flux_t)),
              measured=abs(sens.u_dot[-1] + gs.flux_t))
    col.check("single sign change, interior nodal point",
              gs.domain.a_eff < sens.t0 < gs.domain.t, measured=sens.t0)
    if not gs.domain.unbounded_left:
        udxa = u_dot_flux_left(sens.u_dot, gs.grid)
        slack = (1e-6 + _WIDEN_SIGN * h2) * (1.0 + abs(gs.flux_a))
        col.check("u_dot_x(a) <= 0", udxa <= slack, measured=udxa, tol=slack,
                  note="boundary term of the curvature is then nonnegative")

    # second derivative: FD oracle and the curvature sign of the theorem
    col.within("lambda_ddot vs FD", abs(sens.lambda_ddot - ldd_fd),
               _WIDEN_FD * h2 * lam_scale, 1e-2 * abs(ldd_fd),
               1e-4 * lam_scale)
    if cls == ConvexityClass.AFFINE and gs.domain.unbounded_left:
        col.within("lambda_ddot ~ 0 (affine case)", sens.lambda_ddot,
                   _WIDEN_SIGN * h2 * lam_scale, 1e-5)
    elif cls == ConvexityClass.CONVEX:
        col.check("lambda_ddot > 0 (strict convexity)", sens.lambda_ddot > 0,
                  measured=sens.lambda_ddot)
    elif cls == ConvexityClass.CONCAVE and gs.domain.unbounded_left:
        col.check("lambda_ddot < 0 (strict concavity)", sens.lambda_ddot < 0,
                  measured=sens.lambda_ddot)
    else:
        col.info("lambda_ddot", sens.lambda_ddot,
                 note="no curvature clause applies for this class on this domain")

    # the sweep: monotone decrease plus the curvature clause over a t-range
    try:
        sw = sweep(entry.spec, entry.a, entry.sweep_lo, entry.sweep_hi, n_t, N)
    except EigenshiftError as exc:
        col.fail("sweep", exc)
        return col.lines
    col.check("sweep strictly decreasing", sw.monotone_decreasing,
              measured=float(np.max(np.diff(sw.lambdas))), tol=0.0)
    tol_chord = (10.0 * (DEFAULT_TOLS.match + _WIDEN_MATCH * h2)
                 * (1.0 + float(np.max(np.abs(sw.lambda_dots)))))
    # (shape, clause asserted, clause holds, worst second difference, its bound)
    shapes = (("convex", sw.expect_convex, sw.convex_in_t, np.min, -sw.tol_thm),
              ("concave", sw.expect_concave, sw.concave_in_t, np.max, sw.tol_thm))
    for shape, asserted, holds, worst, bound in shapes:
        if asserted:
            col.check(f"sweep {shape} in t", holds,
                      measured=float(worst(sw.second_diffs)), tol=bound)
            col.within(f"chord-tangent ({shape})", chord_tangent_violation(sw, shape),
                       0.0, tol_chord)
    if not (sw.expect_convex or sw.expect_concave):
        col.skip("curvature clause", "not asserted (hypothesis a=-inf absent)")
    if sw.convexity in (ConvexityClass.CONVEX, ConvexityClass.CONCAVE):
        # strictness is reported, not hard-asserted: a pointwise-positivity
        # claim only resolves above the discretization floor
        extreme = np.min if sw.convexity == ConvexityClass.CONVEX else np.max
        col.info("strict curvature margin", float(extreme(sw.second_diffs)),
                 note=f"vs discretization floor {sw.tol_thm:.1e}")

    # blow-up rate at a finite left endpoint
    if entry.blowup:
        eps = [0.04, 0.02, 0.01]
        prof = blowup_profile(entry.spec, entry.a, eps, 801)
        pi2 = math.pi * math.pi
        col.within("blow-up rate lambda*eps^2 -> pi^2", abs(prof[-1] - pi2) / pi2,
                   0.0, 1e-3, note=f"eps={eps[-1]}")
        col.check("blow-up monotone", bool(np.all(np.diff(prof / np.square(eps)) > 0)),
                  note="lambda increases as eps shrinks")
    return col.lines


def run_battery(N: int = 2001, n_t: int = 31) -> VerifyReport:
    """Run every battery entry and collect the report (exit gate for verify)."""
    report = VerifyReport(N=N, n_t=n_t)
    for e in default_battery():
        report.lines.extend(verify_entry(e, N, n_t))
    return report
