"""Seeded workloads for the eigenshift benchmark and the checks on their outputs.

A workload is one *round* of command-line calls into ``eigenshift.cli.main``;
the benchmark repeats the round in a closed loop (one client, the next call
starts when the previous one returns).  Every input comes from the workload
seed; the program only ever sees the generated argv.  Each call carries a
check that reads the files the call wrote and compares them with a closed
form or with a property the package states.  See README.md in this directory
for why each workload was chosen and which layers it stresses or bypasses.

Tolerances are the ones the package states, not values fitted to its output:

* ``tests/test_acceptance.py`` criterion 2 (flux ``lambda_dot`` within 1e-4
  relative), criterion 3 (flux route vs integral route within 1e-5 relative,
  ``Tolerances.match``), criterion 4 (affine case: ``lambda``,
  ``lambda_dot`` and ``lambda_ddot`` within 1e-5 absolute) and criterion 5
  (half oscillator ``lambda`` within 1e-6 relative);
* ``Tolerances.res`` (eigen-residual, times ``1 + |lambda|``);
* ``Tolerances.thm_factor``: a fixed-N sweep sample is good to
  ``thm_factor * h^2 * |lambda|``, the bound ``sweep`` itself builds
  ``tol_thm`` from.

The values are copied here rather than imported, so that a change to the
package's internals cannot silently change what the benchmark accepts.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

AIRY_A1 = 2.338107410459767   # -a_1, the first zero of Ai
PI2 = math.pi * math.pi

TOL_FLUX_REL = 1e-4     # criterion 2
TOL_ROUTE_REL = 1e-5    # criterion 3, Tolerances.match
TOL_AFFINE_ABS = 1e-5   # criterion 4
TOL_OSC_REL = 1e-6      # criterion 5
TOL_RES = 1e-8          # Tolerances.res
THM_FACTOR = 10.0       # Tolerances.thm_factor

BATTERY_N, BATTERY_NT = 801, 11
FINE_N = 32001
SWEEP_N, SWEEP_NT = 2001, 151

WORKLOADS = ("battery", "fine_grid", "dense_sweep")


@dataclass(frozen=True)
class Outcome:
    """Verdict of one output check; ``rel_err`` is a lambda error against a
    closed form when the call has one."""

    ok: bool
    detail: str = ""
    rel_err: Optional[float] = None


@dataclass(frozen=True)
class Call:
    """One CLI call of a round.  ``argv`` has no ``--out-dir``; the runner
    adds a fresh directory and passes it to ``check`` afterwards."""

    label: str
    argv: tuple
    check: Callable[[Path], Outcome]
    endpoints: int = 0


def make_round(workload: str, seed: int) -> list:
    """The calls of one round of ``workload``, generated from ``seed``."""
    if workload == "battery":
        return _battery_round()
    if workload == "fine_grid":
        return _fine_grid_round(random.Random(seed))
    if workload == "dense_sweep":
        return _dense_sweep_round(random.Random(seed))
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def unchecked(out: Path) -> Outcome:
    """Check for calls whose output nobody reads (the warm-up)."""
    return Outcome(True)


def warmup_round() -> list:
    """Small calls of every mode but verify, run untimed before measuring so
    that lazy imports and first-call set-up are not timed."""
    pot = ("--potential", "quadratic:c2=1", "--a", "-inf", "--N", "64")
    return [
        Call("solve", ("solve",) + pot + ("--t", "0", "--format", "csv,json,plot"), unchecked),
        Call("sensitivity", ("sensitivity",) + pot + ("--t", "0"), unchecked),
        Call("sweep", ("sweep",) + pot + ("--t-range", "-0.5:0.5:5"), unchecked),
    ]


# ---------------------------------------------------------------- battery

def _battery_round() -> list:
    # verify exposes no battery inputs, so the seed has nothing to vary here
    argv = ("verify", "--N", str(BATTERY_N), "--n-t", str(BATTERY_NT), "--format", "json")
    return [Call("verify", argv, partial(check_verify, BATTERY_N, BATTERY_NT))]


def check_verify(N: int, n_t: int, out: Path) -> Outcome:
    rep = _json(out / "verify.json")
    fails = [c for c in rep["checks"] if c["status"] == "FAIL"]
    passed = sum(1 for c in rep["checks"] if c["status"] == "PASS")
    ok = (not fails and rep["failed"] == 0 and rep["ok"] is True and passed > 0
          and rep["N"] == N and rep["n_t"] == n_t)
    detail = "; ".join(f"{c['entry']}: {c['check']}" for c in fails[:3])
    return Outcome(ok, detail or f"{passed} checks passed")


# ---------------------------------------------------------------- fine_grid

def _fine_grid_round(rng: random.Random) -> list:
    """solve then sensitivity at N = 32001 on three half-line potentials.

    Ranges keep each closed form valid and lambda away from 0:
    ``affine`` with c1 in [-2, -0.5] and t in [-1, 1] has lambda >= 0.97;
    the oscillator ``c2 (x - s)^2`` is cut at its vertex t = s;
    ``|x - s|`` is cut right of its kink so the kink quadrature runs.
    """
    c1 = -rng.uniform(0.5, 2.0)
    t_aff = rng.uniform(-1.0, 1.0)
    c2 = rng.uniform(0.5, 2.0)
    s_osc = rng.uniform(-1.0, 1.0)
    s_abs = rng.uniform(-1.0, 1.0)
    t_abs = s_abs + rng.uniform(0.5, 1.5)

    cases = [
        (f"affine:c1={c1!r}", t_aff,
         partial(check_affine_solve, c1, t_aff), partial(check_affine_sensitivity, c1, t_aff)),
        (f"quadratic:c0={c2 * s_osc * s_osc!r},c1={-2.0 * c2 * s_osc!r},c2={c2!r}", s_osc,
         partial(check_oscillator_solve, c2), partial(check_oscillator_sensitivity, c2)),
        (f"abs_shift:shift={s_abs!r}", t_abs,
         check_plain_solve, check_convex_sensitivity),
    ]
    calls = []
    for pot, t, solve_check, sens_check in cases:
        common = ("--potential", pot, "--a", "-inf", "--t", repr(t), "--N", str(FINE_N))
        calls.append(Call("solve", ("solve",) + common + ("--format", "csv,json,plot"),
                          solve_check))
        calls.append(Call("sensitivity", ("sensitivity",) + common, sens_check))
    return calls


def affine_lambda(c1: float, t: float) -> float:
    """Ground energy of V = c1 x on (-inf, t] for c1 < 0 (Airy)."""
    return abs(c1) ** (2.0 / 3.0) * AIRY_A1 + c1 * t


def check_affine_solve(c1: float, t: float, out: Path) -> Outcome:
    gs = _json(out / "ground_state.json")
    exact = affine_lambda(c1, t)
    err = abs(gs["lambda"] - exact)
    return Outcome(err <= TOL_AFFINE_ABS, f"|lambda - airy| = {err:.2e}", err / abs(exact))


def check_affine_sensitivity(c1: float, t: float, out: Path) -> Outcome:
    sens = _json(out / "sensitivity.json")
    exact = affine_lambda(c1, t)
    errs = {
        "lambda": abs(sens["lambda"] - exact),
        "lambda_dot_flux": abs(sens["lambda_dot_flux"] - c1),
        "lambda_dot_integral": abs(sens["lambda_dot_integral"] - c1),
        "lambda_ddot": abs(sens["lambda_ddot"]),
    }
    bad = [k for k, v in errs.items() if not v <= TOL_AFFINE_ABS]
    return Outcome(not bad, "off: " + ", ".join(bad) if bad else "",
                   errs["lambda"] / abs(exact))


def check_oscillator_solve(c2: float, out: Path) -> Outcome:
    gs = _json(out / "ground_state.json")
    exact = 3.0 * math.sqrt(c2)
    rel = abs(gs["lambda"] - exact) / exact
    return Outcome(rel <= TOL_OSC_REL, f"lambda rel err {rel:.2e}", rel)


def check_oscillator_sensitivity(c2: float, out: Path) -> Outcome:
    # the odd oscillator state cut at its node: u_x(t)^2 = 4 c2^(3/4) / sqrt(pi)
    sens = _json(out / "sensitivity.json")
    exact = 3.0 * math.sqrt(c2)
    rel = abs(sens["lambda"] - exact) / exact
    ld_exact = -4.0 * c2 ** 0.75 / math.sqrt(math.pi)
    rel_ld = abs(sens["lambda_dot_flux"] - ld_exact) / abs(ld_exact)
    route = _route_mismatch(sens)
    ok = (rel <= TOL_OSC_REL and rel_ld <= TOL_FLUX_REL and route <= TOL_ROUTE_REL
          and sens["lambda_ddot"] > 0)
    return Outcome(ok, f"lambda {rel:.1e}, lambda_dot {rel_ld:.1e}, route {route:.1e}, "
                       f"lambda_ddot {sens['lambda_ddot']:.3e}", rel)


def check_plain_solve(out: Path) -> Outcome:
    gs = _json(out / "ground_state.json")
    lam = gs["lambda"]
    ok = (math.isfinite(lam) and gs["residual"] <= TOL_RES * (1.0 + abs(lam))
          and gs["flux_t"] < 0)
    return Outcome(ok, f"residual {gs['residual']:.2e}, flux_t {gs['flux_t']:.3e}")


def check_convex_sensitivity(out: Path) -> Outcome:
    sens = _json(out / "sensitivity.json")
    route = _route_mismatch(sens)
    ok = route <= TOL_ROUTE_REL and sens["lambda_dot_flux"] < 0 and sens["lambda_ddot"] > 0
    return Outcome(ok, f"route {route:.1e}, lambda_ddot {sens['lambda_ddot']:.3e}")


def _route_mismatch(sens: dict) -> float:
    flux = sens["lambda_dot_flux"]
    return abs(flux - sens["lambda_dot_integral"]) / abs(flux)


# ---------------------------------------------------------------- dense_sweep

def _dense_sweep_round(rng: random.Random) -> list:
    """Two 151-endpoint sweeps at N = 2001.

    The free sweep on (0, t] has lambda = pi^2 / t^2 at every endpoint.  The
    oscillator sweep puts its vertex on endpoint ``k``, where lambda = 3 sqrt(c2).
    The endpoint count and N are fixed, so every seed asks for the same work.
    """
    t_lo = rng.uniform(0.5, 0.7)
    t_hi = t_lo + rng.uniform(1.2, 1.6)
    c2 = rng.uniform(0.5, 2.0)
    s = rng.uniform(-0.5, 0.5)
    k = rng.randint(20, SWEEP_NT - 21)
    dt = rng.uniform(0.01, 0.02)
    lo, hi = s - k * dt, s + (SWEEP_NT - 1 - k) * dt
    common = ("--N", str(SWEEP_N), "--format", "csv,json")
    return [
        Call("sweep", ("sweep", "--potential", "affine", "--a", "0",
                       "--t-range", f"{t_lo!r}:{t_hi!r}:{SWEEP_NT}") + common,
             check_free_sweep, endpoints=SWEEP_NT),
        Call("sweep", ("sweep", "--potential",
                       f"quadratic:c0={c2 * s * s!r},c1={-2.0 * c2 * s!r},c2={c2!r}",
                       "--a", "-inf", "--t-range", f"{lo!r}:{hi!r}:{SWEEP_NT}") + common,
             partial(check_oscillator_sweep, c2, k), endpoints=SWEEP_NT),
    ]


def _sweep_rows(out: Path) -> list:
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["t"]), float(r["lambda"])) for r in rows]


def _verdict_ok(verdict: dict) -> bool:
    return (verdict["ok"] is True and verdict["monotone_decreasing"] is True
            and verdict["convex_in_t"] is True)


def check_free_sweep(out: Path) -> Outcome:
    verdict = _json(out / "verdict.json")
    rows = _sweep_rows(out)
    a, n = 0.0, verdict["N"]
    worst_rel, worst_ratio = 0.0, 0.0
    for t, lam in rows:
        exact = PI2 / (t - a) ** 2
        h = (t - a) / (n + 1)
        err = abs(lam - exact)
        worst_rel = max(worst_rel, err / exact)
        worst_ratio = max(worst_ratio, err / (THM_FACTOR * h * h * abs(lam)))
    ok = len(rows) == SWEEP_NT and worst_ratio <= 1.0 and _verdict_ok(verdict)
    return Outcome(ok, f"{len(rows)} rows, worst error {worst_ratio:.2f} of its h^2 bound",
                   worst_rel)


def check_oscillator_sweep(c2: float, k: int, out: Path) -> Outcome:
    verdict = _json(out / "verdict.json")
    rows = _sweep_rows(out)
    t, lam = rows[k]
    exact = 3.0 * math.sqrt(c2)
    h = (t - verdict["a_eff"]) / (verdict["N"] + 1)
    err = abs(lam - exact)
    ok = len(rows) == SWEEP_NT and err <= THM_FACTOR * h * h * abs(lam) and _verdict_ok(verdict)
    return Outcome(ok, f"vertex lambda rel err {err / exact:.2e}", err / exact)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
