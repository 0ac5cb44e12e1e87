"""Span tracing for the benchmark's traced run, recorded from outside the package.

``Tracer`` replaces each public function of the seven layer modules
(``potentials``, ``tridiag``, ``ground_state``, ``sensitivity``, ``sweep``,
``verify``, ``cli``) at every name it is bound to in the package, because
modules import these names directly (``ground_state`` calls its own binding
of ``bisect_smallest``).  Each call records a span: name, parent span, op id,
start and end.  Two counters ride along without spans: Sturm counts
(``TridiagOperator.count_below``) and sparse LU factorisations
(``scipy.sparse.linalg.splu``), each charged to the innermost open span.
Leaving the ``with`` block puts every original object back.

``layer_metrics`` turns the spans of one round into the per-layer metrics
listed in README.md.  A span's self time is its duration minus the time its
child spans cover; the seven layer self times plus ``trace.remainder_s``
(round time outside any span) add up to the round's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

LAYERS = ("potentials", "tridiag", "ground_state", "sensitivity", "sweep", "verify", "cli")
# private functions that are layer boundaries all the same: the wall probe is
# an eigensolve spent on wall placement
PRIVATE_BOUNDARIES = {"ground_state._probe_lambda"}

BATTERY_KEYS = ("free", "quadratic", "abs", "exp", "airy", "neg_abs", "neg_quad", "neg_quad_inf")

EIGENSOLVE = "tridiag.bisect_smallest"
# nearest enclosing span that says what an eigensolve was for; anything else
# is the main solve of a call
SOLVE_PURPOSE = {
    "ground_state.truncate_domain": "wall",
    "ground_state._probe_lambda": "wall",
    "sensitivity.fd_derivatives": "fd",
    "sweep.sweep": "sweep",
    "sweep.blowup_profile": "blowup",
}
WALL_SPANS = ("ground_state.truncate_domain", "ground_state._probe_lambda")

# span record fields
NAME, PARENT, OP, START, END, CHILD, STURM, VISITS, SPLU, NOTE = range(10)


def _note_entry(bound, out):
    return bound.arguments["entry"].key


def _note_fd(bound, out):
    return tuple(out)


def _note_sensitivity(bound, out):
    return (out.lambda_dot_fd, out.lambda_ddot_fd)


def _note_sweep(bound, out):
    return len(out.ts)


def _note_written_bytes(bound, out):
    return os.path.getsize(bound.arguments["path"])


# what a span keeps from its call, read by layer_metrics
NOTES = {
    "verify.verify_entry": _note_entry,
    "sensitivity.fd_derivatives": _note_fd,
    "sensitivity.compute_sensitivity": _note_sensitivity,
    "sweep.sweep": _note_sweep,
}


def _span_name(layer: str, name: str) -> str:
    # the write_* functions are the CLI's output writers wherever they live
    return f"cli.{name}" if name.startswith("write_") else f"{layer}.{name}"


class Tracer:
    """Context manager that records spans for every call into the package."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = 0

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    # -- installation

    def _install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eigenshift.{layer}")
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and f"{layer}.{name}" not in PRIVATE_BOUNDARIES:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, _span_name(layer, name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "eigenshift" or modname.startswith("eigenshift.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        tridiag = sys.modules["eigenshift.tridiag"]
        op_cls = getattr(tridiag, "TridiagOperator", None)
        if op_cls is not None and "count_below" in vars(op_cls):
            self._patch(op_cls, "count_below", self._counter(op_cls.count_below, sturm=True))
        import scipy.sparse.linalg as spla
        self._patch(spla, "splu", self._counter(spla.splu, sturm=False))

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        if note is None and name.startswith("cli.write_"):
            note = _note_written_bytes
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.op, 0.0, 0.0, 0.0, 0, 0, 0, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if note is not None:
                try:
                    rec[NOTE] = note(sig.bind(*args, **kwargs), out)
                except (AttributeError, KeyError, TypeError, OSError):
                    rec[NOTE] = None  # a renamed field reads as absent, not as a crash
            return out

        return traced

    def _counter(self, fn, sturm: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                if sturm:
                    rec[STURM] += 1
                    rec[VISITS] += len(args[0].d)
                else:
                    rec[SPLU] += 1
            return fn(*args, **kwargs)

        return counted


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer metrics of one round whose calls took ``wall`` seconds."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_t = [dur[i] - spans[i][CHILD] for i in range(n)]

    def total(pred, values):
        return float(sum(values[i] for i in range(n) if pred(spans[i][NAME])))

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def ancestor(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return p
            p = spans[p][PARENT]
        return -1

    def purpose(i):
        p = spans[i][PARENT]
        while p >= 0:
            tag = SOLVE_PURPOSE.get(spans[p][NAME])
            if tag:
                return tag
            p = spans[p][PARENT]
        return "main"

    def ratio(num, den):
        return num / den if den else 0.0

    solves = [i for i in range(n) if spans[i][NAME] == EIGENSOLVE]
    tags = {i: purpose(i) for i in solves}
    bordered = [s for s in spans if s[NAME] == "tridiag.solve_bordered"]
    sweeps = [i for i in range(n) if spans[i][NAME] == "sweep.sweep"]
    endpoints = sum(spans[i][NOTE] or 0 for i in sweeps)
    bisect_counts = sum(spans[i][STURM] for i in solves)

    # an FD pass is useful when its values are what compute_sensitivity returns;
    # a pass feeding only error estimates nothing reads is not
    fd_solves = useful = 0
    for i in solves:
        f = ancestor(i, ("sensitivity.fd_derivatives",))
        if f < 0:
            continue
        fd_solves += 1
        owner = ancestor(f, ("sensitivity.compute_sensitivity",))
        if owner < 0 or spans[owner][NOTE] == spans[f][NOTE]:
            useful += 1

    m = {
        "tridiag.bisect.calls": len(solves),
        "tridiag.bisect.self_s": total(lambda s: s == EIGENSOLVE, self_t),
        "tridiag.sturm_counts": sum(s[STURM] for s in spans),
        "tridiag.sturm_counts_per_bisect": ratio(bisect_counts, len(solves)),
        "tridiag.sturm_node_visits": sum(s[VISITS] for s in spans),
        "tridiag.invit.calls": count("tridiag.inverse_iteration"),
        "tridiag.invit.self_s": total(lambda s: s == "tridiag.inverse_iteration", self_t),
        "tridiag.bordered.calls": len(bordered),
        "tridiag.bordered.self_s": total(lambda s: s == "tridiag.solve_bordered", self_t),
        "tridiag.bordered.retries": max(0, sum(s[SPLU] for s in bordered) - len(bordered)),
    }
    for tag in ("main", "fd", "sweep", "blowup", "wall"):
        m[f"ground_state.solves.{tag}"] = sum(1 for t in tags.values() if t == tag)
    m["ground_state.eigensolves_per_solve"] = ratio(
        len(solves), count("ground_state.solve_ground_state"))
    m["ground_state.wall.calls"] = count("ground_state.truncate_domain")
    m["ground_state.wall.self_s"] = total(lambda s: s in WALL_SPANS, self_t)
    m["ground_state.wall.total_s"] = float(sum(
        dur[i] for i in range(n)
        if spans[i][NAME] in WALL_SPANS and ancestor(i, WALL_SPANS) < 0))
    m["sensitivity.fd.solves"] = fd_solves
    m["sensitivity.fd.useful_ratio"] = ratio(useful, fd_solves)
    m["sensitivity.u_dot.self_s"] = total(lambda s: s == "sensitivity.solve_u_dot", self_t)
    m["sensitivity.quadrature.self_s"] = total(
        lambda s: s == "sensitivity.integrate_vprime_weighted", self_t)
    m["sweep.endpoints"] = endpoints
    m["sweep.sturm_counts_per_endpoint"] = ratio(
        sum(spans[i][STURM] for i in solves if tags[i] == "sweep"), endpoints)
    for key in BATTERY_KEYS:
        m[f"verify.entry_s.{key}"] = float(sum(
            dur[i] for i in range(n)
            if spans[i][NAME] == "verify.verify_entry" and spans[i][NOTE] == key))
    m["potentials.calls"] = sum(1 for s in spans if s[NAME].startswith("potentials."))
    m["cli.write.bytes"] = sum(s[NOTE] or 0 for s in spans if s[NAME].startswith("cli.write_"))
    m["cli.write.self_s"] = total(lambda s: s.startswith("cli.write_"), self_t)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(lambda s: s.split(".", 1)[0] == layer, self_t)
    m["trace.remainder_s"] = wall - float(sum(dur[i] for i in range(n) if spans[i][PARENT] < 0))
    return m


def median_metrics(rounds: list) -> dict:
    """Median of each metric over the traced rounds of a run (counts repeat
    exactly, so their median is the count of any one round)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
