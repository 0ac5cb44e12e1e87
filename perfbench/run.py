"""Benchmark for eigenshift: closed-loop CLI rounds, end to end or traced.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  One client in one process with one thread
calls ``eigenshift.cli.main(argv)`` and sends the next call only when the
previous one has returned; BLAS is pinned to one thread.  Rounds repeat until
``--seconds`` have passed (at least one round runs).

``--trace 0`` reports the end-to-end metrics: ``round_s`` (median time of
one round), ``setup_s`` (median time of a fresh interpreter importing
``eigenshift.cli``), both in reference-speed seconds (``ReferenceClock``),
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics of tracing.py plus
``trace.overhead_frac``.  Human-readable lines, starting with the recorded
environment, come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
# the reference computation: SAMPLE_LOOP steps of a scalar recurrence, timed
# every SAMPLE_EVERY seconds; it takes about REF_SAMPLE_S on a 2.1 GHz Xeon
# vCPU, so reference-speed seconds read close to wall seconds there
SAMPLE_EVERY, SAMPLE_LOOP, REF_SAMPLE_S = 0.1, 20_000, 0.0009
MIN_BLOCK_SAMPLES = 10
SETUP_BURST = 100   # samples taken back to back around each setup sample
# per-call latencies printed under the names later issues cite
CALL_METRICS = {"verify": "verify_s", "solve": "solve_s", "sensitivity": "sensitivity_s",
                "sweep": "sweep_pts_per_s"}


@dataclass(frozen=True)
class CallResult:
    call: workloads.Call
    seconds: float
    outcome: workloads.Outcome


class ReferenceClock:
    """Samples the machine's speed while the work runs.

    On the machine this benchmark was defined on, identical verify calls
    differed by up to 40 percent within minutes, because other tenants share
    its cores, and no amount of averaging inside a 20 s run removed that.
    Inside ``sampling()`` a timer signal interrupts the work every
    ``SAMPLE_EVERY`` seconds and times a fixed pure-Python computation that
    shares no code with the package.  Timed work excludes the time spent in
    those samples, and ``scaled_median`` divides it by the samples' mean
    duration over the same stretch of time.  A change to the program moves the
    scaled time exactly as it moves the wall time; a machine that slows down
    slows the samples with it.  Signal handlers run in the main thread, so the
    benchmark stays single-threaded.  Set-up runs in a child process, which
    samples in this one would compete with, so it is bracketed by bursts of
    samples instead (``burst``).
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0   # wall seconds spent inside the sampler

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def burst(self) -> None:
        for _ in range(SETUP_BURST):
            self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        q = 1.0
        for _ in range(SAMPLE_LOOP):
            q = 2.5 - 0.25 / q
        end = time.perf_counter()
        self.samples.append(end - start)
        self.stolen += time.perf_counter() - start

    def scaled_median(self, pieces: list) -> float:
        """Median reference-speed seconds of a list of timed pieces.

        Each piece is ``(wall seconds, first sample, end sample)``.
        Consecutive pieces are grouped into blocks that span at least
        ``MIN_BLOCK_SAMPLES`` samples, so that a short piece is not scaled by
        one or two noisy samples; each block gives its mean piece time over
        the mean sample time.  A trailing short block joins the one before.
        """
        blocks, current = [], []
        for piece in pieces:
            current.append(piece)
            if current[-1][2] - current[0][1] >= MIN_BLOCK_SAMPLES:
                blocks.append(current)
                current = []
        if current:
            if blocks:
                blocks[-1].extend(current)
            else:
                blocks.append(current)
        values = []
        for block in blocks:
            samples = self.samples[block[0][1]:block[-1][2]] or self.samples
            mean_piece = statistics.mean(p[0] for p in block)
            values.append(mean_piece * REF_SAMPLE_S / statistics.mean(samples))
        return statistics.median(values)


def run_call(cli, call: workloads.Call, out_dir: Path, clock: ReferenceClock = None) -> CallResult:
    """One timed call of ``cli.main``; its files are then checked, untimed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    argv = list(call.argv) + ["--out-dir", str(out_dir)]
    sink = io.StringIO()
    stolen = clock.stolen if clock is not None else 0.0
    start = time.perf_counter()
    error = None
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:  # a call that raises is a failed call, not a failed benchmark
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if clock is not None:
        seconds -= clock.stolen - stolen
    if error is not None:
        return CallResult(call, seconds, workloads.Outcome(False, error))
    if rc != 0:
        return CallResult(call, seconds, workloads.Outcome(
            False, f"exit code {rc}: {sink.getvalue()[-300:]}"))
    try:
        outcome = call.check(out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        outcome = workloads.Outcome(False, f"unreadable output: {exc!r}")
    return CallResult(call, seconds, outcome)


def run_round(cli, calls: list, out_dir: Path, clock: ReferenceClock = None,
              tracer=None) -> list:
    results = []
    for call in calls:
        if tracer is not None:
            tracer.op += 1
        results.append(run_call(cli, call, out_dir, clock))
    return results


def round_seconds(results: list) -> float:
    return sum(r.seconds for r in results)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter running ``import eigenshift.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import eigenshift.cli"], env=env, cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def tail(values: list) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "tail n/a (needs 20 samples)"
    pct = 100 * (n - 10) // n
    return f"p{pct} {sorted(values)[n - 11]:.6g}"


def report_line(name: str, value, unit: str, extra: str = "") -> None:
    print(f"{name:<40} {value:>14.6g} {unit:<6} {extra}".rstrip())


def report_calls(results: list) -> None:
    by_label = {}
    for r in results:
        by_label.setdefault(r.call.label, []).append(r)
    for label, rs in by_label.items():
        name = CALL_METRICS.get(label, f"{label}_s")
        if name == "sweep_pts_per_s":
            vals = [r.call.endpoints / r.seconds for r in rs]
            unit = "1/s"
        else:
            vals = [r.seconds for r in rs]
            unit = "s"
        report_line(name, statistics.median(vals), unit, f"median, n={len(vals)}, {tail(vals)}")


def report_checks(results: list) -> tuple:
    failed = [r for r in results if not r.outcome.ok]
    errs = [r.outcome.rel_err for r in results if r.outcome.rel_err is not None]
    if errs:
        report_line("lambda_rel_err", max(errs), "1", f"max over n={len(errs)} closed-form checks")
    report_line("ops_failed_frac", len(failed) / len(results), "1",
                f"{len(failed)} of {len(results)} calls")
    for r in failed[:5]:
        print(f"# FAILED {r.call.label} {' '.join(r.call.argv)}: {r.outcome.detail}",
              file=sys.stderr)
    return len(results), len(failed)


def measure(cli, calls: list, seconds: float) -> tuple:
    """Untraced rounds: returns (end-to-end metrics, all call results)."""
    setup, rounds = [], []
    clock = ReferenceClock()
    clock.burst()
    for _ in range(SETUP_SAMPLES):
        first = len(clock.samples) - SETUP_BURST
        wall = time_setup()
        clock.burst()
        setup.append((wall, first, len(clock.samples)))
    with clock.sampling():
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            first = len(clock.samples)
            rnd = run_round(cli, calls, OUT, clock)
            rounds.append((round_seconds(rnd), first, len(clock.samples), rnd))
    results = [r for rnd in rounds for r in rnd[3]]
    walls = [rnd[0] for rnd in rounds]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "round_s": {"value": clock.scaled_median([rnd[:3] for rnd in rounds]), "unit": "s"},
        "setup_s": {"value": clock.scaled_median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    report_line("round_s", metrics["round_s"]["value"], "s",
                f"reference-speed median, n={len(walls)}, {tail(walls)}")
    report_line("setup_s", metrics["setup_s"]["value"], "s",
                f"reference-speed median, n={len(setup)}")
    report_line("peak_rss_mb", rss, "MB")
    report_line("round_wall_s", statistics.median(walls), "s", f"median, n={len(walls)}")
    report_line("setup_wall_s", statistics.median(s[0] for s in setup), "s",
                f"median, n={len(setup)}")
    report_line("reference_sample_s", statistics.mean(clock.samples), "s",
                f"mean, n={len(clock.samples)}; reference speed is {REF_SAMPLE_S} s")
    report_calls(results)
    return metrics, results


def measure_traced(cli, calls: list, seconds: float) -> tuple:
    """Untraced and traced rounds alternate; per-layer metrics come from the
    traced ones, the overhead from comparing the two."""
    plain, traced, per_round, results = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        rnd = run_round(cli, calls, OUT)
        plain.append(round_seconds(rnd))
        results.extend(rnd)
        with tracing.Tracer() as tracer:
            rnd = run_round(cli, calls, OUT, tracer=tracer)
        traced.append(round_seconds(rnd))
        results.extend(rnd)
        per_round.append(tracing.layer_metrics(tracer.spans, traced[-1]))
    layer = tracing.median_metrics(per_round)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    for name, value in layer.items():
        report_line(name, value, unit_of(name), f"per round, n={len(per_round)}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}, results


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_one(args) -> int:
    import eigenshift
    import eigenshift.cli as cli
    if Path(eigenshift.__file__).resolve().parent != SRC / "eigenshift":
        print(f"perfbench: imported eigenshift from {eigenshift.__file__}, not from src/",
              file=sys.stderr)
        return 2
    calls = workloads.make_round(args.workload, args.seed)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(calls)} calls per round, one client, closed loop")
    try:
        run_round(cli, workloads.warmup_round(), OUT)
        if args.trace:
            metrics, results = measure_traced(cli, calls, args.seconds)
        else:
            metrics, results = measure(cli, calls, args.seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    attempted, failed = report_checks(results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, so each gets its own peak RSS."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    total = {k: sum(r[k] for r in summary.values()) for k in ("attempted", "failed")}
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()), **total,
                      "metrics": {n: r["metrics"] for n, r in summary.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eigenshift" / "__init__.py").is_file():
        print("perfbench: no eigenshift package under src/; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
