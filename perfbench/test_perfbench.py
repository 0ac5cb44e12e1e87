"""Tests of the benchmark itself, not of eigenshift.

    python3 -m pytest perfbench -q

They check that the tracer puts every original object back, that the counts
of a traced round repeat exactly, that layer self times plus the reported
remainder add up to the round's wall time, that the output checks reject
wrong answers, and that the runner refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import eigenshift.cli as cli  # noqa: E402
import eigenshift.tridiag  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# every layer, at sizes a test can afford
SMALL_ROUND = [
    workloads.Call("solve", ("solve", "--potential", "abs_shift", "--a", "-inf", "--t", "1",
                             "--N", "201", "--format", "csv,json,plot"), workloads.unchecked),
    workloads.Call("sensitivity", ("sensitivity", "--potential", "quadratic:c2=1", "--a",
                                   "-inf", "--t", "0", "--N", "201"), workloads.unchecked),
    workloads.Call("sweep", ("sweep", "--potential", "affine:c1=-1", "--a", "-inf",
                             "--t-range", "-0.5:0.5:7", "--N", "101"), workloads.unchecked,
                   endpoints=7),
    workloads.Call("verify", ("verify", "--N", "64", "--n-t", "5"), workloads.unchecked),
]


def traced_round(out_dir):
    with tracing.Tracer() as tracer:
        results = run.run_round(cli, SMALL_ROUND, out_dir, tracer=tracer)
    wall = run.round_seconds(results)
    return tracing.layer_metrics(tracer.spans, wall), wall


def _package_bindings():
    snap = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "eigenshift" or name.startswith("eigenshift.")}
    snap["TridiagOperator.count_below"] = vars(eigenshift.tridiag.TridiagOperator)["count_below"]
    snap["splu"] = scipy.sparse.linalg.splu
    return snap


def _same_objects(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert a[key].keys() == b[key].keys(), key
            for name in a[key]:
                assert a[key][name] is b[key][name], f"{key}.{name} not restored"
        else:
            assert a[key] is b[key], f"{key} not restored"


def test_tracer_restores_every_original(tmp_path):
    before = _package_bindings()
    with tracing.Tracer() as tracer:
        assert eigenshift.ground_state.bisect_smallest is not before[
            "eigenshift.ground_state"]["bisect_smallest"]
        assert cli.main is not before["eigenshift.cli"]["main"]
        run.run_round(cli, SMALL_ROUND[:1], tmp_path / "out", tracer=tracer)
    _same_objects(before, _package_bindings())

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("leaves the block early")
    _same_objects(before, _package_bindings())


def test_counts_repeat_exactly_across_traced_rounds(tmp_path):
    first, _ = traced_round(tmp_path / "a")
    second, _ = traced_round(tmp_path / "b")
    counts = [k for k in first if run.unit_of(k) in ("count", "B", "ratio")
              and k != "trace.overhead_frac"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for key in ("tridiag.sturm_counts", "tridiag.bordered.calls", "ground_state.solves.main",
                "ground_state.solves.fd", "ground_state.solves.sweep",
                "ground_state.solves.wall", "ground_state.solves.blowup", "cli.write.bytes"):
        assert first[key] > 0, key
    assert first["sweep.endpoints"] == 7 + 5 * 7   # this sweep plus verify's seven
    assert first["sensitivity.fd.useful_ratio"] == 0.5


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    m, wall = traced_round(tmp_path / "out")
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.remainder_s"] == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert 0.0 <= m["trace.remainder_s"] < 0.05 * wall
    assert all(m[k] >= 0.0 for k in m if k.endswith("_s") and k != "trace.remainder_s")


def test_checks_reject_wrong_answers(tmp_path):
    c1, t = -1.3, 0.4
    exact = workloads.affine_lambda(c1, t)
    (tmp_path / "ground_state.json").write_text(json.dumps({"lambda": exact + 2e-6}))
    assert workloads.check_affine_solve(c1, t, tmp_path).ok
    (tmp_path / "ground_state.json").write_text(json.dumps({"lambda": exact + 2e-5}))
    assert not workloads.check_affine_solve(c1, t, tmp_path).ok

    report = {"N": 801, "n_t": 11, "ok": True, "failed": 0,
              "checks": [{"entry": "free", "check": "x", "status": "PASS"}]}
    (tmp_path / "verify.json").write_text(json.dumps(report))
    assert workloads.check_verify(801, 11, tmp_path).ok
    report["checks"].append({"entry": "abs", "check": "y", "status": "FAIL"})
    (tmp_path / "verify.json").write_text(json.dumps(report))
    assert not workloads.check_verify(801, 11, tmp_path).ok


def test_inputs_come_from_the_seed():
    for name in ("fine_grid", "dense_sweep"):
        a = [c.argv for c in workloads.make_round(name, 7)]
        assert a == [c.argv for c in workloads.make_round(name, 7)]
        assert a != [c.argv for c in workloads.make_round(name, 8)]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
