import pytest

from eigenshift.verify import BatteryEntry, default_battery, run_battery, verify_entry


@pytest.fixture(scope="module")
def report():
    # the size of the benchmark's battery workload (verify --N 801 --n-t 11)
    return run_battery(N=801, n_t=11)


def test_battery_covers_theorem_hypotheses():
    keys = [e.key for e in default_battery()]
    assert keys == ["free", "quadratic", "abs", "exp", "airy", "neg_abs",
                    "neg_quad", "neg_quad_inf"]
    gated = [e for e in default_battery() if not e.expect_confined]
    assert [e.key for e in gated] == ["neg_quad_inf"]


def test_full_battery_passes_at_modest_grid(report):
    assert report.ok, report.render()
    statuses = [c.status for c in report.lines]
    assert (statuses.count("PASS"), statuses.count("FAIL"), statuses.count("SKIP")) == (148, 0, 2)


def test_gated_entry_reports_skip(report):
    lines = [c for c in report.lines if c.entry == "neg_quad_inf"]
    assert any(c.status == "SKIP" for c in lines)
    assert all(c.status in ("PASS", "SKIP") for c in lines)


def test_concave_finite_interval_not_asserted(report):
    lines = [c for c in report.lines if c.entry == "neg_quad"]
    skip = [c for c in lines if c.status == "SKIP"]
    assert any("a=-inf" in c.note for c in skip)


def test_render_contains_tolerances(report):
    text = report.render()
    assert "tol=" in text and "[PASS]" in text
    assert text.count("\n") > 100


def test_json_shape(report):
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert {c["entry"] for c in payload["checks"]} == {e.key for e in default_battery()}


def test_single_entry_failure_is_reported_not_raised():
    from eigenshift.potentials import make_potential
    # an entry declared confined that is not: the harness must flag it
    bad = BatteryEntry("bogus", make_potential("neg_quadratic"), float("-inf"),
                       1.0, 0.5, 1.5, expect_confined=True)
    lines = verify_entry(bad, 301, 7)
    assert any(c.status == "FAIL" for c in lines)


@pytest.mark.parametrize("N, marks", [
    # the FD-step term 10 h_t^2 (1.846e-3) sets lambda_dot's tolerance
    (4001, {"flux vs integral route": True, "lambda_dot vs FD": False,
            "lambda_ddot vs FD": True, "lambda_ddot ~ 0 (affine case)": True}),
    # the base term 1e-4 (1 + |lambda|) (1.338e-4) sets lambda_ddot's tolerance,
    # above its h^2 floor of 4.8e-5
    (16001, {"flux vs integral route": True, "lambda_dot vs FD": False,
             "lambda_ddot vs FD": False, "lambda_ddot ~ 0 (affine case)": True}),
])
def test_widened_mark_only_where_the_h2_floor_sets_the_tolerance(N, marks):
    airy = next(e for e in default_battery() if e.key == "airy")
    lines = {c.check: c.widened for c in verify_entry(airy, N, 5)}
    assert {check: lines[check] for check in marks} == marks
