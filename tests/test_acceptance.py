"""Acceptance gate: every headline claim at its stated tolerance.

Each test runs one criterion end to end on seeded random inputs, prints a
single PASS/FAIL line (run pytest with -s to see them), and asserts both the
numerical outcome and the runtime budget.
"""

import pytest

from wyinfo.suites import SuiteConfig, run_suite

SEED = 20240811


def _run(suite, n_values, trials, budget_s, tolerances=None, label=None):
    cfg = SuiteConfig(suite=suite, n_values=n_values, trials=trials, seed=SEED,
                      tolerances=tolerances or {})
    report = run_suite(cfg)
    status = "PASS" if report.passed else "FAIL"
    detail = "; ".join(
        f"{c.name}: actual={c.actual:.3e} tol={c.tolerance:.1e}" for c in report.checks)
    print(f"ACCEPTANCE {label or suite}: {status} [{report.wall_time:.2f}s] {detail}")
    assert report.passed, detail
    assert report.wall_time < budget_s, f"runtime {report.wall_time:.1f}s over {budget_s}s budget"
    return report


def test_criterion_01_constant_curvature():
    # scal1 = 1.5 / 14 / 52.5 for n = 2 / 3 / 4, within 1e-6 relative, < 10 s
    report = _run("wy-curvature", (2, 3, 4), 20, 10.0, label="1 wy constant curvature")
    actuals = {c.name: c.actual for c in report.checks}
    assert actuals["scal1-constant-n2"] == pytest.approx(1.5, rel=1e-6)
    assert actuals["scal1-constant-n3"] == pytest.approx(14.0, rel=1e-6)
    assert actuals["scal1-constant-n4"] == pytest.approx(52.5, rel=1e-6)


def test_criterion_02_pullback_equality():
    # 100 random triples, n <= 5, relative gap <= 1e-10, < 5 s
    _run("pullback", (2, 3, 4, 5), 100, 5.0, label="2 pull-back equality")


def test_criterion_03_geodesic_length():
    # 20 pairs (commuting and not), 32 Gauss-Legendre nodes, 1e-4 relative; exact velocity
    # within 1e-6 of central differences, < 60 s
    _run("geodesic-length", (2, 3), 20, 60.0, label="3 geodesic length = distance")


def test_criterion_04_entropy_hessian():
    # both convex catalog entries, 50 triples, floor 5e-2, n <= 4, 1e-4, < 60 s
    _run("hessian", (2, 3, 4), 50, 60.0, label="4 entropy Hessian = metric")


def test_criterion_05_contraction_monotonicity():
    # 500 random (channel, state, tangent), each judged by all four catalog metrics,
    # zero violations, < 120 s
    report = _run("monotonicity", (2, 3), 500, 120.0, label="5 metric contraction")
    for check in report.checks:
        if check.name.startswith("contraction-violations"):
            assert check.actual == 0.0


def test_criterion_06_self_duality_uniqueness():
    # only p = 0.5 passes on the stated grid; margins >= 1e-2 at p in {-1, 2}, < 10 s
    # deterministic: the suite draws nothing, so it takes no n_values or trials
    _run("dual-pairs", None, None, 10.0, label="6 self-duality uniqueness")


def test_criterion_07_skew_identity():
    # metric of i[rho, A] equals 4 I(rho, A) within 1e-9 on 100 samples, < 5 s
    _run("skew-identity", (2, 3, 4, 5), 100, 5.0, label="7 skew-information identity")


def test_criterion_08_classical_consistency():
    # diagonal embedding 1e-11; sphere pull-back 1e-12; transport duality 1e-12, < 5 s
    _run("classical", (2, 3, 4), 50, 5.0, label="8 classical consistency")


def test_criterion_09_alpha_values():
    # alpha(g_wy) = 0 and alpha(g_umegaki) = -1 within 1e-12
    _run("alpha", None, None, 5.0, label="9 alpha parameters")


def test_criterion_10_distance_bound():
    # d <= pi (the sharp bound, as Tr sqrt(rho) sqrt(sigma) >= 0) on 1e4 random pairs;
    # no arccos argument clamped, < 30 s
    report = _run("distance-bound", (2, 3, 4, 5), 10_000, 30.0, label="10 distance bound")
    clamp_events = next(c.actual for c in report.checks if c.name == "clamp-events")
    print(f"  clamp-audit: {int(clamp_events)} clamp events in 10000 pairs")
