import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import dual_pair_check_alone, path_length_per_sample, self_duality_scan_per_exponent

from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.geometry import (
    double_sqrt_function,
    dual_pair_check,
    general_pullback_differential,
    identity_function,
    log_function,
    path_length,
    power_function,
    pullback_condition_check,
    pullback_differential,
    pullback_metric,
    self_duality_scan,
    sqrt_pullback,
    symmetry_margin,
    wy_distance,
    wy_distance_audit,
    wy_geodesic,
)
from wyinfo.linalg import (
    hs_inner,
    matrix_function,
    random_density,
    random_tangent,
    random_unitary,
)
from wyinfo.monotone import catalog_entry, metric_eval

WY = catalog_entry("wy")
st_seed = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Square-root embedding
# ---------------------------------------------------------------------------

def test_sqrt_pullback_maximally_mixed():
    n = 3
    img = sqrt_pullback(np.eye(n) / n)
    assert np.allclose(img, 2.0 / np.sqrt(n) * np.eye(n))


@given(seed=st_seed)
def test_sqrt_pullback_lands_on_radius_two_sphere(seed):
    img = sqrt_pullback(random_density(4, seed))
    assert hs_inner(img, img) == pytest.approx(4.0, abs=1e-11)


@given(seed=st_seed)
def test_pullback_differential_leibniz(seed):
    rho = random_density(3, seed)
    a = random_tangent(3, seed + 1)
    root = matrix_function(rho, np.sqrt)
    d = pullback_differential(rho, a)
    assert np.max(np.abs(d @ root + root @ d - 2.0 * a)) <= 1e-10


def test_pullback_differential_commuting_case():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a = np.diag([0.2, 0.1, -0.3]).astype(complex)
    expected = a @ np.diag(1.0 / np.sqrt(np.diag(rho).real))
    assert np.allclose(pullback_differential(rho, a), expected, atol=1e-12)


def test_pullback_metric_equals_wy_metric():
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 4
        rho = random_density(n, trial)
        a = random_tangent(n, trial + 1)
        b = random_tangent(n, trial + 2)
        m = metric_eval(WY, rho, a, b)
        worst = max(worst, abs(pullback_metric(rho, a, b) - m) / (1.0 + abs(m)))
    assert worst <= 1e-10


def test_pullback_metric_maximally_mixed_value():
    a = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    assert pullback_metric(0.5 * np.eye(2), a, a) == pytest.approx(2.0, rel=1e-12)


@given(seed=st_seed)
def test_pullback_metric_bilinear(seed):
    rho = random_density(3, seed)
    a = random_tangent(3, seed + 1)
    b = random_tangent(3, seed + 2)
    c = random_tangent(3, seed + 3)
    lhs = pullback_metric(rho, a, 1.5 * b - 2.0 * c)
    rhs = 1.5 * pullback_metric(rho, a, b) - 2.0 * pullback_metric(rho, a, c)
    assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

def test_distance_identical_states():
    rho = random_density(3, 0)
    d, clamp = wy_distance_audit(rho, rho)
    assert d == pytest.approx(0.0, abs=1e-7)
    assert clamp <= 1e-12


def test_distance_two_level_diagonal_value():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sig = np.diag([0.1, 0.9]).astype(complex)
    # Tr sqrt(rho) sqrt(sigma) = 2 sqrt(0.09) = 0.6
    assert wy_distance(rho, sig) == pytest.approx(2.0 * math.acos(0.6), rel=1e-12)


@given(seed=st_seed)
def test_distance_symmetric_and_unitary_invariant(seed):
    rho = random_density(3, seed)
    sig = random_density(3, seed + 1)
    u = random_unitary(3, seed + 2)
    d = wy_distance(rho, sig)
    assert abs(d - wy_distance(sig, rho)) <= 1e-12
    d_rot = wy_distance(u @ rho @ u.conj().T, u @ sig @ u.conj().T)
    assert abs(d - d_rot) <= 1e-11


def test_distance_triangle_inequality_sampled():
    for trial in range(200):
        n = 2 + trial % 3
        rho = random_density(n, 3 * trial)
        sig = random_density(n, 3 * trial + 1)
        tau = random_density(n, 3 * trial + 2)
        assert wy_distance(rho, tau) <= wy_distance(rho, sig) + wy_distance(sig, tau) + 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_wy_distance_audit_stack_equals_per_pair(n):
    rhos = random_density(n, list(range(12)))
    sigmas = random_density(n, list(range(100, 112)))
    sigmas[:4] = rhos[:4]  # equal pairs, where the arccos argument can need clamping
    dist, clamp = wy_distance_audit(rhos, sigmas)
    pairs = [wy_distance_audit(r, s) for r, s in zip(rhos, sigmas)]
    assert all(isinstance(v, float) for pair in pairs for v in pair)
    assert np.all(dist == [d for d, _ in pairs])
    assert np.all(clamp == [c for _, c in pairs])
    assert np.all(wy_distance(rhos, sigmas) == dist)


def test_distance_bounded_by_two_pi():
    for trial in range(200):
        d = wy_distance(random_density(2, trial), random_density(2, trial + 1))
        assert d <= 2.0 * np.pi


# ---------------------------------------------------------------------------
# Geodesic path and length
# ---------------------------------------------------------------------------

def test_geodesic_endpoints_and_trace():
    rho = random_density(3, 10)
    sig = random_density(3, 11)
    path = wy_geodesic(rho, sig)
    assert np.max(np.abs(path.sampler(0.0) - rho)) <= 1e-10
    assert np.max(np.abs(path.sampler(1.0) - sig)) <= 1e-10
    for t in np.linspace(0.0, 1.0, 17):
        g = path.sampler(float(t))
        assert abs(np.trace(g).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(g)[0] > -1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_geodesic_sampler_stack_equals_per_t(n):
    path = wy_geodesic(random_density(n, 80 + n), random_density(n, 90 + n))
    ts = np.concatenate((np.linspace(0.0, 1.0, 33), np.random.default_rng(n).random(7)))
    stack = path.sampler(ts)
    assert stack.shape == (len(ts), n, n)
    assert np.all(stack == np.stack([path.sampler(float(t)) for t in ts]))
    assert np.all(path.sampler(ts.reshape(5, 8)) == stack.reshape(5, 8, n, n))


def test_geodesic_constant_for_equal_endpoints():
    rho = random_density(3, 12)
    path = wy_geodesic(rho, rho)
    for t in (0.0, 0.3, 0.8, 1.0):
        assert np.max(np.abs(path.sampler(t) - rho)) <= 1e-12


def test_geodesic_stays_on_sphere():
    rho = random_density(3, 13)
    sig = random_density(3, 14)
    path = wy_geodesic(rho, sig)
    for t in np.linspace(0.0, 1.0, 9):
        img = sqrt_pullback(path.sampler(float(t)))
        assert hs_inner(img, img) == pytest.approx(4.0, abs=1e-10)


def test_path_length_constant_path_is_zero():
    rho = random_density(2, 15)
    assert path_length(WY, lambda t: rho, steps=200) == pytest.approx(0.0, abs=1e-12)


def test_path_length_matches_distance():
    for trial in range(4):
        n = 2 + trial % 2
        if trial % 2 == 0:
            rho = random_density(n, 20 + trial)
            sig = random_density(n, 30 + trial)
        else:  # commuting pair
            rng = np.random.default_rng(trial)
            p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
            q = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
            rho = np.diag(p / p.sum()).astype(complex)
            sig = np.diag(q / q.sum()).astype(complex)
        d = wy_distance(rho, sig)
        length = path_length(WY, wy_geodesic(rho, sig), steps=4000)
        assert abs(length - d) <= 1e-4 * d


def test_path_length_second_order_convergence():
    rho = random_density(2, 40)
    sig = random_density(2, 41)
    d = wy_distance(rho, sig)
    path = wy_geodesic(rho, sig)
    err = [abs(path_length(WY, path, steps=s) - d) for s in (100, 200, 400)]
    assert 2.5 <= err[0] / err[1] <= 6.0
    assert 2.5 <= err[1] / err[2] <= 6.0


def test_path_length_rejects_bad_sample():
    rho = random_density(2, 42)
    with pytest.raises(InvariantViolation) as exc:
        path_length(WY, lambda t: rho * (1.0 + 0.1 * t), steps=100)
    assert exc.value.invariant == "density-sample"
    negative = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvariantViolation) as exc:
        path_length(WY, lambda t: rho if t < 0.5 else negative, steps=1000)
    assert exc.value.invariant == "density-sample"
    assert "eigenvalue" in str(exc.value)
    with pytest.raises(InvariantViolation):
        path_length(WY, lambda t: rho, steps=10)


def test_path_length_rejects_non_finite_speed():
    # diag(1, 0) is on the boundary: the wy kernel 4/(sqrt x + sqrt y)^2 is infinite at (0, 0)
    path = wy_geodesic(np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            path_length(WY, path, steps=100)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("steps", [100, 1000, 1001])
def test_path_length_equals_per_sample_reference(n, steps):
    path = wy_geodesic(random_density(n, 60 + n), random_density(n, 70 + n))
    assert path_length(WY, path, steps=steps) == path_length_per_sample(WY, path.sampler, steps)


# ---------------------------------------------------------------------------
# General pull-back differential and the pull-back condition
# ---------------------------------------------------------------------------

def test_general_pullback_identity_function():
    rho = random_density(3, 50)
    a = random_tangent(3, 51)
    out = general_pullback_differential(identity_function(), rho, a)
    assert np.max(np.abs(out - a)) <= 1e-10


def test_general_pullback_matches_kernel_formulation():
    phi = double_sqrt_function()
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 3
        rho = random_density(n, trial)
        a = random_tangent(n, trial + 7)
        via_split = general_pullback_differential(phi, rho, a)
        via_kernel = pullback_differential(rho, a)
        worst = max(worst, np.max(np.abs(via_split - via_kernel)))
    assert worst <= 1e-9


def test_general_pullback_stable_at_small_eigenvalue_gap():
    # a gap just above the degeneracy threshold, where dividing by the gap
    # loses half the digits
    phi = double_sqrt_function()
    u = random_unitary(3, 7)
    a = random_tangent(3, 8)
    w = np.array([0.3, 0.3 + 2e-8, 0.4 - 2e-8])
    rho = (u * w) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    diff = general_pullback_differential(phi, rho, a) - pullback_differential(rho, a)
    assert np.max(np.abs(diff)) <= 1e-12


def test_general_pullback_commuting_log():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a = np.diag([0.2, 0.1, -0.3]).astype(complex)
    out = general_pullback_differential(log_function(), rho, a)
    assert np.allclose(out, np.linalg.inv(rho) @ a, atol=1e-12)


def test_pullback_condition_sqrt_exact():
    assert pullback_condition_check(double_sqrt_function(), WY) <= 1e-12


def test_pullback_condition_identity_fails():
    assert pullback_condition_check(identity_function(), WY) >= 0.1


def test_pullback_condition_identity_against_flat_fixture_kernel():
    # the difference quotient of the identity is 1, matching the constant
    # kernel; that kernel is a test fixture only, never a catalog member
    from wyinfo.monotone import MonotoneFunctionEntry, catalog
    flat = MonotoneFunctionEntry("flat-fixture", lambda x: np.ones_like(np.asarray(x, float)),
                                 c=lambda x, y: np.ones_like(x * y))
    assert pullback_condition_check(identity_function(), flat) <= 1e-15
    assert "flat-fixture" not in {e.id for e in catalog()}


# ---------------------------------------------------------------------------
# Dual pairs and self-duality
# ---------------------------------------------------------------------------

def test_dual_pair_identity_log_is_valid():
    report = dual_pair_check(identity_function(), log_function(), trials=100, seed=0)
    assert report.passes
    # induced f is the Kubo-Mori representative (x - 1) / log x
    bkm = catalog_entry("bkm")
    xs = np.logspace(-2, 2, 31)
    assert np.max(np.abs(report.induced_f(xs) - bkm.f(xs))) <= 1e-9


def test_dual_pair_sqrt_power_is_self_dual():
    phi = power_function(0.5)
    report = dual_pair_check(phi, phi, trials=100, seed=1)
    assert report.passes
    xs = np.logspace(-2, 2, 31)
    assert np.max(np.abs(report.induced_f(xs) - WY.f(xs))) <= 1e-9


def test_dual_pair_linear_self_pair_fails_symmetry():
    phi = power_function(1.0)
    report = dual_pair_check(phi, phi, trials=50, seed=2)
    assert report.f_normalized
    assert not report.f_symmetric
    assert not report.passes


def test_self_duality_scan_isolates_half():
    rows = self_duality_scan([-1.0, -0.5, 0.5, 1.5, 2.0], trials=100, seed=3)
    passes = {row["p"] for row in rows if row["passes"]}
    assert passes == {0.5}


def test_self_duality_symmetry_margins_at_ten():
    for p in (-1.0, 2.0):
        phi = power_function(p)
        report = dual_pair_check(phi, phi, trials=10, seed=4)
        assert symmetry_margin(report.induced_f, 10.0) >= 1e-2


# 130 trials at n = 3 are two blocks; the grid includes exponents whose f is not monotone
@pytest.mark.parametrize("n, trials, seed",
                         [(3, 200, 0), (3, 130, 1), (2, 50, 2), (4, 60, 2**64 - 1)])
def test_self_duality_scan_equals_per_exponent_reference(n, trials, seed):
    grid = [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0, 3.0]
    rows = self_duality_scan(grid, trials=trials, n=n, seed=seed)
    assert rows == self_duality_scan_per_exponent(grid, trials=trials, n=n, seed=seed)
    assert {row["p"] for row in rows if row["report"].monotonicity_violations} >= {2.0, 3.0}


def test_dual_pair_check_equals_reference():
    for phi, chi in [(identity_function(), log_function()), (power_function(2.0),) * 2]:
        assert (dual_pair_check(phi, chi, trials=130, n=3, seed=5)
                == dual_pair_check_alone(phi, chi, trials=130, n=3, seed=5))


def test_self_duality_scan_rejects_excluded_exponents():
    with pytest.raises(InvariantViolation):
        self_duality_scan([0.5, 1.0])


def test_dual_pair_check_rejects_dimension_zero():
    with pytest.raises(InvariantViolation) as exc:
        dual_pair_check(power_function(0.5), power_function(0.5), trials=5, n=0)
    assert exc.value.invariant == "dimension"


def test_self_duality_scan_rejects_dimension_zero():
    with pytest.raises(InvariantViolation) as exc:
        self_duality_scan([0.5], trials=5, n=0)
    assert exc.value.invariant == "dimension"


def test_power_function_rejects_zero():
    with pytest.raises(InvariantViolation):
        power_function(0.0)
