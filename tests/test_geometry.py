import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    double_sqrt_function,
    general_pullback_differential,
    identity_function,
    log_function,
    path_length_per_node,
    pullback_condition_check,
    random_unitary,
    sampled_dual_pair,
    sqrt_pullback,
)

from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.geometry import (
    LENGTH_NODES,
    GeodesicPath,
    _length_rule,
    dual_pair_check,
    path_length,
    power_function,
    pullback_differential,
    pullback_metric,
    self_duality_scan,
    wy_distance,
    wy_distance_audit,
    wy_geodesic,
)
from wyinfo.linalg import (
    TrialStream,
    _complex_step,
    hs_inner,
    matrix_function,
    random_density,
    random_tangent,
)
from wyinfo.monotone import (
    LOEWNER_ATOL,
    LOEWNER_GRID,
    MonotoneFunctionEntry,
    catalog_entry,
    metric_eval,
)
from wyinfo.suites import DUAL_PAIR_GRID

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
    rhos = random_density(n, TrialStream(n, 0, 0, 12))
    sigmas = random_density(n, TrialStream(n, 1, 0, 12))
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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_geodesic_velocity_is_hermitian_traceless_and_stacks(n):
    path = wy_geodesic(random_density(n, 100 + n), random_density(n, 110 + n))
    ts = np.concatenate((np.linspace(0.0, 1.0, 9), np.random.default_rng(n).random(7)))
    stack = path.velocity(ts)
    assert stack.shape == (len(ts), n, n)
    assert np.all(stack == np.stack([path.velocity(float(t)) for t in ts]))
    assert np.max(np.abs(stack - stack.conj().swapaxes(-1, -2))) <= 1e-14
    assert np.max(np.abs(np.trace(stack, axis1=-2, axis2=-1))) <= 1e-14


@given(seed=st_seed)
def test_geodesic_velocity_matches_central_differences(seed):
    path = wy_geodesic(random_density(3, seed), random_density(3, seed + 1))
    h, ts = 1e-5, np.array([0.1, 0.5, 0.9])
    v = path.velocity(ts)
    diff = (path.sampler(ts + h) - path.sampler(ts - h)) / (2.0 * h)
    assert np.max(np.abs(v - diff)) <= 1e-7 * np.max(np.abs(v))


def test_path_length_constant_path_is_zero():
    rho = random_density(2, 15)
    assert path_length(WY, wy_geodesic(rho, rho)) == 0.0


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
        length = path_length(WY, wy_geodesic(rho, sig))
        assert abs(length - d) <= 1e-12 * d


@pytest.mark.parametrize("f", ["sld", "bkm", "rld"])
def test_path_length_nodes_resolve_catalog_speeds(f):
    # guards LENGTH_NODES: a 64-node rule agrees with the 32-node length
    entry = catalog_entry(f)
    path = wy_geodesic(random_density(3, 120), random_density(3, 121))
    reference = path_length_per_node(entry, path, 64)
    assert abs(path_length(entry, path) - reference) <= 1e-13 * reference


def _zero_velocity(t):
    return np.zeros((*np.shape(t), 2, 2), dtype=complex)


def test_path_length_rejects_bad_sample():
    rho = random_density(2, 42)
    scaled = GeodesicPath(lambda t: rho * (1.0 + 0.1 * np.asarray(t)[..., None, None]),
                          _zero_velocity)
    with pytest.raises(InvariantViolation) as exc:
        path_length(WY, scaled)
    assert exc.value.invariant == "density-sample"
    negative = np.diag([1.5, -0.5]).astype(complex)
    jump = GeodesicPath(lambda t: np.where(np.asarray(t)[..., None, None] < 0.5, rho, negative),
                        _zero_velocity)
    with pytest.raises(InvariantViolation) as exc:
        path_length(WY, jump)
    assert exc.value.invariant == "density-sample"
    assert "eigenvalue" in str(exc.value)


def test_path_length_rejects_non_finite_speed():
    # every node on the boundary: the wy kernel 4/(sqrt x + sqrt y)^2 is infinite at (0, 0)
    pure = np.diag([1.0, 0.0]).astype(complex)
    path = GeodesicPath(lambda t: np.broadcast_to(pure, (*np.shape(t), 2, 2)), _zero_velocity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            path_length(WY, path)


def test_path_length_names_a_missing_kernel():
    path = wy_geodesic(random_density(2, 40), random_density(2, 41))
    with pytest.raises(InvariantViolation) as exc:
        path_length(MonotoneFunctionEntry("f-only", WY.f), path)
    assert exc.value.invariant == "kernel-defined"


def test_path_length_integrates_geodesic_from_boundary_endpoint():
    # the nodes are interior, so a path that meets the boundary only at t = 0 has a length
    rho, sig = np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2
    assert path_length(WY, wy_geodesic(rho, sig)) == pytest.approx(np.pi / 2, rel=1e-14)
    assert wy_distance(rho, sig) == pytest.approx(np.pi / 2, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [100, 1000, 1001])
def test_path_length_equals_per_sample_reference(n, seed):
    path = wy_geodesic(random_density(n, seed + n), random_density(n, seed + 10 + n))
    assert path_length(WY, path) == path_length_per_node(WY, path, LENGTH_NODES)


def _pair_stacks(n, shape):
    """Random states rho and sigma, each a stack of the given leading shape."""
    count = math.prod(shape)
    rho, sig = (random_density(n, TrialStream(5, word, 0, count)) for word in (1, 2))
    return rho.reshape(*shape, n, n), sig.reshape(*shape, n, n)


@pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["4", "2x3"])
@pytest.mark.parametrize("n", [2, 3])
def test_geodesic_stack_equals_each_pair(n, shape):
    rho, sig = _pair_stacks(n, shape)
    stacked = wy_geodesic(rho, sig)
    for t in (0.3, np.linspace(0.0, 1.0, 32), np.linspace(0.0, 1.0, 40).reshape(5, 8)):
        samples, velocities = stacked.sampler(t), stacked.velocity(t)
        assert samples.shape == velocities.shape == (*shape, *np.shape(t), n, n)
        for k in np.ndindex(shape):
            alone = wy_geodesic(rho[k], sig[k])
            assert np.array_equal(samples[k], alone.sampler(t))
            assert np.array_equal(velocities[k], alone.velocity(t))


@pytest.mark.parametrize("f", ["wy", "sld", "bkm", "rld"])
@pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["4", "2x3"])
def test_path_length_stack_equals_each_pair(shape, f):
    entry = catalog_entry(f)
    rho, sig = _pair_stacks(3, shape)
    lengths = path_length(entry, wy_geodesic(rho, sig))
    assert isinstance(lengths, np.ndarray) and lengths.shape == shape
    for k in np.ndindex(shape):
        alone = path_length(entry, wy_geodesic(rho[k], sig[k]))
        assert isinstance(alone, float)
        assert lengths[k] == alone


HALF = np.eye(2, dtype=complex) / 2


@pytest.mark.parametrize("late, detail", [
    (np.diag([0.5, 0.6]).astype(complex), "trace 1.100000000000"),
    (np.diag([1.5, -0.5]).astype(complex), "eigenvalue -5.000e-01"),
], ids=["trace", "eigenvalue"])
def test_path_length_names_the_bad_path_of_a_stack(late, detail):
    # three constant paths at I/2, except that path 2 jumps to `late` after t = 0.5

    def sampler(t):
        after = np.asarray(t)[..., None, None] > 0.5
        good = np.broadcast_to(HALF, after.shape[:-2] + (2, 2))
        return np.stack([good, good, np.where(after, late, HALF)])

    path = GeodesicPath(sampler, lambda t: np.zeros((3, *np.shape(t), 2, 2), dtype=complex))
    with pytest.raises(InvariantViolation) as exc:
        path_length(WY, path)
    assert exc.value.invariant == "density-sample"
    nodes = _length_rule()[0]
    assert str(exc.value).endswith(f"({detail} at t={nodes[nodes > 0.5][0]} in path (2,))")


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
    report = dual_pair_check(identity_function(), log_function())
    assert report.passes
    # induced f is the Kubo-Mori representative (x - 1) / log x
    bkm = catalog_entry("bkm")
    xs = np.logspace(-2, 2, 31)
    assert np.max(np.abs(report.induced_f(xs) - bkm.f(xs))) <= 1e-9


def test_dual_pair_sqrt_power_is_self_dual():
    phi = power_function(0.5)
    report = dual_pair_check(phi, phi)
    assert report.passes
    xs = np.logspace(-2, 2, 31)
    assert np.max(np.abs(report.induced_f(xs) - WY.f(xs))) <= 1e-9


def test_dual_pair_linear_self_pair_fails_symmetry():
    phi = power_function(1.0)
    report = dual_pair_check(phi, phi)
    assert report.f_normalized
    assert not report.f_symmetric
    assert not report.passes


def test_self_duality_scan_isolates_half():
    reports = self_duality_scan([-1.0, -0.5, 0.5, 1.5, 2.0])
    passes = {p for p, report in reports.items() if report.passes}
    assert passes == {0.5}


def test_self_duality_symmetry_residuals():
    # the dual-pairs rows symmetry-margin-p-1 and -p2 read these residuals
    reports = self_duality_scan([-1.0, 0.5, 2.0])
    assert reports[0.5].symmetry_residual <= 1e-9
    assert reports[-1.0].symmetry_residual == pytest.approx(99.99, abs=5e-3)
    assert reports[2.0].symmetry_residual == pytest.approx(391.96, abs=5e-3)


def _flags(report):
    return (report.induced_c_valid, report.f_normalized, report.f_symmetric,
            report.symmetry_residual)


def _sampled_flags(pair):
    return tuple(pair[k] for k in ("induced_c_valid", "f_normalized", "f_symmetric",
                                   "symmetry_residual"))


# the grid includes exponents whose f is not monotone; a sampled violation
# proves that f is not operator monotone, so the Loewner margin must fail there
@pytest.mark.parametrize("n, trials, seed",
                         [(3, 200, 0), (3, 130, 1), (2, 50, 2), (4, 60, 2**64 - 1)])
def test_self_duality_scan_equals_per_exponent_reference(n, trials, seed):
    grid = [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0, 3.0]
    reports = self_duality_scan(grid)
    assert list(reports) == grid
    for p, report in reports.items():
        pair = sampled_dual_pair(power_function(p), power_function(p), trials, n, seed)
        assert _flags(report) == _sampled_flags(pair)
        if pair["violations"]:
            assert report.loewner_margin < -LOEWNER_ATOL
    assert {p for p, report in reports.items() if report.loewner_margin < -1.0} >= {2.0, 3.0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loewner_verdicts_equal_sampled_verdicts_on_dual_pair_grid(seed):
    for p in DUAL_PAIR_GRID:
        phi = power_function(p)
        report = dual_pair_check(phi, phi)
        pair = sampled_dual_pair(phi, phi, trials=200, n=3, seed=seed)
        assert (report.loewner_margin >= -LOEWNER_ATOL) == (pair["violations"] == 0), p
        assert report.passes == pair["passes"], p


def test_dual_pair_check_equals_reference():
    for phi, chi in [(identity_function(), log_function()), (power_function(2.0),) * 2]:
        report = dual_pair_check(phi, chi)
        pair = sampled_dual_pair(phi, chi, trials=130, n=3, seed=5)
        assert _flags(report) == _sampled_flags(pair)
        assert (report.loewner_margin >= -LOEWNER_ATOL) == (pair["violations"] == 0)
        assert report.passes == pair["passes"]


def test_induced_f_takes_a_complex_step_without_a_warning():
    phi = power_function(0.5)
    f = dual_pair_check(phi, phi).induced_f
    x = LOEWNER_GRID  # no node within the coincidence window of 1, where the step would nest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = _complex_step(f, x)
    # the induced f of the square-root pair is wy's, f' = (1 + x^-1/2) / 4
    assert np.max(np.abs(step - 0.25 * (1.0 + x ** -0.5))) <= 1e-14


def test_induced_f_names_a_nested_complex_step():
    # at t = 1 the step lands in the quotient's coincidence window, whose own
    # complex step would read f'(1) = 0.444 instead of 0.5
    phi = power_function(0.5)
    f = dual_pair_check(phi, phi).induced_f
    with pytest.raises(InvariantViolation) as exc:
        _complex_step(f, 1.0)
    assert exc.value.invariant == "nested-complex-step"
    # just outside the window the step is back on the direct quotient
    assert abs(_complex_step(f, 1.0 + 2e-6) - 0.5) <= 1e-4


def test_self_duality_scan_rejects_excluded_exponents():
    with pytest.raises(InvariantViolation):
        self_duality_scan([0.5, 1.0])


def test_dual_pair_check_flags_kernel_not_finite_on_grid():
    # 1/(x - 1) has its pole at the grid point 1, where the difference quotient is infinite
    report = dual_pair_check(lambda x: 1.0 / (np.asarray(x) - 1.0), identity_function())
    assert report.induced_c_valid is False
    assert report.loewner_margin == -np.inf
    assert not report.passes


def test_dual_pair_check_records_f_not_finite_on_the_loewner_grid():
    # chi[t, 1] = t - x0 vanishes at the Loewner node x0, so f(t) = 1 / (t - x0) has its
    # pole there; the 41-point log grid of the kernel check misses that node
    x0 = LOEWNER_GRID[0]
    root = lambda x: (np.asarray(x) - x0) * (np.asarray(x) - 1.0)
    report = dual_pair_check(identity_function(), root)
    assert report.loewner_margin == -np.inf
    assert not report.passes


def test_power_function_rejects_zero():
    with pytest.raises(InvariantViolation):
        power_function(0.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_power_function_rejects_non_finite_exponents(p):
    with pytest.raises(InvariantViolation) as exc:
        power_function(p)
    assert exc.value.invariant == "power-exponent"
    with pytest.raises(InvariantViolation) as exc:
        self_duality_scan([0.5, p])
    assert exc.value.invariant == "power-exponent"
