from dataclasses import asdict

import numpy as np
import pytest

from oracles import classical_g_divergence, classical_kl, relative_modular_apply
from wyinfo import divergence
from wyinfo.divergence import (
    OperatorConvexG,
    alpha_parameter,
    g_catalog,
    g_entry,
    hessian_check,
    monotone_from_convex,
    relative_g_entropy,
)
from wyinfo.errors import InvariantViolation
from wyinfo.geometry import bures_distance, wy_distance
from wyinfo.linalg import (
    TrialStream,
    apply_channel,
    matrix_function,
    random_density,
    random_kraus_channel,
    random_tangent,
)
from wyinfo.monotone import catalog_entry
from wyinfo.suites import SuiteConfig, run_suite

G_WY = g_entry("g_wy")
G_UM = g_entry("g_umegaki")


def _floored_density(n, seed, floor=5e-2):
    rho = random_density(n, seed)
    return (1.0 - n * floor) * rho + floor * np.eye(n)


def _unit_tangent(n, seed):
    a = random_tangent(n, seed)
    return a / np.linalg.norm(a)


# ---------------------------------------------------------------------------
# Relative modular operator
# ---------------------------------------------------------------------------

def test_modular_linear_shift_fixture():
    # g(x) = x - 1 turns the modular action into sigma X rho^{-1} - X
    rho = random_density(3, 0)
    sig = random_density(3, 1)
    root = matrix_function(rho, np.sqrt)
    out = relative_modular_apply(rho, sig, lambda x: x - 1.0, root)
    inv_root = matrix_function(rho, lambda x: x**-0.5)
    expected = sig @ inv_root - root
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_modular_equal_states_kills_diagonal():
    rho = random_density(3, 2)
    out = relative_modular_apply(rho, rho, G_WY.g, matrix_function(rho, np.sqrt))
    # sqrt(rho) is diagonal in the shared eigenbasis, and g(1) = 0
    assert np.max(np.abs(out)) <= 1e-12


def test_modular_linearity():
    rho = random_density(3, 3)
    sig = random_density(3, 4)
    x = random_tangent(3, 5)
    y = random_tangent(3, 6)
    lhs = relative_modular_apply(rho, sig, G_UM.g, 2.0 * x - 0.3 * y)
    rhs = 2.0 * relative_modular_apply(rho, sig, G_UM.g, x) \
        - 0.3 * relative_modular_apply(rho, sig, G_UM.g, y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


# ---------------------------------------------------------------------------
# Relative g-entropy
# ---------------------------------------------------------------------------

def test_entropy_wy_closed_form():
    for seed in range(20):
        n = 2 + seed % 3
        rho = random_density(n, seed)
        sig = random_density(n, seed + 1)
        closed = 4.0 * (1.0 - float(np.trace(
            matrix_function(rho, np.sqrt) @ matrix_function(sig, np.sqrt)).real))
        assert abs(relative_g_entropy(rho, sig, G_WY) - closed) <= 1e-11


def test_entropy_umegaki_is_quantum_relative_entropy():
    rho = random_density(3, 7)
    sig = random_density(3, 8)
    log_rho = matrix_function(rho, np.log)
    log_sig = matrix_function(sig, np.log)
    expected = float(np.trace(rho @ (log_rho - log_sig)).real)
    assert relative_g_entropy(rho, sig, G_UM) == pytest.approx(expected, rel=1e-11)


def test_entropy_zero_at_equal_arguments():
    rho = random_density(4, 9)
    assert relative_g_entropy(rho, rho, G_WY) == pytest.approx(0.0, abs=1e-12)
    assert relative_g_entropy(rho, rho, G_UM) == pytest.approx(0.0, abs=1e-12)


def test_entropy_nonnegative_on_samples():
    for g in g_catalog():
        for seed in range(50):
            rho = random_density(3, seed)
            sig = random_density(3, seed + 1)
            assert relative_g_entropy(rho, sig, g) >= -1e-12


def test_entropy_diagonal_reduces_to_classical_sum():
    rng = np.random.default_rng(10)
    for g in g_catalog():
        for _ in range(10):
            p = rng.dirichlet(np.ones(3)) * 0.98 + 0.02 / 3
            q = rng.dirichlet(np.ones(3)) * 0.98 + 0.02 / 3
            p, q = p / p.sum(), q / q.sum()
            quantum = relative_g_entropy(np.diag(p).astype(complex),
                                         np.diag(q).astype(complex), g)
            classical = classical_g_divergence(p, q, g.g)
            assert abs(quantum - classical) <= 1e-11
            if g.id == "g_umegaki":
                assert abs(quantum - classical_kl(p, q)) <= 1e-11


def test_entropy_matches_distance_link():
    # H_wy = 4 (1 - cos(d/2))
    for seed in range(20):
        rho = random_density(3, seed)
        sig = random_density(3, seed + 100)
        h = relative_g_entropy(rho, sig, G_WY)
        d = wy_distance(rho, sig)
        assert abs(h - 4.0 * (1.0 - np.cos(0.5 * d))) <= 1e-11


def test_entropy_data_processing_sampled():
    for g in g_catalog():
        for seed in range(200):
            n = 2 + seed % 2
            ch = random_kraus_channel(n, n, 1 + seed % 3, seed)
            rho = random_density(n, seed + 1)
            sig = random_density(n, seed + 2)
            before = relative_g_entropy(rho, sig, g)
            out_r = apply_channel(ch, rho)
            out_s = apply_channel(ch, sig)
            out_r = 0.5 * (out_r + out_r.conj().T)
            out_s = 0.5 * (out_s + out_s.conj().T)
            if min(np.linalg.eigvalsh(out_r)[0], np.linalg.eigvalsh(out_s)[0]) <= 1e-10:
                continue
            after = relative_g_entropy(out_r, out_s, g)
            assert after <= before + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("g", g_catalog(), ids=lambda g: g.id)
def test_entropy_stack_equals_single_pairs(g, n):
    rho = random_density(n, TrialStream(n, 0, 0, 7))
    sig = random_density(n, TrialStream(n, 1, 0, 7))
    stacked = relative_g_entropy(rho, sig, g)
    assert stacked.shape == (7,)
    assert stacked.tolist() == [relative_g_entropy(r, s, g) for r, s in zip(rho, sig)]


def test_single_pair_gives_floats():
    rho = _floored_density(3, 20)
    a = _unit_tangent(3, 21)
    assert type(relative_g_entropy(rho, random_density(3, 22), G_WY)) is float
    assert all(type(v) is float for v in asdict(hessian_check(G_UM, rho, a, a)).values())


# ---------------------------------------------------------------------------
# Monotone function from convex function
# ---------------------------------------------------------------------------

def test_monotone_from_convex_wy():
    entry = monotone_from_convex(G_WY)
    wy = catalog_entry("wy")
    xs = np.logspace(-3, 3, 100)
    assert np.max(np.abs(entry.f(xs) - wy.f(xs)) / (1.0 + np.abs(wy.f(xs)))) <= 1e-12


def test_monotone_from_convex_umegaki_is_kubo_mori():
    entry = monotone_from_convex(G_UM)
    bkm = catalog_entry("bkm")
    xs = np.logspace(-3, 3, 100)
    assert np.max(np.abs(entry.f(xs) - bkm.f(xs)) / (1.0 + np.abs(bkm.f(xs)))) <= 1e-12


@pytest.mark.parametrize("g_id, f_id", [("g_wy", "wy"), ("g_umegaki", "bkm")])
def test_monotone_from_convex_near_one(g_id, f_id):
    # measured: at most 3.4e-9 inside the 1e-4 series window (its (x-1)^2 term), up to
    # 7.7e-8 just outside it, where the direct quotient cancels, then falling like
    # eps/(x-1)^2; logspace(-3, 3)'s nearest point to 1 is 1.07
    gaps = np.logspace(-10.0, -1.0, 50)
    xs = np.concatenate([1.0 - gaps, 1.0 + gaps])
    want = catalog_entry(f_id).f(xs)
    got = monotone_from_convex(g_entry(g_id)).f(xs)
    assert np.max(np.abs(got - want) / want) <= 1e-7


def test_monotone_from_convex_series_window():
    for g in g_catalog():
        entry = monotone_from_convex(g)
        assert float(np.asarray(entry.f(1.0))) == pytest.approx(1.0, abs=1e-12)
        for x in (1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 9e-5):
            val = float(np.asarray(entry.f(x)))
            series = 1.0 + 0.5 * (x - 1.0)
            assert val == pytest.approx(series, abs=1e-8)


# ---------------------------------------------------------------------------
# Hessian verification
# ---------------------------------------------------------------------------

def test_hessian_zero_directions():
    rho = _floored_density(3, 0)
    z = np.zeros((3, 3), dtype=complex)
    res = hessian_check(G_WY, rho, z, z)
    assert res.numeric == pytest.approx(0.0, abs=1e-12)
    assert res.analytic == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("g", g_catalog(), ids=lambda g: g.id)
def test_hessian_matches_metric_on_random_inputs(g):
    worst = 0.0
    for trial in range(15):
        n = 2 + trial % 3
        rho = _floored_density(n, trial)
        a = _unit_tangent(n, trial + 1)
        b = _unit_tangent(n, trial + 2)
        worst = max(worst, hessian_check(g, rho, a, b).residual)
    assert worst <= 1e-4


def test_hessian_step_halving_second_order(monkeypatch):
    rho = _floored_density(3, 5)
    a = _unit_tangent(3, 6)
    b = _unit_tangent(3, 7)
    res = {}
    for h in (4e-3, 2e-3, 1e-3):
        monkeypatch.setattr(divergence, "HESSIAN_STEP", h)
        res[h] = hessian_check(G_UM, rho, a, b)
        assert res[h].step == h
    e = {h: abs(r.numeric - r.analytic) for h, r in res.items()}
    assert 2.5 <= e[4e-3] / e[2e-3] <= 6.0
    assert 2.5 <= e[2e-3] / e[1e-3] <= 6.0


@pytest.mark.parametrize("g, numeric, analytic, residual", [
    (G_WY, 53590.33849008121, 50000.50000500008, 0.07179461585596729),
    (G_UM, 54931.11443837234, 50000.50000500007, 0.098609330377673),
], ids=["g_wy", "g_umegaki"])
def test_hessian_step_shrinks_to_half_the_smallest_eigenvalue(g, numeric, analytic, residual):
    # lambda_min 1e-5 and |A|_2 = 1/sqrt 2 give h = 0.5e-5 sqrt 2 = 7.071067811865476e-06; the
    # pinned values are the stencil's at that step when it was passed in explicitly
    rho = np.diag([1.0 - 1e-5, 1e-5])
    a = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    res = hessian_check(g, rho, a, a)
    assert res.step == 0.5 * 1e-5 / np.linalg.norm(a, 2) == 7.071067811865476e-06
    assert (res.numeric, res.analytic, res.residual) == (numeric, analytic, residual)


def _hessian_stack(n, seeds):
    rho = np.stack([_floored_density(n, s) for s in seeds])
    a = np.stack([_unit_tangent(n, s + 1) for s in seeds])
    b = np.stack([_unit_tangent(n, s + 2) for s in seeds])
    return rho, a, b


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("g", g_catalog(), ids=lambda g: g.id)
def test_hessian_stack_equals_single_calls(g, n):
    rho, a, b = _hessian_stack(n, range(5))
    stacked = hessian_check(g, rho, a, b)
    singles = [hessian_check(g, *args) for args in zip(rho, a, b)]
    for field in ("numeric", "analytic", "residual", "step"):
        assert getattr(stacked, field).tolist() == [getattr(r, field) for r in singles]
    assert stacked.step.tolist() == [1e-3] * 5


@pytest.mark.parametrize("g", g_catalog(), ids=lambda g: g.id)
def test_hessian_stack_of_different_steps_equals_single_calls(g):
    rho, a, b = _hessian_stack(3, range(4))
    # slice 1 is floored at 1e-4, so A sets its step; slice 2 has a zero A and a B of 2-norm 100
    rho[1] = np.diag([1e-4, 0.4, 0.6 - 1e-4])
    a[2] = 0.0
    b[2] *= 100.0 / np.linalg.norm(b[2], 2)
    stacked = hessian_check(g, rho, a, b)
    singles = [hessian_check(g, *args) for args in zip(rho, a, b)]
    assert all(type(v) is float for r in singles for v in asdict(r).values())
    for field in ("numeric", "analytic", "residual", "step"):
        assert getattr(stacked, field).tolist() == [getattr(r, field) for r in singles]
    lo = np.linalg.eigvalsh(rho[2])[0]
    assert stacked.step[1] == 0.5e-4 / np.linalg.norm(a[1], 2) < 1e-3
    assert stacked.step[2] == 0.5 * lo / np.linalg.norm(b[2], 2) < 1e-3
    assert stacked.step[0] == stacked.step[3] == 1e-3


@pytest.mark.parametrize("smallest", [0.0, -1e-4], ids=["singular", "negative"])
def test_hessian_stack_names_first_bad_slice(smallest):
    rho, a, b = _hessian_stack(3, range(5))
    # slices 1 and 3 are not positive definite; a refusal does not wait for the directions
    for i in (1, 3):
        rho[i] = np.diag([smallest, 0.4, 0.6 - smallest])
    a[1] = b[1] = 0.0
    with pytest.raises(InvariantViolation, match=r"in slice \(1,\)") as stacked:
        hessian_check(G_WY, rho, a, b)
    with pytest.raises(InvariantViolation) as single:
        hessian_check(G_WY, rho[1], a[1], b[1])
    assert stacked.value.invariant == single.value.invariant == "strict-positivity"
    assert f"smallest eigenvalue {smallest:.3e}" in str(single.value)
    assert "slice" not in str(single.value)


def test_hessian_result_shape():
    rho = _floored_density(2, 10)
    a = _unit_tangent(2, 11)
    d = asdict(hessian_check(G_WY, rho, a, a))
    assert set(d) == {"numeric", "analytic", "residual", "step"}


# ---------------------------------------------------------------------------
# Connection parameter
# ---------------------------------------------------------------------------

def test_alpha_values():
    assert alpha_parameter(G_WY) == pytest.approx(0.0, abs=1e-12)
    assert alpha_parameter(G_UM) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("g, d2, d3", [(G_WY, 1.0, -1.5), (G_UM, 1.0, -2.0)], ids=["wy", "um"])
def test_derived_derivatives_match_the_closed_forms(g, d2, d3):
    # g_wy = 4(1 - sqrt x) has g'' = x^-1.5 and g''' = -1.5 x^-2.5; g_umegaki = -log x has
    # g'' = x^-2 and g''' = -2 x^-3
    assert abs(g.d2_at_1 - d2) <= 1e-14
    assert abs(g.d3_at_1 - d3) <= 1e-14


def test_alpha_third_derivative_free_fixture():
    fixture = OperatorConvexG("fixture", lambda x: (x - 1.0) ** 2)
    assert alpha_parameter(fixture) == pytest.approx(3.0)


def test_alpha_undefined_when_flat():
    # an affine g has g''(1) = 0, which leaves alpha undefined: refused on construction
    with pytest.raises(InvariantViolation) as exc:
        OperatorConvexG("flat", lambda x: 2.0 * (x - 1.0))
    assert exc.value.invariant == "g-convex"


@pytest.mark.parametrize("g, invariant", [
    (lambda x: (x - 1.0) ** 2 + 1.0, "g-at-1"),
    (lambda x: -((x - 1.0) ** 2), "g-convex"),
    (lambda x: np.real(x - 1.0) ** 2, "complex-evaluable"),
], ids=["not-zero-at-1", "concave", "real-on-complex"])
def test_operator_convex_g_names_what_it_refuses(g, invariant):
    with pytest.raises(InvariantViolation) as exc:
        OperatorConvexG("bad", g)
    assert exc.value.invariant == invariant


def test_alpha_suite_fails_for_a_wrong_g(monkeypatch):
    # 4(1 - x^0.6)/0.96 keeps g''(1) = 1 but has g'''(1) = -1.4, so alpha = 0.2
    wrong = OperatorConvexG("g_wy", lambda x: 4.0 * (1.0 - x ** 0.6) / 0.96)
    monkeypatch.setattr(divergence, "_G_CATALOG", (wrong, G_UM))
    report = run_suite(SuiteConfig(suite="alpha"))
    rows = {c.name: c for c in report.checks}
    assert not report.passed
    assert not rows["alpha-g_wy"].passed and rows["alpha-g_umegaki"].passed
    assert rows["alpha-g_wy"].actual == pytest.approx(0.2, abs=1e-12)


def test_g_entry_unknown_id():
    with pytest.raises(InvariantViolation):
        g_entry("nope")


# ---------------------------------------------------------------------------
# Comparison distance
# ---------------------------------------------------------------------------

def test_bures_zero_at_equal_states():
    rho = random_density(3, 12)
    assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)


def test_bures_commuting_value():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sig = np.diag([0.1, 0.9]).astype(complex)
    assert bures_distance(rho, sig) == pytest.approx(np.sqrt(0.8), rel=1e-12)


def test_bures_symmetric():
    for seed in range(100):
        rho = random_density(3, seed)
        sig = random_density(3, seed + 1)
        assert abs(bures_distance(rho, sig) - bures_distance(sig, rho)) <= 1e-10
