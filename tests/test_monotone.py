import decimal
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import random_unitary, sampled_monotonicity_per_trial, tangent_split
from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.linalg import (
    KrausChannel,
    TrialStream,
    hs_inner,
    random_density,
    random_kraus_channel,
    random_tangent,
)
from wyinfo.monotone import (
    LOEWNER_ATOL,
    LOEWNER_GRID,
    MonotoneFunctionEntry,
    catalog,
    catalog_entry,
    contraction_check,
    loewner_margin,
    metric_eval,
    skew_identity_residual,
    skew_information,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

LOG_GRID = np.logspace(-3, 3, 100)
st_seed = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Catalog invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_catalog_normalized(entry):
    assert abs(float(np.asarray(entry.f(1.0))) - 1.0) <= 1e-12


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_catalog_symmetric(entry):
    fx = np.asarray(entry.f(LOG_GRID), dtype=float)
    xf = LOG_GRID * np.asarray(entry.f(1.0 / LOG_GRID), dtype=float)
    assert np.max(np.abs(fx - xf) / (1.0 + np.abs(fx))) <= 1e-12


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_catalog_kernel_consistency(entry):
    xs = np.logspace(-3, 3, 20)
    x = xs[:, None]
    y = xs[None, :]
    lhs = np.asarray(entry.c(x, y), dtype=float)
    rhs = 1.0 / (y * np.asarray(entry.f(x / y), dtype=float))
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-12


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_catalog_kernel_diagonal(entry):
    diag = np.asarray(entry.c(LOG_GRID, LOG_GRID), dtype=float)
    assert np.max(np.abs(diag - 1.0 / LOG_GRID) * LOG_GRID) <= 1e-12


def test_wy_closed_form_values():
    wy = catalog_entry("wy")
    assert float(np.asarray(wy.f(4.0))) == pytest.approx(2.25, abs=1e-15)
    assert float(np.asarray(wy.c(1.0, 1.0))) == pytest.approx(1.0, abs=1e-15)
    assert float(np.asarray(wy.c(4.0, 1.0))) == pytest.approx(4.0 / 9.0, abs=1e-15)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_kernel_derivative_matches_complex_step(entry):
    h = 1e-20
    rng = np.random.default_rng(1)
    pts = list(zip(rng.uniform(0.05, 3.0, 20), rng.uniform(0.05, 3.0, 20)))
    pts += [(0.7, 0.7 + 3e-7), (1.0, 1.0)]  # exercise near-diagonal branches
    for x, y in pts:
        step = np.imag(np.asarray(entry.c(x + 1j * h, y))) / h
        closed = float(np.asarray(entry.dc_dx(x, y)))
        assert abs(closed - step) <= 1e-9 * (1.0 + abs(step))


def test_bkm_kernel_stable_branch_continuity():
    bkm = catalog_entry("bkm")
    x = 1.3
    for gap in (1e-2, 1e-3, 1e-5, 1e-6, 1e-7, 1e-9, 0.0):
        val = float(np.asarray(bkm.c(x, x + gap)))
        assert val == pytest.approx(1.0 / x, rel=1e-2)
    assert float(np.asarray(bkm.c(x, x))) == pytest.approx(1.0 / x, rel=1e-14)


def test_bkm_kernel_series_matches_f_identity_in_window():
    # inside the series window the kernel must still satisfy c = 1/(y f(x/y)),
    # where f takes its own accurate direct branch for these ratios
    bkm = catalog_entry("bkm")
    y = 0.7
    for u in (2.5e-2, 1e-2, 3e-3, 1e-3, 3e-4):
        x = y * (1.0 + u)
        via_f = 1.0 / (y * float(np.asarray(bkm.f(x / y))))
        assert float(np.asarray(bkm.c(x, y))) == pytest.approx(via_f, rel=1e-11)


def test_bkm_derivative_series_matches_kernel_stencil():
    # reference: Richardson central difference of the kernel (validated above)
    bkm = catalog_entry("bkm")
    y = 0.7
    h = 1e-2 * y
    for u in (2e-2, 1e-3, 1e-5, 1e-7, 0.0):
        x = y * (1.0 + u)
        d1 = (float(np.asarray(bkm.c(x + h, y))) - float(np.asarray(bkm.c(x - h, y)))) / (2 * h)
        d2 = (float(np.asarray(bkm.c(x + h / 2, y)))
              - float(np.asarray(bkm.c(x - h / 2, y)))) / h
        reference = (4.0 * d2 - d1) / 3.0
        closed = float(np.asarray(bkm.dc_dx(x, y)))
        assert abs(closed - reference) <= 1e-6 * abs(reference)


def _f_bkm_reference(x: float) -> float:
    """(x - 1)/log x from 50-digit decimal arithmetic, correctly rounded to a float."""
    if x in (0.0, 1.0):
        return x  # the limits at 0 and 1
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = decimal.Decimal(x)
        return float((d - 1) / d.ln())


def test_bkm_f_within_two_ulp_of_50_digit_reference():
    off = np.geomspace(1e-16, 1e-4, 500)
    xs = np.concatenate([[0.0, 1.0], 1.0 + off, 1.0 - off, 1.0 + np.linspace(-1e-4, 1e-4, 1001),
                         np.logspace(-12, 6, 3000), np.random.default_rng(0).uniform(0.0, 4.0, 1000)])
    got = catalog_entry("bkm").f(xs)
    want = [_f_bkm_reference(float(x)) for x in xs]
    assert got[0] == 0.0 and got[1] == 1.0
    ulps = [abs(g - w) / math.ulp(w) for g, w in zip(got[2:].tolist(), want[2:])]
    assert max(ulps) <= 2.0


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------

def test_metric_maximally_mixed_is_scaled_hs():
    for entry in catalog():
        n = 3
        a = random_tangent(n, 4)
        val = metric_eval(entry, np.eye(n) / n, a, a)
        assert val == pytest.approx(n * hs_inner(a, a), rel=1e-12)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_metric_commuting_tangent_is_inverse_weighted(entry):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a = np.diag([0.4, -0.1, -0.3]).astype(complex)
    expected = float(np.trace(np.linalg.inv(rho) @ a @ a).real)
    assert metric_eval(entry, rho, a, a) == pytest.approx(expected, rel=1e-12)


@given(seed=st_seed)
def test_metric_symmetric_and_bilinear(seed):
    wy = catalog_entry("wy")
    rho = random_density(3, seed)
    a = random_tangent(3, seed + 1)
    b = random_tangent(3, seed + 2)
    c = random_tangent(3, seed + 3)
    ab = metric_eval(wy, rho, a, b)
    assert abs(ab - metric_eval(wy, rho, b, a)) <= 1e-11 * (1.0 + abs(ab))
    lin = metric_eval(wy, rho, a, 2.0 * b - 0.5 * c)
    direct = 2.0 * ab - 0.5 * metric_eval(wy, rho, a, c)
    assert abs(lin - direct) <= 1e-10 * (1.0 + abs(direct))


def test_metric_positive_definite_on_unit_tangents():
    for entry in catalog():
        for seed in range(25):
            rho = random_density(3, seed)
            a = random_tangent(3, seed + 100)
            a /= np.linalg.norm(a)
            assert metric_eval(entry, rho, a, a) >= 1e-12


def test_metric_splits_orthogonally():
    from wyinfo.linalg import commutator
    wy = catalog_entry("wy")
    for seed in range(10):
        rho = random_density(4, seed)
        a = random_tangent(4, seed + 1)
        split = tangent_split(rho, a)
        orth = 1j * commutator(rho, split.generator)
        total = metric_eval(wy, rho, a, a)
        parts = metric_eval(wy, rho, split.commuting, split.commuting) + \
            metric_eval(wy, rho, orth, orth)
        assert abs(total - parts) <= 1e-10 * (1.0 + abs(total))


def test_metric_unitary_covariance():
    for entry in catalog():
        rho = random_density(3, 8)
        a = random_tangent(3, 9)
        b = random_tangent(3, 10)
        u = random_unitary(3, 11)
        before = metric_eval(entry, rho, a, b)
        after = metric_eval(entry, u @ rho @ u.conj().T, u @ a @ u.conj().T,
                            u @ b @ u.conj().T)
        assert abs(before - after) <= 1e-10 * (1.0 + abs(before))


# ---------------------------------------------------------------------------
# Skew information
# ---------------------------------------------------------------------------

def test_skew_information_commuting_vanishes():
    rho = np.diag([0.7, 0.3]).astype(complex)
    a = np.diag([2.0, -1.0]).astype(complex)
    assert skew_information(rho, a) == pytest.approx(0.0, abs=1e-14)


def test_skew_information_two_level_value():
    rho = np.diag([0.9, 0.1]).astype(complex)
    expected = 2.0 * (np.sqrt(0.9) - np.sqrt(0.1)) ** 2
    assert skew_information(rho, PAULI_X) == pytest.approx(expected, rel=1e-12)


@given(seed=st_seed)
def test_skew_information_unitary_invariance(seed):
    rho = random_density(3, seed)
    a = random_tangent(3, seed + 1) + 0.3 * np.eye(3)
    u = random_unitary(3, seed + 2)
    before = skew_information(rho, a)
    after = skew_information(u @ rho @ u.conj().T, u @ a @ u.conj().T)
    assert abs(before - after) <= 1e-11 * (1.0 + abs(before))


def test_skew_information_scalar_shift_invariance():
    rho = random_density(3, 3)
    a = random_tangent(3, 4)
    base = skew_information(rho, a)
    shifted = skew_information(rho, a + 0.7 * np.eye(3))
    assert abs(base - shifted) <= 1e-11 * (1.0 + abs(base))


def test_skew_identity_two_level_value():
    rho = np.diag([0.9, 0.1]).astype(complex)
    from wyinfo.monotone import metric_eval as me
    t = 1j * (rho @ PAULI_X - PAULI_X @ rho)
    lhs = me(catalog_entry("wy"), rho, t, t)
    assert lhs == pytest.approx(4.0 * 2.0 * (np.sqrt(0.9) - np.sqrt(0.1)) ** 2, rel=1e-12)
    assert skew_identity_residual(rho, PAULI_X) <= 1e-12


def test_skew_identity_residual_random():
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 4
        rho = random_density(n, seed)
        a = random_tangent(n, seed + 1)
        worst = max(worst, skew_identity_residual(rho, a))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Operator monotonicity: the Loewner margin
# ---------------------------------------------------------------------------

SQUARE = MonotoneFunctionEntry("square-fixture", lambda x: np.asarray(x) ** 2)


def test_monotonicity_identity_function():
    # the Loewner matrix of the identity is all ones: eigenvalues 0 and 48
    assert abs(loewner_margin(np.asarray)) <= 1e-12


def test_monotonicity_wy_catalog():
    assert loewner_margin(catalog_entry("wy").f) >= -LOEWNER_ATOL


def test_monotonicity_square_counterexample():
    assert loewner_margin(SQUARE.f) < -1.0


# seeds 2^32 + 5 and 2^64 - 1 make every trial key three 32-bit words long
@pytest.mark.parametrize("entry, n, seed", [
    pytest.param(e, n, seed, id=f"{e.id}-{n}" + ("" if seed == 11 else f"-seed{seed}"))
    for seed in (11, 2**32 + 5, 2**64 - 1) for e in [*catalog(), SQUARE] for n in (2, 3, 4)])
def test_sampled_monotonicity_equals_per_trial_reference(entry, n, seed):
    # the Loewner verdict against 300 random pairs 0 <= A <= B checked one at a time
    violations, worst = sampled_monotonicity_per_trial(entry, 300, n, seed)
    assert (loewner_margin(entry.f) >= -LOEWNER_ATOL) == (violations == 0)
    assert (violations == 0) == (worst >= -1e-9)


# x^1 is the identity test above
@pytest.mark.parametrize("f", [e.f for e in catalog()]
                         + [lambda x, p=p: np.asarray(x) ** p for p in (0.25, 0.5)],
                         ids=[e.id for e in catalog()] + ["x^0.25", "x^0.5"])
def test_loewner_margin_passes_operator_monotone_functions(f):
    # measured -7.5e-13 (sld) at worst
    assert loewner_margin(f) >= -LOEWNER_ATOL


# x^2 is the square counterexample above
@pytest.mark.parametrize("f, bound", [
    (lambda x: np.asarray(x) ** -0.01, -10.0),
    (lambda x: np.asarray(x) ** 1.01, -0.1),
    (lambda x: np.asarray(x) ** 1.5, -10.0),
    (lambda x: catalog_entry("wy").f(x) + 0.05 * np.asarray(x) ** 2, -1.0),
], ids=["x^-0.01", "x^1.01", "x^1.5", "wy+0.05x^2"])
def test_loewner_margin_fails_functions_that_are_not_operator_monotone(f, bound):
    # measured -26, -0.62, -126 and -37
    assert loewner_margin(f) < bound


def test_loewner_margin_keeps_the_sign_where_f_prime_vanishes():
    # a constant is (weakly) operator monotone: its Loewner matrix is zero
    assert loewner_margin(lambda x: 0.0 * np.asarray(x) + 3.0) == 0.0
    assert loewner_margin(lambda x: -np.asarray(x)) < -1.0


@pytest.mark.parametrize("f", [lambda x: 1.0 / (np.asarray(x) - LOEWNER_GRID[5]),
                               lambda x: np.sqrt(np.asarray(x) - 1.0)],
                         ids=["pole-on-grid", "nan-below-1"])
def test_loewner_margin_rejects_f_not_finite_on_the_grid(f):
    with pytest.raises(DomainError):
        loewner_margin(f)


def test_loewner_margin_needs_a_complex_evaluable_f():
    with pytest.raises(InvariantViolation) as exc:
        loewner_margin(lambda x: np.real(x) ** 0.5)
    assert exc.value.invariant == "complex-evaluable"


def test_catalog_entry_rejects_unknown_id():
    with pytest.raises(InvariantViolation) as exc:
        catalog_entry("nope")
    assert exc.value.invariant == "function-id"


def test_metric_and_contraction_name_a_missing_kernel():
    # an entry without c (as dual_pair_check induces) has no metric
    entry = MonotoneFunctionEntry("f-only", catalog_entry("wy").f)
    rho, a = random_density(2, 1), random_tangent(2, 2)
    with pytest.raises(InvariantViolation) as exc:
        metric_eval(entry, rho, a, a)
    assert exc.value.invariant == "kernel-defined"
    with pytest.raises(InvariantViolation) as exc:
        contraction_check((entry,), random_kraus_channel(2, 2, 2, 3), rho, a)
    assert exc.value.invariant == "kernel-defined"


# ---------------------------------------------------------------------------
# Contraction under channels
# ---------------------------------------------------------------------------

def test_contraction_identity_channel_is_equality():
    ch = KrausChannel(kraus=(np.eye(3),))
    rho = random_density(3, 5)
    a = random_tangent(3, 6)
    for entry in catalog():
        res, = contraction_check((entry,), ch, rho, a)
        assert res.g_after == pytest.approx(res.g_before, rel=1e-10)
        assert not res.refloored


def test_contraction_depolarizing_kills_tangent():
    n = 2
    kraus = []
    for i in range(n):
        for j in range(n):
            k = np.zeros((n, n), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(n)
            kraus.append(k)
    ch = KrausChannel(kraus=tuple(kraus))
    res, = contraction_check((catalog_entry("wy"),), ch, random_density(n, 1), random_tangent(n, 2))
    assert res.g_after == pytest.approx(0.0, abs=1e-12)
    assert res.g_after <= res.g_before


def test_contraction_random_channels_never_expand():
    for entry in catalog():
        for seed in range(60):
            n = 2 + seed % 2
            ch = random_kraus_channel(n, n, 1 + seed % 3, seed)
            rho = random_density(n, seed + 1)
            a = random_tangent(n, seed + 2)
            res, = contraction_check((entry,), ch, rho, a)
            assert res.g_after <= res.g_before + 1e-9 * (1.0 + res.g_before)


def _amplitude_damping(gamma=1.0 - 1e-14):
    kraus = (
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    )
    return KrausChannel(kraus=kraus)


def test_contraction_refloors_near_singular_output():
    ch = _amplitude_damping()
    res, = contraction_check((catalog_entry("wy"),), ch, random_density(2, 3), random_tangent(2, 4))
    assert res.refloored
    assert np.isfinite(res.g_after)


def test_contraction_refloors_in_the_output_dimension():
    # K_i = |0><i| maps every state of C^3 to |0><0| in C^2, so the floor mixes with I/2
    kraus = np.zeros((3, 2, 3))
    kraus[np.arange(3), 0, np.arange(3)] = 1.0
    res, = contraction_check((catalog_entry("wy"),), KrausChannel(kraus),
                             random_density(3, 1), random_tangent(3, 2))
    assert res.refloored
    assert res.g_after == pytest.approx(0.0, abs=1e-12)  # A maps to Tr(A) |0><0| = 0
    assert res.g_before > 0.0


def test_contraction_single_input_gives_python_scalars():
    wy = catalog_entry("wy")
    rho, a = random_density(2, 3), random_tangent(2, 4)
    plain, = contraction_check((wy,), random_kraus_channel(2, 2, 2, 8), rho, a)
    floored, = contraction_check((wy,), _amplitude_damping(), rho, a)
    # full damping maps every state to |0><0|, which the default floor repairs
    damped, = contraction_check((wy,), _amplitude_damping(gamma=1.0), rho, a)
    for res in (plain, floored, damped):
        assert [type(v) for v in vars(res).values()] == [float, float, bool]
    assert floored.refloored and damped.refloored and not plain.refloored
    assert np.isfinite(damped.g_after)


def _stacked(channels):
    return KrausChannel(np.stack([c.kraus for c in channels]))


def _assert_stack_matches_slices(entry, channels, rhos, tangents):
    res, = contraction_check((entry,), _stacked(channels), rhos, tangents)
    for k, ch in enumerate(channels):
        one, = contraction_check((entry,), ch, rhos[k], tangents[k])
        assert (res.g_before[k], res.g_after[k]) == (one.g_before, one.g_after)
        assert res.refloored[k] == one.refloored
    return res


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_contraction_stack_matches_slices_bitwise(entry, n):
    channels = [random_kraus_channel(n, n, 3, 100 * n + k) for k in range(4)]
    rhos = random_density(n, TrialStream(n, 1, 0, 4))
    tangents = random_tangent(n, TrialStream(n, 2, 0, 4))
    res = _assert_stack_matches_slices(entry, channels, rhos, tangents)
    assert not res.refloored.any()


@pytest.mark.parametrize("n", [2, 3])
def test_contraction_of_several_entries_equals_each_entry_alone(n):
    # one map, re-floor and pair of eigendecompositions serve every entry
    channel = random_kraus_channel(n, n, 2, TrialStream(n, 0, 0, 6))
    rhos = random_density(n, TrialStream(n, 1, 0, 6))
    tangents = random_tangent(n, TrialStream(n, 2, 0, 6))
    first = KrausChannel(channel.kraus[0])
    cases = [(channel, rhos, tangents), (first, rhos[0], tangents[0])]
    if n == 2:  # a stack with one re-floored slice
        damped = _stacked([random_kraus_channel(2, 2, 2, 8), _amplitude_damping()])
        cases.append((damped, np.stack([rhos[0]] * 2), np.stack([tangents[0]] * 2)))
    for args in cases:
        many = contraction_check(catalog(), *args)
        assert isinstance(many, tuple) and len(many) == len(catalog())
        for entry, res in zip(catalog(), many):
            one, = contraction_check((entry,), *args)
            assert np.array_equal(res.g_before, one.g_before)
            assert np.array_equal(res.g_after, one.g_after)
            assert np.array_equal(res.refloored, one.refloored)
            assert type(res.g_before) is type(one.g_before)


def test_contraction_decomposes_each_state_once(monkeypatch):
    # the re-floor test reads rho''s smallest eigenvalue from its one eigh
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    channel = random_kraus_channel(3, 3, 2, TrialStream(3, 0, 0, 4))
    rhos = random_density(3, TrialStream(3, 1, 0, 4))
    tangents = random_tangent(3, TrialStream(3, 2, 0, 4))
    results = contraction_check(catalog(), channel, rhos, tangents)
    assert not results[0].refloored.any()
    assert calls == ["eigh", "eigh"]


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_contraction_stack_refloors_only_the_damped_slice(entry):
    channels = [random_kraus_channel(2, 2, 2, 8), _amplitude_damping()]
    rhos = np.stack([random_density(2, 3)] * 2)
    tangents = np.stack([random_tangent(2, 4)] * 2)
    res = _assert_stack_matches_slices(entry, channels, rhos, tangents)
    assert res.refloored.tolist() == [False, True]


def test_contraction_indefinite_state_raises_strict_positivity():
    # the floor repairs any positive semidefinite output; an indefinite rho
    # stays indefinite under the identity channel, alone and in a stack
    sld = catalog_entry("sld")
    ch = KrausChannel(kraus=(np.eye(2),))
    bad, a = np.diag([2.0, -1.0]).astype(complex), random_tangent(2, 4)
    with pytest.raises(InvariantViolation) as exc:
        contraction_check((sld,), ch, bad, a)
    assert exc.value.invariant == "strict-positivity"
    assert "slice" not in str(exc.value)
    rhos = np.stack([random_density(2, 3), bad])
    with pytest.raises(InvariantViolation) as exc:
        contraction_check((sld,), _stacked([ch, ch]), rhos, np.stack([a, a]))
    assert exc.value.invariant == "strict-positivity"
    assert "in slice (1,)" in str(exc.value)
