import decimal
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import sampled_monotonicity_per_trial
from wyinfo.errors import InvariantViolation
from wyinfo.linalg import (
    KrausChannel,
    hs_inner,
    random_density,
    random_kraus_channel,
    random_tangent,
    random_unitary,
)
from wyinfo.monotone import (
    MonotoneFunctionEntry,
    catalog,
    catalog_entry,
    contraction_check,
    metric_eval,
    sampled_operator_monotonicity,
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
    assert entry.complex_evaluable
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
    from wyinfo.linalg import commutator, tangent_split
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
# Sampled operator monotonicity
# ---------------------------------------------------------------------------

SQUARE = MonotoneFunctionEntry("square-fixture", lambda x: np.asarray(x, float) ** 2)


def test_monotonicity_identity_function():
    entry = MonotoneFunctionEntry("identity-fixture", lambda x: np.asarray(x, float))
    report = sampled_operator_monotonicity(entry, trials=100, n=3, seed=0)
    assert report.violations == 0
    assert report.worst_margin >= -1e-12


def test_monotonicity_wy_catalog():
    report = sampled_operator_monotonicity(catalog_entry("wy"), trials=500, n=3, seed=1)
    assert report.violations == 0


def test_monotonicity_square_counterexample():
    report = sampled_operator_monotonicity(SQUARE, trials=500, n=3, seed=2)
    assert report.violations >= 1
    assert report.worst_margin < -1e-9


# seeds 2^32 + 5 and 2^64 - 1 make every trial key three 32-bit words long
@pytest.mark.parametrize("entry, n, seed", [
    pytest.param(e, n, seed, id=f"{e.id}-{n}" + ("" if seed == 11 else f"-seed{seed}"))
    for seed in (11, 2**32 + 5, 2**64 - 1) for e in [*catalog(), SQUARE] for n in (2, 3, 4)])
def test_sampled_monotonicity_equals_per_trial_reference(entry, n, seed):
    # 300 trials span two blocks at n = 2, three at n = 3 and five at n = 4
    report = sampled_operator_monotonicity(entry, trials=300, n=n, seed=seed)
    violations, worst = sampled_monotonicity_per_trial(entry, 300, n, seed)
    assert report.violations == violations
    assert report.worst_margin == worst


def test_monotonicity_sequence_equals_one_call_per_entry(monkeypatch):
    entries = [*catalog(), SQUARE]
    singles = [sampled_operator_monotonicity(e, trials=300, n=3, seed=7) for e in entries]
    eigh_calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: eigh_calls.append(1) or eigh(h))
    # 300 trials at n = 3 are three blocks, each decomposed once for all five entries
    assert sampled_operator_monotonicity(entries, trials=300, n=3, seed=7) == singles
    assert len(eigh_calls) == 3
    assert sampled_operator_monotonicity(iter(entries[:2]), 300, 3, 7) == singles[:2]
    assert sampled_operator_monotonicity([], 300, 3, 7) == []


def test_monotonicity_rejects_dimension_zero():
    with pytest.raises(InvariantViolation) as exc:
        sampled_operator_monotonicity(catalog_entry("wy"), 5, 0, 0)
    assert exc.value.invariant == "dimension"


def test_monotonicity_report_shape():
    report = sampled_operator_monotonicity(catalog_entry("sld"), trials=5, n=2, seed=3)
    d = report.as_dict()
    assert set(d) == {"function_id", "trials", "violations", "worst_margin", "skipped"}
    assert d["trials"] == 5


# ---------------------------------------------------------------------------
# Contraction under channels
# ---------------------------------------------------------------------------

def test_contraction_identity_channel_is_equality():
    ch = KrausChannel(kraus=(np.eye(3),), input_dim=3, output_dim=3)
    rho = random_density(3, 5)
    a = random_tangent(3, 6)
    for entry in catalog():
        res = contraction_check(entry, ch, rho, a)
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
    ch = KrausChannel(kraus=tuple(kraus), input_dim=n, output_dim=n)
    res = contraction_check(catalog_entry("wy"), ch, random_density(n, 1), random_tangent(n, 2))
    assert res.g_after == pytest.approx(0.0, abs=1e-12)
    assert res.g_after <= res.g_before


def test_contraction_random_channels_never_expand():
    for entry in catalog():
        for seed in range(60):
            n = 2 + seed % 2
            ch = random_kraus_channel(n, n, 1 + seed % 3, seed)
            rho = random_density(n, seed + 1)
            a = random_tangent(n, seed + 2)
            res = contraction_check(entry, ch, rho, a)
            assert res.skipped is None
            assert res.g_after <= res.g_before + 1e-9 * (1.0 + res.g_before)


def _amplitude_damping(gamma=1.0 - 1e-14):
    kraus = (
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    )
    return KrausChannel(kraus=kraus, input_dim=2, output_dim=2)


def test_contraction_refloors_near_singular_output():
    ch = _amplitude_damping()
    res = contraction_check(catalog_entry("wy"), ch, random_density(2, 3), random_tangent(2, 4))
    assert res.refloored
    assert np.isfinite(res.g_after)


def test_contraction_single_input_gives_python_scalars():
    wy = catalog_entry("wy")
    rho, a = random_density(2, 3), random_tangent(2, 4)
    plain = contraction_check(wy, random_kraus_channel(2, 2, 2, 8), rho, a)
    floored = contraction_check(wy, _amplitude_damping(), rho, a)
    skipped = contraction_check(wy, _amplitude_damping(gamma=1.0), rho, a, refloor_eps=0.0)
    assert [type(v) for v in vars(plain).values()] == [float, float, bool, type(None)]
    assert [type(v) for v in vars(floored).values()] == [float, float, bool, type(None)]
    assert [type(v) for v in vars(skipped).values()] == [float, float, bool, str]
    assert floored.refloored and skipped.refloored and not plain.refloored


def _stacked(channels):
    return KrausChannel(np.stack([c.kraus for c in channels]),
                        channels[0].input_dim, channels[0].output_dim)


def _assert_stack_matches_slices(entry, channels, rhos, tangents):
    res = contraction_check(entry, _stacked(channels), rhos, tangents)
    for k, ch in enumerate(channels):
        one = contraction_check(entry, ch, rhos[k], tangents[k])
        assert (res.g_before[k], res.g_after[k]) == (one.g_before, one.g_after)
        assert (res.refloored[k], res.skipped[k]) == (one.refloored, one.skipped)
    return res


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_contraction_stack_matches_slices_bitwise(entry, n):
    seeds = [100 * n + k for k in range(4)]
    channels = [random_kraus_channel(n, n, 3, s) for s in seeds]
    rhos = random_density(n, [s + 1 for s in seeds])
    tangents = random_tangent(n, [s + 2 for s in seeds])
    res = _assert_stack_matches_slices(entry, channels, rhos, tangents)
    assert not res.refloored.any()


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_contraction_stack_refloors_only_the_damped_slice(entry):
    channels = [random_kraus_channel(2, 2, 2, 8), _amplitude_damping()]
    rhos = np.stack([random_density(2, 3)] * 2)
    tangents = np.stack([random_tangent(2, 4)] * 2)
    res = _assert_stack_matches_slices(entry, channels, rhos, tangents)
    assert res.refloored.tolist() == [False, True]
    assert res.skipped.tolist() == [None, None]


def test_contraction_stack_skips_only_the_rank_deficient_slice():
    # full damping maps every state to |0><0|; with a zero re-floor weight
    # that output stays singular, so only its slice is skipped
    channels = [random_kraus_channel(2, 2, 2, 8), _amplitude_damping(gamma=1.0)]
    ch = _stacked(channels)
    rhos = np.stack([random_density(2, 3)] * 2)
    tangents = np.stack([random_tangent(2, 4)] * 2)
    wy = catalog_entry("wy")
    res = contraction_check(wy, ch, rhos, tangents, refloor_eps=0.0)
    assert res.refloored.tolist() == [False, True]
    assert res.skipped.tolist() == [None, "output not full rank"]
    assert res.g_after[0] == contraction_check(wy, channels[0], rhos[0], tangents[0]).g_after
    assert np.isnan(res.g_after[1])
    alone = contraction_check(wy, channels[1], rhos[1], tangents[1], refloor_eps=0.0)
    assert alone.skipped == "output not full rank" and np.isnan(alone.g_after)
