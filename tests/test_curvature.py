import dataclasses
from itertools import permutations, product

import numpy as np
import pytest

import oracles
from oracles import fd_scalar_curvature, traceless_hermitian_basis
from wyinfo.curvature import (
    T1_GAP_RTOL,
    T23_GAP_RTOL,
    scal1_shift,
    scal_aux_terms,
    scalar_curvature,
    wy_aux_closed_forms,
)
from wyinfo.errors import InvariantViolation
from wyinfo.linalg import random_density, random_unitary
from wyinfo.monotone import catalog, catalog_entry, metric_eval


def wy_combined(x, y, z):
    t1, t2, t3, t4 = wy_aux_closed_forms(x, y, z)
    return t1 - 0.5 * t2 + 2.0 * t3 - t4


# ---------------------------------------------------------------------------
# Closed forms for the wy kernel
# ---------------------------------------------------------------------------

def test_closed_forms_at_unit_triple():
    t1, t2, t3, t4 = wy_aux_closed_forms(1.0, 1.0, 1.0)
    assert t1 == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert t2 == pytest.approx(1.0 / 4.0, abs=1e-15)
    assert t3 == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert t4 == pytest.approx(1.0 / 4.0, abs=1e-15)


def test_closed_form_t2_generic_value():
    # (sqrt4 + sqrt1 + 2 sqrt1)^2 / (4 (sqrt4 + sqrt1)^2 (sqrt1 + sqrt1)^2)
    assert wy_aux_closed_forms(4.0, 1.0, 1.0)[1] == pytest.approx(25.0 / 144.0, abs=1e-15)


def test_generic_engine_matches_closed_forms_on_random_triples():
    wy = catalog_entry("wy")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.uniform(1e-3, 1.0, size=3)
        got = scal_aux_terms(wy, x, y, z)
        want = wy_aux_closed_forms(x, y, z)
        worst = max(worst, max(abs(g - w) for g, w in zip(got[:4], want)))
    assert worst <= 1e-9


@pytest.mark.parametrize("triple", [
    (0.3, 0.3, 0.9),          # x = y
    (0.3, 0.9, 0.3),          # x = z
    (0.9, 0.3, 0.3),          # y = z
    (0.4, 0.4, 0.4),          # full coincidence
    (0.3, 0.3 + 1e-9, 0.9),   # near-coincident pair
    (0.5, 0.5 - 1e-10, 0.5 + 1e-10),  # near-coincident triple
])
def test_generic_engine_handles_coincident_arguments(triple):
    wy = catalog_entry("wy")
    got = scal_aux_terms(wy, *triple)
    want = wy_aux_closed_forms(*triple)
    for g, w in zip(got[:4], want):
        assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


def test_symmetrized_pairs_vanish():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y, z = rng.uniform(1e-2, 2.0, size=3)
        first = second = 0.0
        for p in permutations((x, y, z)):
            t1, t2, t3, t4 = wy_aux_closed_forms(*p)
            first += t1 - 0.5 * t2
            second += 2.0 * t3 - t4
        assert abs(first) <= 1e-10
        assert abs(second) <= 1e-10


def test_symmetrized_combination_vanishes_to_machine_precision():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y, z = rng.uniform(1e-2, 2.0, size=3)
        total = sum(wy_combined(*p) for p in permutations((x, y, z)))
        assert abs(total) <= 1e-12


# ---------------------------------------------------------------------------
# Scalar curvature
# ---------------------------------------------------------------------------

def test_wy_curvature_constant_all_dims():
    wy = catalog_entry("wy")
    for n in (2, 3, 4):
        expected = scal1_shift(n)
        for trial in range(20):
            rep = scalar_curvature(wy, random_density(n, 100 * n + trial))
            assert abs(rep.scal1 - expected) <= 1e-6 * n**4
            assert rep.scal == pytest.approx(0.0, abs=1e-6 * n**4)


def test_wy_curvature_near_degenerate_spectra():
    wy = catalog_entry("wy")
    for n in (2, 3, 4):
        base = random_density(n, n)
        for eps in (1e-2, 1e-5, 1e-9):
            rho = (1.0 - eps) * np.eye(n) / n + eps * base
            rep = scalar_curvature(wy, rho)
            assert abs(rep.scal1 - scal1_shift(n)) <= 1e-6 * n**4


def test_wy_constancy_across_all_gap_scales():
    # sweeps the eigenvalue gap through every evaluation regime, including
    # the doubly-cancelling band between the branch thresholds
    wy = catalog_entry("wy")
    for g in (1e-3, 3e-4, 1e-4, 5e-5, 1e-5, 1e-6, 2e-7, 1e-7, 1e-8, 1e-10, 0.0):
        rho = np.diag([0.5 + g, 0.5 - g]).astype(complex)
        assert abs(scalar_curvature(wy, rho).scal1 - 1.5) <= 1e-6


@pytest.mark.parametrize("lam, rtol", [(1e-4, 1e-7), (1e-6, 1e-7), (1e-8, 1e-7),
                                       (1e-9, 1e-6),  # the suites' tolerance
                                       (1e-10, 5e-6), (1e-11, 2e-5)])  # the envelope
@pytest.mark.parametrize("shape", ["pair", "single"])
def test_wy_curvature_near_the_boundary(shape, lam, rtol):
    # diag(lam, lam, 1 - 2 lam) or diag(lam, 0.3, 0.7 - lam): the coincidence
    # limits take complex steps, which have no step-size cancellation.  Below
    # lam = 1e-9 the error grows about like eps/lam (pair: 1.2e-6 at 1e-10,
    # 4.4e-6 at 1e-11): (lam, lam, 1) and (lam, 1, lam) terms of size 1/lam
    # cancel to an O(1) sum, and compensated summation does not help.
    spec = [lam, lam, 1.0 - 2.0 * lam] if shape == "pair" else [lam, 0.3, 0.7 - lam]
    scal1 = scalar_curvature(catalog_entry("wy"), np.diag(spec).astype(complex)).scal1
    assert abs(scal1 - 14.0) <= rtol * 14.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wy_cone_curvature_vanishes_to_rounding(n):
    assert abs(scalar_curvature(catalog_entry("wy"), random_density(n, 3)).scal) <= 1e-12


@pytest.mark.parametrize("rho, invariant", [
    (np.diag([np.nan, 1.0]), "finite"),
    (np.array([[0.5, 0.3], [0.1, 0.5]]), "hermitian"),  # eigh would read one triangle
    (np.full((2, 3), 1.0 / 6.0), "square"),
    (np.diag([0.0, 1.0]), "strict-positivity"),
    (np.diag([-0.1, 0.6, 0.5]), "strict-positivity"),
    (np.zeros((0, 0)), "dimension"),  # not scal1_shift(0) = 0.5
])
def test_scalar_curvature_rejects_invalid_states(rho, invariant):
    with pytest.raises(InvariantViolation) as exc:
        scalar_curvature(catalog_entry("wy"), rho)
    assert exc.value.invariant == invariant


@pytest.mark.parametrize("triple", [(np.nan, 0.5, 0.3), (0.2, np.inf, 0.3), (0.2, 0.5, -np.inf)])
def test_aux_terms_reject_non_finite_arguments(triple):
    with pytest.raises(InvariantViolation) as exc:
        scal_aux_terms(catalog_entry("wy"), *triple)
    assert exc.value.invariant == "finite"


def test_engine_rejects_entry_that_is_not_complex_evaluable():
    entry = dataclasses.replace(catalog_entry("sld"), id="sld-real", complex_evaluable=False)
    with pytest.raises(InvariantViolation) as exc:
        scal_aux_terms(entry, 0.2, 0.5, 0.3)
    assert exc.value.invariant == "complex-evaluable"
    with pytest.raises(InvariantViolation):
        scalar_curvature(entry, random_density(2, 0))


def test_bkm_curvature_smooth_through_gap_band():
    # the trace-one curvature tends to its maximally-mixed value like gap^2;
    # any cancellation blow-up in the band would break the envelope
    bkm = catalog_entry("bkm")
    limit = scalar_curvature(bkm, 0.5 * np.eye(2)).scal1
    assert abs(limit) <= 1e-6
    for g in (1e-4, 5e-5, 1e-5, 1e-6, 2e-7, 1e-7, 1e-8):
        rho = np.diag([0.5 + g, 0.5 - g]).astype(complex)
        val = scalar_curvature(bkm, rho).scal1
        assert abs(val - limit) <= 10.0 * g**2 + 1e-7


def test_report_shift_identity_and_shape():
    rep = scalar_curvature(catalog_entry("bkm"), random_density(3, 1))
    assert rep.scal1 == rep.scal + 0.25 * (9 - 1) * (9 - 2)
    d = rep.as_dict()
    assert set(d) == {"function_id", "n", "scal", "scal1", "spectrum"}
    assert len(d["spectrum"]) == 3


@pytest.mark.parametrize("fid", ["bkm", "sld", "rld"])
def test_curvature_continuous_at_degeneracy(fid):
    entry = catalog_entry(fid)
    n = 3
    base = random_density(n, 17)
    center = scalar_curvature(entry, np.eye(n) / n).scal
    resid = []
    for eps in (1e-2, 1e-4):
        rho = (1.0 - eps) * np.eye(n) / n + eps * base
        resid.append(abs(scalar_curvature(entry, rho).scal - center))
    assert np.isfinite(center)
    assert resid[1] < resid[0]


def test_curvature_unitary_invariance():
    for entry in catalog():
        rho = random_density(3, 23)
        u = random_unitary(3, 24)
        a = scalar_curvature(entry, rho).scal1
        b = scalar_curvature(entry, u @ rho @ u.conj().T).scal1
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


# ---------------------------------------------------------------------------
# Independent finite-difference curvature oracle
# ---------------------------------------------------------------------------

def _metric_patch(entry, rho0):
    n = rho0.shape[0]
    basis = traceless_hermitian_basis(n)

    def metric_at(theta):
        rho = rho0 + sum(t * bm for t, bm in zip(theta, basis))
        rho = 0.5 * (rho + rho.conj().T)
        d = len(basis)
        g = np.empty((d, d))
        for i in range(d):
            for j in range(i, d):
                g[i, j] = g[j, i] = metric_eval(entry, rho, basis[i], basis[j])
        return g

    return metric_at, np.zeros(len(basis))


@pytest.mark.parametrize("fid", ["wy", "bkm"])
def test_scal1_matches_finite_difference_oracle(fid):
    entry = catalog_entry(fid)
    rho0 = random_density(2, 42)
    rho0 = 0.8 * rho0 + 0.1 * np.eye(2)  # keep the stencil well inside the cone
    metric_at, theta0 = _metric_patch(entry, rho0)
    oracle = fd_scalar_curvature(metric_at, theta0, h=1e-3)
    engine = scalar_curvature(entry, rho0).scal1
    assert abs(engine - oracle) <= 1e-2 * abs(engine)


# ---------------------------------------------------------------------------
# Shared kernel values: the same bits as one kernel evaluation per term
# ---------------------------------------------------------------------------

_G23, _G1 = 0.3 * T23_GAP_RTOL, 0.3 * T1_GAP_RTOL
AUX_TRIPLES = [
    *permutations((0.2, 0.5, 0.3)),                      # generic
    (1e-3, 0.7, 0.25), (0.9, 1e-4, 0.05),
    (0.3, 0.3 * (1 + _G23), 0.6), (0.6, 0.6 * (1 - _G23), 0.3),  # x ~ y within T23
    (0.4, 0.7, 0.4 * (1 + _G1)), (0.7, 0.4, 0.4 * (1 - _G1)),   # z ~ x or z ~ y within T1
    (0.4, 0.4 * (1 + _G1), 0.4 * (1 + 2 * _G1)),         # all three within T1
    *permutations((0.4, 0.4 * (1 + 0.7 * T1_GAP_RTOL), 0.4 * (1 + 1.4 * T1_GAP_RTOL))),  # a chain
    (0.3, 0.3, 0.6), (0.3, 0.6, 0.3), (0.6, 0.3, 0.3), (0.5, 0.5, 0.5),  # exact coincidences
    *product((1e-9, 1.0 - 2e-9), repeat=3),              # diag(1e-9, 1e-9, 1 - 2e-9)
]


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_aux_terms_equal_per_term_reference(entry):
    for triple in AUX_TRIPLES:
        got = scal_aux_terms(entry, *triple)
        want = oracles.scal_aux_terms(entry, *triple)
        assert tuple(got) == tuple(want), (triple, got, want)


def _counting(entry):
    calls = {"c": 0, "dc_dx": 0}

    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    return dataclasses.replace(entry, c=count("c", entry.c),
                               dc_dx=count("dc_dx", entry.dc_dx)), calls


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
@pytest.mark.parametrize("triple, want", [
    ((0.2, 0.5, 0.3), {"c": 5, "dc_dx": 2}),   # five shared values, each once
    ((0.3, 0.3, 0.6), {"c": 6, "dc_dx": 4}),   # plus the t2 limit and t3's complex step
    ((0.4, 0.4, 0.4), {"c": 8, "dc_dx": 6}),   # plus one complex step on phi'
])
def test_aux_terms_kernel_calls(entry, triple, want):
    counted, calls = _counting(entry)
    scal_aux_terms(counted, *triple)
    assert calls == want



@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_scalar_curvature_kernel_calls(entry):
    # One grid call of each kernel.  Of the 27 triples of three distinct
    # eigenvalues, the 21 with a repeated index take their limits per triple:
    # 6 with x = y only (t2 limit, t3 complex step: c 1, dc_dx 2 each),
    # 12 with z = x or z = y only (t1's Newton branch: c 6, dc_dx 2 each) and
    # 3 with x = y = z (phi'' complex step and the t2/t3 limits: c 3, dc_dx 4).
    counted, calls = _counting(entry)
    scalar_curvature(counted, np.diag([0.2, 0.3, 0.5]))
    assert calls == {"c": 1 + 6 + 12 * 6 + 3 * 3, "dc_dx": 1 + 6 * 2 + 12 * 2 + 3 * 4}


# ---------------------------------------------------------------------------
# The grid engine against the public per-triple API
# ---------------------------------------------------------------------------

def _test_spectrum(shape, n):
    rng = np.random.default_rng(n)
    if shape == "spread":
        return 0.999 * rng.dirichlet(np.ones(n)) + 0.001 / n
    if shape == "clustered":
        return 1.0 / n + 1e-6 / n * (np.arange(n) - 0.5 * (n - 1)) * (1.0 + 0.2 * rng.random(n))
    return np.r_[1e-4, (1.0 - 1e-4) * rng.dirichlet(np.ones(n - 1))]  # boundary


def _per_triple_scal(entry, w):
    """The cone curvature summed from `scal_aux_terms`, less the coincident triples."""
    vals = np.array([scal_aux_terms(entry, x, y, z).combined for x in w for y in w for z in w])
    n = len(w)
    return float(np.sum(vals) - np.sum(vals[::n * n + n + 1]))


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
@pytest.mark.parametrize("shape", ["spread", "clustered", "boundary"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_grid_engine_equals_per_triple_sum(entry, shape, n):
    # sld, bkm and rld agree bit for bit; the wy kernel's powers round
    # differently in the last bit on arrays than on scalars, which moved wy
    # by at most 3.2e-14 relative over 540 random spectra of these shapes.
    rep = scalar_curvature(entry, np.diag(_test_spectrum(shape, n)))
    want = _per_triple_scal(entry, rep.spectrum)
    assert abs(rep.scal - want) <= 1e-12 * max(1.0, abs(rep.scal1))
