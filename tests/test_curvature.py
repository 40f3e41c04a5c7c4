import dataclasses
import functools
from itertools import permutations, product

import numpy as np
import pytest

import oracles
from oracles import (
    fd_scalar_curvature,
    random_unitary,
    traceless_hermitian_basis,
    wy_aux_closed_forms,
)
from wyinfo import curvature
from wyinfo.curvature import (
    T1_GAP_RTOL,
    T23_GAP_RTOL,
    scal1_shift,
    scal_aux_terms,
    scalar_curvature,
)
from wyinfo.divergence import g_entry, monotone_from_convex
from wyinfo.errors import InvariantViolation
from wyinfo.linalg import random_density
from wyinfo.monotone import MonotoneFunctionEntry, catalog, catalog_entry, metric_eval


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


@pytest.mark.parametrize("n", [2, 3, 4, 6])
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
    # real-valued kernels: the complex step itself refuses them, no flag is read
    sld = catalog_entry("sld")
    entry = MonotoneFunctionEntry("sld-real", sld.f, lambda x, y: np.real(sld.c(x, y)),
                                  lambda x, y: np.real(sld.dc_dx(x, y)))
    with pytest.raises(InvariantViolation) as exc:
        scalar_curvature(entry, random_density(2, 0))
    assert exc.value.invariant == "complex-evaluable"
    # every triple reads a grid whose index-coincident triples take a complex step
    for triple in ((0.3, 0.3, 0.5), (0.2, 0.5, 0.3)):
        with pytest.raises(InvariantViolation) as exc:
            scal_aux_terms(entry, *triple)
        assert exc.value.invariant == "complex-evaluable"


def test_engine_names_a_missing_kernel():
    rho = random_density(2, 0)
    no_derivative = monotone_from_convex(g_entry("g_wy"))
    with pytest.raises(InvariantViolation) as exc:
        scalar_curvature(no_derivative, rho)
    assert exc.value.invariant == "kernel-defined"
    f_only = MonotoneFunctionEntry("f-only", catalog_entry("wy").f)
    for entry in (no_derivative, f_only):
        with pytest.raises(InvariantViolation) as exc:
            scal_aux_terms(entry, 0.2, 0.5, 0.3)
        assert exc.value.invariant == "kernel-defined"


@pytest.mark.parametrize("triple", [(0.0, 0.5, 0.3), (0.2, -0.5, 0.3), (0.2, 0.5, -1e-300)])
def test_aux_terms_reject_non_positive_arguments(triple):
    with pytest.raises(InvariantViolation) as exc:
        scal_aux_terms(catalog_entry("wy"), *triple)
    assert exc.value.invariant == "strict-positivity"


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


# At exact x = y triples, wy's and sld's t3 (and so `combined`) take numpy's
# complex step on arrays where the reference takes Python's on scalars; these
# are their measured distances in ulps.  Every other value agrees bit for bit.
AUX_ULPS = {
    ("wy", (0.3, 0.3, 0.6)): {"t3": 9, "combined": 20},
    ("sld", (0.3, 0.3, 0.6)): {"t3": 2, "combined": 2},
    ("sld", (1e-9, 1e-9, 1e-9)): {"t3": 2, "combined": 2},
    ("sld", (1.0 - 2e-9,) * 3): {"t3": 1, "combined": 2},
}


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_aux_terms_equal_per_term_reference(entry):
    for triple in AUX_TRIPLES:
        got = scal_aux_terms(entry, *triple)
        want = oracles.scal_aux_terms(entry, *triple)
        ulps = AUX_ULPS.get((entry.id, triple), {})
        for name, g, w in zip(got._fields, got, want):
            assert abs(g - w) <= ulps.get(name, 0) * np.spacing(abs(w)), (triple, name, g, w)


def _counting(entry, arrays_only=False):
    """The entry with c and dc_dx counting their calls; with arrays_only, only
    the calls on numpy arrays (the grids and the vectorised routes; the
    per-triple cluster t1 passes Python scalars)."""
    calls = {"c": 0, "dc_dx": 0}

    def count(name, fn):
        def wrapped(*args):
            calls[name] += not arrays_only or isinstance(args[0], np.ndarray)
            return fn(*args)
        return wrapped

    return dataclasses.replace(entry, c=count("c", entry.c),
                               dc_dx=count("dc_dx", entry.dc_dx)), calls


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
@pytest.mark.parametrize("triple, want", [
    ((0.2, 0.5, 0.3), {"c": 4, "dc_dx": 5}),     # the grid and its two vectorised routes
    ((0.3, 0.3, 0.6), {"c": 16, "dc_dx": 17}),   # plus 6 cluster t1 complex steps
    ((0.4, 0.4, 0.4), {"c": 50, "dc_dx": 51}),   # no Newton route, 24 cluster t1 steps
])
def test_aux_terms_kernel_calls(entry, triple, want):
    # One triple reads the grid on its three values, so it costs what the
    # curvature of diag(x, y, z) costs.
    counted, calls = _counting(entry)
    scal_aux_terms(counted, *triple)
    assert calls == want
    counted, calls = _counting(entry)
    scalar_curvature(counted, np.diag(triple))
    assert calls == want


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_scalar_curvature_kernel_calls(entry):
    # One grid call of each kernel (c 1, dc_dx 1).  The 12 triples with z = x
    # or z = y only take one vectorised phi' at the pair midpoints (c 2,
    # dc_dx 2); the 6 with x = y only one vectorised t2 limit and complex step
    # of (log c)'(z, .) (c 1, dc_dx 2).  The 3 with x = y = z are left out of
    # the sum, so nothing goes per triple.
    counted, calls = _counting(entry)
    scalar_curvature(counted, np.diag([0.2, 0.3, 0.5]))
    assert calls == {"c": 1 + 2 + 1, "dc_dx": 1 + 2 + 2}


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_clustered_spectrum_kernel_calls_on_arrays(entry):
    # Every triple of a four-state cluster is a three-point cluster, so the
    # Newton route is empty.  On arrays go the two grid calls (c 1, dc_dx 1)
    # and one vectorised pair limit over all of them: the t2 limit and the
    # complex step of (log c)'(z, .) (c 1, dc_dx 2).  Only the cluster t1
    # goes per triple, on Python scalars.
    counted, calls = _counting(entry, arrays_only=True)
    scalar_curvature(counted, np.diag(_test_spectrum("clustered", 4)))
    assert calls == {"c": 1 + 1, "dc_dx": 1 + 2}


def test_clustered_spectrum_takes_one_pair_limits_call(monkeypatch):
    # The x ~ y limits of all 60 triples of a four-state cluster (its 4
    # coincident ones aside) come from one call on arrays, none per triple.
    calls = []
    pair_limits = curvature._pair_limits
    monkeypatch.setattr(curvature, "_pair_limits",
                        lambda *args: calls.append(args) or pair_limits(*args))
    scalar_curvature(catalog_entry("bkm"), np.diag(_test_spectrum("clustered", 4)))
    assert len(calls) == 1
    assert all(isinstance(a, np.ndarray) and a.shape == (60,) for a in calls[0][1:])


# ---------------------------------------------------------------------------
# The grid engine against the per-term reference and the public per-triple API
# ---------------------------------------------------------------------------

SHAPES = ["spread", "clustered", "boundary", "repeat", "boundary-pair", "near-pair",
          "band-pair", "chain"]


def _test_spectrum(shape, n):
    rng = np.random.default_rng(n)
    if shape == "spread":
        return 0.999 * rng.dirichlet(np.ones(n)) + 0.001 / n
    if shape == "clustered":
        return 1.0 / n + 1e-6 / n * (np.arange(n) - 0.5 * (n - 1)) * (1.0 + 0.2 * rng.random(n))
    if shape == "boundary":
        return np.r_[1e-4, (1.0 - 1e-4) * rng.dirichlet(np.ones(n - 1))]
    if shape == "boundary-pair":  # diag(1e-9, 1e-9, 1 - 2e-9) at n = 3
        return np.r_[1e-9, 1e-9, (1.0 - 2e-9) * rng.dirichlet(np.ones(n - 2))]
    w = _test_spectrum("spread", n)
    if shape == "chain":  # two near pairs, the ends apart: a three-point cluster
        w[1:3] = w[0] * (1.0 + np.array([0.7, 1.4]) * T1_GAP_RTOL)
    else:  # band-pair: between T23_GAP_RTOL and T1_GAP_RTOL
        w[1] = w[0] * {"repeat": 1.0, "near-pair": 1.0 + 1e-6, "band-pair": 1.0 + 3e-5}[shape]
    return w / w.sum()


def _per_triple_scal(entry, w):
    """The cone curvature summed from the per-term reference `oracles.scal_aux_terms`,
    the coincident triples left out; each distinct kernel call runs once."""
    entry = dataclasses.replace(entry, c=functools.cache(entry.c),
                                dc_dx=functools.cache(entry.dc_dx))
    vals = np.array([oracles.scal_aux_terms(entry, x, y, z).combined
                     for x in w for y in w for z in w])
    n = len(w)
    vals[::n * n + n + 1] = 0.0  # (x_i, x_i, x_i) sits at flat index i (n^2 + n + 1)
    return float(np.sum(vals))


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
@pytest.mark.parametrize("n, shape", [
    *product([2, 3, 5, 8, 16], SHAPES[:3]),
    *product([3, 5, 8, 16], SHAPES[3:]),
])
def test_grid_engine_equals_per_triple_sum(entry, shape, n):
    # Against the independent per-term reference, only the vectorised complex
    # step of the x ~ y limits, cluster triples included, rounds apart from
    # the reference's (numpy against Python complex arithmetic): wy reads at
    # most 8.1e-15 relative here (n = 3, boundary) and sld 4.2e-16 (n = 5,
    # boundary pair), bkm and rld agree bit for bit.  Both sums leave the
    # coincident triples out rather than subtract them, which rounded apart by
    # up to 6.1e-11 on wy's boundary pair.  The band pair takes Newton's t1 at
    # a midpoint that is no eigenvalue, and the chain (ends apart) tests the
    # cluster mask's chain rule.
    rep = scalar_curvature(entry, np.diag(_test_spectrum(shape, n)))
    want = _per_triple_scal(entry, rep.spectrum)
    assert abs(rep.scal - want) <= 1e-12 * max(1.0, abs(rep.scal1))


def test_aux_terms_read_the_grid_entry():
    # A triple is routed by the proximity of its values alone, never by its
    # indices, so `scal_aux_terms` on (w_i, w_j, w_k) reads grid entry (i, j, k).
    for entry, shape in product(catalog(), SHAPES):
        w = _test_spectrum(shape, 4)
        grid = curvature._triple_grid(entry, w)
        for i, j, k in product(range(4), repeat=3):
            if not i == j == k:
                want = tuple(float(g[i, j, k]) for g in grid)
                assert tuple(scal_aux_terms(entry, w[i], w[j], w[k])) == want, (shape, i, j, k)


@pytest.mark.parametrize("spectrum, want", [
    ([0.2, 0.3, 0.5], 0),                   # the fully coincident triples are left out
    (_test_spectrum("spread", 8), 0),       # the same on a spread state
    (_test_spectrum("clustered", 4), 60),   # a cluster: every triple but the 4 coincident
    # the 8 triples drawn from the two 0.2 eigenvalues, less their 2 coincident ones
    ([0.2, 0.2, 0.6], 6),
])
def test_only_three_point_clusters_go_per_triple(monkeypatch, spectrum, want):
    calls = []
    per_triple = curvature._t1_cluster
    monkeypatch.setattr(curvature, "_t1_cluster", lambda *args: calls.append(args) or per_triple(*args))
    scalar_curvature(catalog_entry("bkm"), np.diag(spectrum))
    assert len(calls) == want
