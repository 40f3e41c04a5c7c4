import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    classical_geodesic,
    fisher_rao_scal_constant,
    simplex_sphere_map,
    tangent_from_score,
)
from wyinfo import classical
from wyinfo.errors import InvariantViolation
from wyinfo.geometry import wy_distance
from wyinfo.monotone import catalog_entry, metric_eval

WY = catalog_entry("wy")


def _random_simplex(rng, n, floor=1e-2):
    p = rng.dirichlet(np.ones(n))
    p = (1.0 - floor) * p + floor / n
    return p / p.sum()


def _random_tangent(rng, n):
    u = rng.standard_normal(n)
    return u - u.mean()


st_n = st.integers(min_value=2, max_value=6)
st_seed = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_probability_vector_rejects_boundary():
    with pytest.raises(InvariantViolation) as exc:
        classical.probability_vector([1.0, 0.0])
    assert exc.value.invariant == "simplex-interior"
    with pytest.raises(InvariantViolation):
        classical.probability_vector([0.5, 0.4])


def test_probability_vector_rejects_non_finite():
    with pytest.raises(InvariantViolation) as exc:
        classical.probability_vector([np.nan, 0.5])
    assert exc.value.invariant == "finite"


@pytest.mark.parametrize("build, invariant", [
    (lambda: classical.probability_vector([1.0]), "simplex-shape"),
    (lambda: classical.fisher_rao_metric([0.5, 0.5], [0.1, -0.1, 0.0], [0.1, -0.1]),
     "tangent-shape"),
    (lambda: classical.ScoreVector(np.zeros(3), np.array([0.5, 0.5])), "score-shape"),
], ids=["simplex", "tangent", "score"])
def test_shape_mismatches_are_named(build, invariant):
    with pytest.raises(InvariantViolation) as exc:
        build()
    assert exc.value.invariant == invariant


def test_score_vector_must_be_centered():
    with pytest.raises(InvariantViolation):
        classical.ScoreVector(np.array([1.0, 1.0]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Metric, distance, geodesic
# ---------------------------------------------------------------------------

def test_fisher_rao_metric_value():
    p = np.array([0.5, 0.25, 0.25])
    u = np.array([0.1, -0.05, -0.05])
    v = np.array([-0.2, 0.1, 0.1])
    expected = sum(u[i] * v[i] / p[i] for i in range(3))
    assert classical.fisher_rao_metric(p, u, v) == pytest.approx(expected, rel=1e-15)


def test_bhattacharyya_uniform_zero():
    p = np.ones(4) / 4
    assert classical.bhattacharyya_distance(p, p) == pytest.approx(0.0, abs=1e-7)


def test_bhattacharyya_two_level_value():
    p = np.array([0.9, 0.1])
    q = np.array([0.1, 0.9])
    assert classical.bhattacharyya_distance(p, q) == pytest.approx(
        2.0 * math.acos(0.6), rel=1e-12)


def test_bhattacharyya_equals_diagonal_quantum_distance():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        p = _random_simplex(rng, n)
        q = _random_simplex(rng, n)
        dc = classical.bhattacharyya_distance(p, q)
        dq = wy_distance(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert abs(dc - dq) <= 1e-11


def test_classical_geodesic_endpoints_and_normalization():
    rng = np.random.default_rng(1)
    p = _random_simplex(rng, 4)
    q = _random_simplex(rng, 4)
    assert np.allclose(classical_geodesic(p, q, 0.0), p, atol=1e-12)
    assert np.allclose(classical_geodesic(p, q, 1.0), q, atol=1e-12)
    for t in (0.25, 0.5, 0.75):
        gamma = classical_geodesic(p, q, t)
        assert np.sum(gamma) == pytest.approx(1.0, abs=1e-14)
        assert np.all(gamma > 0)


def test_classical_geodesic_matches_diagonal_quantum_geodesic():
    from wyinfo.geometry import wy_geodesic
    rng = np.random.default_rng(2)
    p = _random_simplex(rng, 3)
    q = _random_simplex(rng, 3)
    quantum = wy_geodesic(np.diag(p).astype(complex), np.diag(q).astype(complex))
    for t in (0.2, 0.6):
        assert np.allclose(np.diag(quantum.sampler(t)).real,
                           classical_geodesic(p, q, t), atol=1e-12)


# ---------------------------------------------------------------------------
# Sphere embedding
# ---------------------------------------------------------------------------

@given(n=st_n, seed=st_seed)
def test_sphere_map_radius(n, seed):
    p = _random_simplex(np.random.default_rng(seed), n)
    point = simplex_sphere_map(p)
    assert np.dot(point, point) == pytest.approx(4.0, abs=1e-12)


@given(n=st_n, seed=st_seed)
def test_sphere_pullback_reproduces_fisher_rao(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_simplex(rng, n)
    u = _random_tangent(rng, n)
    v = _random_tangent(rng, n)
    du = classical.sphere_map_differential(p, u)
    dv = classical.sphere_map_differential(p, v)
    assert abs(np.dot(du, dv) - classical.fisher_rao_metric(p, u, v)) <= 1e-12 * (
        1.0 + abs(classical.fisher_rao_metric(p, u, v)))


def test_diagonal_quantum_metric_matches_fisher_rao():
    rng = np.random.default_rng(3)
    for n in (2, 4):
        p = _random_simplex(rng, n)
        u = _random_tangent(rng, n)
        v = _random_tangent(rng, n)
        fr = classical.fisher_rao_metric(p, u, v)
        qm = metric_eval(WY, np.diag(p).astype(complex), np.diag(u).astype(complex),
                         np.diag(v).astype(complex))
        assert abs(fr - qm) <= 1e-11 * (1.0 + abs(fr))


def test_classical_curvature_constant():
    assert fisher_rao_scal_constant(3) == pytest.approx(0.5)
    assert fisher_rao_scal_constant(2) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

@given(n=st_n, seed=st_seed)
def test_transports_preserve_centering(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_simplex(rng, n)
    q = _random_simplex(rng, n)
    s = classical.score_from_tangent(_random_tangent(rng, n), p)
    for moved in (classical.mixture_transport(s, q), classical.exponential_transport(s, q)):
        assert abs(np.sum(moved.base * moved.values)) <= 1e-12 * (
            1.0 + np.max(np.abs(moved.values)))


@given(n=st_n, seed=st_seed)
def test_transport_duality_pairing(n, seed):
    rng = np.random.default_rng(seed)
    p = _random_simplex(rng, n)
    q = _random_simplex(rng, n)
    s = classical.score_from_tangent(_random_tangent(rng, n), p)
    t = classical.score_from_tangent(_random_tangent(rng, n), p)
    lhs = classical.score_inner(classical.mixture_transport(s, q),
                                classical.exponential_transport(t, q))
    rhs = classical.score_inner(s, t)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_score_roundtrip():
    rng = np.random.default_rng(4)
    p = _random_simplex(rng, 4)
    u = _random_tangent(rng, 4)
    s = classical.score_from_tangent(u, p)
    assert np.allclose(tangent_from_score(s), u, atol=1e-15)


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------

def _stack_inputs(shape, n, seed):
    """Simplex points p, q and tangents u, v of stack shape `shape` (vectors (n,) for ())."""
    rng = np.random.default_rng(seed)
    size = (*shape, n)
    p, q = (_random_simplex_stack(rng, size) for _ in range(2))
    u, v = (x - x.mean(axis=-1, keepdims=True) for x in rng.standard_normal((2, *size)))
    return p, q, u, v


def _random_simplex_stack(rng, size, floor=1e-2):
    p = (1.0 - floor) * rng.dirichlet(np.ones(size[-1]), size[:-1]) + floor / size[-1]
    return p / p.sum(axis=-1, keepdims=True)


def _all_results(p, q, u, v):
    """Every public classical function on one input set, as (name, value) pairs."""
    s = classical.score_from_tangent(u, p)
    w = classical.score_from_tangent(v, p)
    return [
        ("probability_vector", classical.probability_vector(p)),
        ("fisher_rao_metric", classical.fisher_rao_metric(p, u, v)),
        ("bhattacharyya_distance", classical.bhattacharyya_distance(p, q)),
        ("sphere_map_differential", classical.sphere_map_differential(p, u)),
        ("score_from_tangent", s.values),
        ("score_inner", classical.score_inner(s, w)),
        ("mixture_transport", classical.mixture_transport(s, q).values),
        ("exponential_transport", classical.exponential_transport(w, q).values),
        ("transport_duality", classical.score_inner(classical.mixture_transport(s, q),
                                                    classical.exponential_transport(w, q))),
    ]


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16])
def test_stack_equals_per_slice_bitwise(shape, n):
    p, q, u, v = _stack_inputs(shape, n, seed=n)
    stacked = _all_results(p, q, u, v)
    for idx in np.ndindex(*shape):
        alone = _all_results(p[idx], q[idx], u[idx], v[idx])
        for (name, whole), (_, one) in zip(stacked, alone):
            assert np.asarray(whole)[idx].tobytes() == np.asarray(one).tobytes(), (name, idx)


def test_one_vector_gives_python_floats():
    p, q, u, v = _stack_inputs((), 4, seed=0)
    scalars = {"fisher_rao_metric", "bhattacharyya_distance", "score_inner", "transport_duality"}
    for name, value in _all_results(p, q, u, v):
        assert (type(value) is float) == (name in scalars), name


def _raises(fn, *args):
    with pytest.raises(InvariantViolation) as exc:
        fn(*args)
    return exc.value.invariant, str(exc.value)


def test_one_vector_error_text_is_unchanged():
    assert _raises(classical.probability_vector, [0.5, 0.4]) == (
        "simplex-sum", "invariant violated: simplex-sum (sum 0.900000000000000)")
    assert _raises(classical.probability_vector, [1.0, 0.0]) == (
        "simplex-interior", "invariant violated: simplex-interior (min entry 0.000e+00)")
    assert _raises(classical.probability_vector, [np.inf, 0.5])[1] == (
        "invariant violated: finite (probability vector has NaN or infinite entries)")
    assert _raises(classical.fisher_rao_metric, [0.5, 0.5], [0.1, 0.1], [0.1, -0.1]) == (
        "tangent-sum", "invariant violated: tangent-sum (sum 2.000e-01)")
    assert _raises(classical.ScoreVector, np.array([1.0, 1.0]), np.array([0.5, 0.5])) == (
        "score-centered", "invariant violated: score-centered (sum(p s) = 1.000e+00)")


def test_stack_failure_names_first_bad_slice():
    p, q, u, v = _stack_inputs((2, 3), 3, seed=1)
    bad = p.copy()
    bad[1, 2] = [0.5, 0.4, 0.2]
    bad[1, 0] = [0.5, 0.3, 0.1]
    assert _raises(classical.probability_vector, bad) == (
        "simplex-sum", "invariant violated: simplex-sum (sum 0.900000000000000 in slice (1, 0))")
    bad = p.copy()
    bad[0, 1] = [1.0, 0.0, 0.0]
    assert _raises(classical.probability_vector, bad)[1].endswith(
        "(min entry 0.000e+00 in slice (0, 1))")
    bad = u.copy()
    bad[1, 1] += 1.0
    assert _raises(classical.sphere_map_differential, p, bad)[1].endswith(
        "(sum 3.000e+00 in slice (1, 1))")
    values = u / p
    values[0, 2] += 1.0
    assert _raises(classical.ScoreVector, values, p)[0] == "score-centered"
    assert _raises(classical.ScoreVector, values, p)[1].endswith("in slice (0, 2))")
    s = classical.score_from_tangent(u, p)
    t = classical.score_from_tangent(v, p[[0, 0]])
    assert _raises(classical.score_inner, s, t)[1].endswith(
        "(scores live at different base points in slice (1, 0))")


def test_score_inner_requires_shared_base():
    rng = np.random.default_rng(5)
    p = _random_simplex(rng, 3)
    q = _random_simplex(rng, 3)
    s = classical.score_from_tangent(_random_tangent(rng, 3), p)
    t = classical.score_from_tangent(_random_tangent(rng, 3), q)
    with pytest.raises(InvariantViolation):
        classical.score_inner(s, t)
