"""Fisher-Rao geometry on the open probability simplex.

The simplex maps onto the radius-2 sphere via p -> 2 sqrt(p); that pull-back
gives the metric sum(u_i v_i / p_i), the spherical (Bhattacharyya) distance,
and the normalized mixture geodesic.  Parallel transports for the mixture and
exponential connections act on score representatives and satisfy the exact
duality pairing <U^m s, U^e t>_q = <s, t>_p.

Every function takes one vector (n,) or a stack (..., n), each slice the same
bits as alone: a float for one vector, an array for a stack, whose validation
failures name the first bad slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .linalg import _out

SIMPLEX_ATOL = 1e-12


def _check(bad, invariant: str, fmt: str, values=None):
    """Raise if any slice is bad, with fmt of the first bad slice's value (and its index)."""
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        value = None if values is None else np.asarray(values)[first]
        where = f" in slice {first}" if first else ""
        raise InvariantViolation(invariant, fmt.format(value) + where)


def probability_vector(p) -> np.ndarray:
    """Validate a strictly positive vector summing to one."""
    p = np.asarray(p, dtype=float)
    if p.ndim < 1 or p.shape[-1] < 2:
        raise InvariantViolation("simplex-shape", f"shape {p.shape}")
    _check(~np.isfinite(p).all(axis=-1), "finite", "probability vector has NaN or infinite entries")
    total = np.sum(p, axis=-1)
    _check(np.abs(total - 1.0) > SIMPLEX_ATOL, "simplex-sum", "sum {:.15f}", total)
    _check(np.any(p <= 0.0, axis=-1), "simplex-interior", "min entry {:.3e}", np.min(p, axis=-1))
    return p


def _tangent(u, shape: tuple) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != shape:
        raise InvariantViolation("tangent-shape", f"shape {u.shape} for n={shape[-1]}")
    total = np.sum(u, axis=-1)
    _check(np.abs(total) > 1e-9, "tangent-sum", "sum {:.3e}", total)
    return u


def fisher_rao_metric(p, u, v):
    """sum(u_i v_i / p_i) for tangents u, v (entries summing to zero)."""
    p = probability_vector(p)
    return _out(np.sum(_tangent(u, p.shape) * _tangent(v, p.shape) / p, axis=-1))


def bhattacharyya_distance(p, q):
    """Spherical distance 2 arccos sum(sqrt(p_i q_i))."""
    arg = np.sum(np.sqrt(probability_vector(p) * probability_vector(q)), axis=-1)
    return _out(2.0 * np.arccos(np.minimum(1.0, np.maximum(-1.0, arg))))


def classical_geodesic(p, q, t: float) -> np.ndarray:
    """Geodesic sample ((1-t) sqrt(p) + t sqrt(q))^2, renormalized to sum one."""
    p = probability_vector(p)
    q = probability_vector(q)
    m = ((1.0 - t) * np.sqrt(p) + t * np.sqrt(q)) ** 2
    return m / np.sum(m, axis=-1, keepdims=True)


def simplex_sphere_map(p) -> np.ndarray:
    """Embedding 2 sqrt(p) onto the radius-2 sphere in R^n."""
    return 2.0 * np.sqrt(probability_vector(p))


def sphere_map_differential(p, u) -> np.ndarray:
    """Differential of the embedding: u / sqrt(p)."""
    p = probability_vector(p)
    return _tangent(u, p.shape) / np.sqrt(p)


def fisher_rao_scal_constant(n: int) -> float:
    """Constant scalar curvature of the simplex with the Fisher-Rao metric."""
    return 0.25 * (n - 1) * (n - 2)


# ---------------------------------------------------------------------------
# Score representation and dual transports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreVector:
    """A centered score s at base point p: sum(p_i s_i) = 0."""

    values: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        base = probability_vector(self.base)
        values = np.asarray(self.values, dtype=float)
        if values.shape != base.shape:
            raise InvariantViolation("score-shape", f"{values.shape} vs {base.shape}")
        center = np.abs(np.sum(base * values, axis=-1))
        _check(center > 1e-12 * np.maximum(1.0, np.max(np.abs(values), axis=-1)),
               "score-centered", "sum(p s) = {:.3e}", center)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "base", base)


def score_from_tangent(u, p) -> ScoreVector:
    """Score representative s = u / p of a simplex tangent u at p."""
    p = probability_vector(p)
    return ScoreVector(_tangent(u, p.shape) / p, p)


def tangent_from_score(s: ScoreVector) -> np.ndarray:
    return s.values * s.base


def score_inner(s: ScoreVector, t: ScoreVector):
    """Fisher-Rao product in score form: sum(p_i s_i t_i) at the shared base."""
    _check(s.base.shape != t.base.shape or np.any(s.base != t.base, axis=-1),
           "score-base", "scores live at different base points")
    return _out(np.sum(s.base * s.values * t.values, axis=-1))


def mixture_transport(s: ScoreVector, to) -> ScoreVector:
    """Mixture-connection transport: s -> (p/q) s."""
    q = probability_vector(to)
    return ScoreVector((s.base / q) * s.values, q)


def exponential_transport(s: ScoreVector, to) -> ScoreVector:
    """Exponential-connection transport: s -> s - E_q[s]."""
    q = probability_vector(to)
    return ScoreVector(s.values - np.sum(q * s.values, axis=-1, keepdims=True), q)
