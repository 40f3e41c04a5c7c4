"""Fisher-Rao geometry on the open probability simplex.

The simplex maps onto the radius-2 sphere via p -> 2 sqrt(p); that pull-back
gives the metric sum(u_i v_i / p_i), the spherical (Bhattacharyya) distance,
and the normalized mixture geodesic.  Parallel transports for the mixture and
exponential connections act on score representatives and satisfy the exact
duality pairing <U^m s, U^e t>_q = <s, t>_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

SIMPLEX_ATOL = 1e-12


def probability_vector(p) -> np.ndarray:
    """Validate a strictly positive vector summing to one."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise InvariantViolation("simplex-shape", f"shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvariantViolation("finite", "probability vector has NaN or infinite entries")
    if abs(float(np.sum(p)) - 1.0) > SIMPLEX_ATOL:
        raise InvariantViolation("simplex-sum", f"sum {float(np.sum(p)):.15f}")
    if np.any(p <= 0.0):
        raise InvariantViolation("simplex-interior", f"min entry {float(np.min(p)):.3e}")
    return p


def _tangent(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise InvariantViolation("tangent-shape", f"shape {u.shape} for n={n}")
    if abs(float(np.sum(u))) > 1e-9:
        raise InvariantViolation("tangent-sum", f"sum {float(np.sum(u)):.3e}")
    return u


def fisher_rao_metric(p, u, v) -> float:
    """sum(u_i v_i / p_i) for tangents u, v (entries summing to zero)."""
    p = probability_vector(p)
    u = _tangent(u, len(p))
    v = _tangent(v, len(p))
    return float(np.sum(u * v / p))


def bhattacharyya_distance(p, q) -> float:
    """Spherical distance 2 arccos sum(sqrt(p_i q_i))."""
    p = probability_vector(p)
    q = probability_vector(q)
    arg = float(np.sum(np.sqrt(p * q)))
    return 2.0 * float(np.arccos(min(1.0, max(-1.0, arg))))


def classical_geodesic(p, q, t: float) -> np.ndarray:
    """Geodesic sample ((1-t) sqrt(p) + t sqrt(q))^2, renormalized to sum one."""
    p = probability_vector(p)
    q = probability_vector(q)
    m = ((1.0 - t) * np.sqrt(p) + t * np.sqrt(q)) ** 2
    return m / float(np.sum(m))


def simplex_sphere_map(p) -> np.ndarray:
    """Embedding 2 sqrt(p) onto the radius-2 sphere in R^n."""
    return 2.0 * np.sqrt(probability_vector(p))


def sphere_map_differential(p, u) -> np.ndarray:
    """Differential of the embedding: u / sqrt(p)."""
    p = probability_vector(p)
    return _tangent(u, len(p)) / np.sqrt(p)


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
        center = abs(float(np.sum(base * values)))
        if center > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
            raise InvariantViolation("score-centered", f"sum(p s) = {center:.3e}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "base", base)


def score_from_tangent(u, p) -> ScoreVector:
    """Score representative s = u / p of a simplex tangent u at p."""
    p = probability_vector(p)
    return ScoreVector(_tangent(u, len(p)) / p, p)


def tangent_from_score(s: ScoreVector) -> np.ndarray:
    return s.values * s.base


def score_inner(s: ScoreVector, t: ScoreVector) -> float:
    """Fisher-Rao product in score form: sum(p_i s_i t_i) at the shared base."""
    if not np.array_equal(s.base, t.base):
        raise InvariantViolation("score-base", "scores live at different base points")
    return float(np.sum(s.base * s.values * t.values))


def mixture_transport(s: ScoreVector, to) -> ScoreVector:
    """Mixture-connection transport: s -> (p/q) s."""
    q = probability_vector(to)
    return ScoreVector((s.base / q) * s.values, q)


def exponential_transport(s: ScoreVector, to) -> ScoreVector:
    """Exponential-connection transport: s -> s - E_q[s]."""
    q = probability_vector(to)
    return ScoreVector(s.values - float(np.sum(q * s.values)), q)
