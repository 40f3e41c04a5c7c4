"""Square-root pull-back geometry of the skew-information metric.

The map rho -> 2 sqrt(rho) embeds the trace-one positive matrices into the
radius-2 sphere of Hermitian matrices; its pull-back of the Hilbert-Schmidt
metric is exactly the "wy" catalog metric.  That gives closed forms for the
geodesic distance and path, which the length integrator cross-checks; the
fidelity-based Bures distance sits beside them as a comparator.

The module also carries the dual-pair characterization of pull-back
metrics: pairs of functions whose difference quotients induce a kernel,
their induced f judged by its Loewner margin, and the self-duality scan over
the power family; every difference quotient is linalg's divided
difference, a complex step at coincident arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantViolation
from .linalg import (
    _divided_difference,
    _out,
    apply_kernel_superop,
    hs_inner,
    kernel_grid,
    matrix_function,
    spectral_decompose,
)
from .monotone import LOEWNER_ATOL, MonotoneFunctionEntry, loewner_margin


def _sqrt_kernel(x, y):
    return 2.0 / (np.sqrt(x) + np.sqrt(y))


def pullback_differential(rho, a) -> np.ndarray:
    """Differential of rho -> 2 sqrt(rho): the kernel 2/(sqrt x + sqrt y)."""
    return apply_kernel_superop(rho, _sqrt_kernel, a)


def pullback_metric(rho, a, b) -> float:
    """Hilbert-Schmidt product of pushed-forward tangents; equals the wy metric."""
    return hs_inner(pullback_differential(rho, a), pullback_differential(rho, b))


def wy_distance_audit(rho, sigma):
    """(distance, clamp_amount): 2 arccos Tr(sqrt(rho) sqrt(sigma)) with clamping audit.

    Two states give two floats; two stacks (..., n, n) give two arrays over
    the stack, each entry the same bits as its pair alone.
    """
    prod = matrix_function(rho, np.sqrt) @ matrix_function(sigma, np.sqrt)
    arg = np.real(np.trace(prod, axis1=-2, axis2=-1))
    clamped = np.minimum(1.0, np.maximum(-1.0, arg))
    return _out(2.0 * np.arccos(clamped)), _out(np.abs(arg - clamped))


def wy_distance(rho, sigma):
    """Skew-information geodesic distance; at most pi, as Tr(sqrt(rho) sqrt(sigma)) >= 0."""
    return wy_distance_audit(rho, sigma)[0]


def bures_distance(rho, sigma):
    """sqrt(2 - 2 Tr(sqrt(rho) sigma sqrt(rho))^(1/2); fidelity-based comparator."""
    root = matrix_function(rho, np.sqrt)
    inner = root @ np.asarray(sigma, dtype=complex) @ root
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().swapaxes(-1, -2)))
    fid_root = np.sum(np.sqrt(np.maximum(w, 0.0)), axis=-1)
    return _out(np.sqrt(np.maximum(2.0 - 2.0 * fid_root, 0.0)))


@dataclass
class GeodesicPath:
    sampler: Callable  # t of shape T -> densities (..., *T, n, n), with ... the path stack
    velocity: Callable  # t -> d sampler / dt, with the sampler's shapes


def wy_geodesic(rho, sigma) -> GeodesicPath:
    """Geodesic t -> M(t)^2 / Tr M(t)^2 with M(t) = (1-t) sqrt(rho) + t sqrt(sigma).

    Normalized so every sample has unit trace; endpoints reproduce the inputs.
    Two states give one path, two stacks (..., n, n) a stack of paths.  The
    sampler maps t of shape T (a float is shape ()) to (..., *T, n, n), each
    slice the same bits as its pair and its t alone.  The velocity is exact:
    with D = sqrt(sigma) - sqrt(rho), d(M^2)/dt = M D + D M and the
    normalization contributes -M^2 Tr(d(M^2)/dt) / (Tr M^2)^2.
    """
    sa = matrix_function(rho, np.sqrt)
    sb = matrix_function(sigma, np.sqrt)
    d = sb - sa

    def square(t):
        t = np.asarray(t, dtype=float)
        # axes (path stack, t, matrix): the path stack's arrays take one axis of size 1 per t axis
        a, b, dt = (x.reshape(x.shape[:-2] + (1,) * t.ndim + x.shape[-2:]) for x in (sa, sb, d))
        t = t[..., None, None]
        m = (1.0 - t) * a + t * b
        m2 = m @ m
        return m, m2, np.trace(m2, axis1=-2, axis2=-1).real[..., None, None], dt

    def sample(t) -> np.ndarray:
        _, m2, tr, _ = square(t)
        return m2 / tr

    def velocity(t) -> np.ndarray:
        m, m2, tr, dt = square(t)
        dm2 = m @ dt + dt @ m
        return dm2 / tr - m2 * (np.trace(dm2, axis1=-2, axis2=-1).real[..., None, None] / tr**2)

    return GeodesicPath(sample, velocity)


# Gauss-Legendre nodes of path_length; 32 and 64 agree to 1e-15 for states with eigenvalues >= 1e-2.
LENGTH_NODES = 32


@functools.cache
def _length_rule() -> tuple:
    """(nodes, weights) of Gauss-Legendre on [0, 1]; numpy.polynomial loads on first use."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(LENGTH_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def _check_nodes(bad, fmt: str, values, ts):
    """Raise density-sample naming the value, t and path of the first bad node of bad (..., T)."""
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" in path {first[:-1]}" if first[:-1] else ""
        raise InvariantViolation("density-sample",
                                 f"{fmt.format(values[first])} at t={ts[first[-1]]}{where}")


def path_length(entry: MonotoneFunctionEntry, path: GeodesicPath):
    """Riemannian length of a density path by Gauss-Legendre quadrature of its speed.

    The sampler and the exact velocity are each called once on the
    LENGTH_NODES interior nodes; the speed at a node is sqrt(sum c(w_i, w_j)
    |V_ij|^2) with V the velocity in the sample's eigenbasis.  One path gives
    a float, a stack of paths (a sampler giving (..., LENGTH_NODES, n, n))
    the array (...) of lengths, each the same bits as its path alone.  The
    speed must be smooth on [0, 1]: a path that meets the cone boundary only
    at an endpoint is integrated, one whose nodes sit on it raises DomainError.
    """
    ts, weights = _length_rule()
    states = np.asarray(path.sampler(ts), dtype=complex)
    tr = np.trace(states, axis1=-2, axis2=-1).real
    _check_nodes(np.abs(tr - 1.0) > 1e-10, "trace {:.12f}", tr, ts)
    w, u = spectral_decompose(states)
    _check_nodes(w[..., 0] <= -1e-12, "eigenvalue {:.3e}", w[..., 0], ts)
    vt = u.conj().swapaxes(-1, -2) @ path.velocity(ts) @ u
    kmat = kernel_grid(entry.c, w, w)
    speeds = np.sqrt(np.maximum(np.sum(kmat * np.abs(vt) ** 2, axis=(-2, -1)), 0.0))
    # one dot per path: a stacked matmul would sum the nodes in another order
    lengths = np.array([weights @ s for s in speeds.reshape(-1, LENGTH_NODES)])
    return _out(lengths.reshape(speeds.shape[:-1]))


# ---------------------------------------------------------------------------
# The dual-pair classification
# ---------------------------------------------------------------------------

def power_function(p: float) -> Callable:
    """x^p / p for a finite p, taking complex x; p = 0 is excluded (its representative is log)."""
    if not math.isfinite(p):
        raise InvariantViolation("power-exponent", f"p = {p} is not finite")
    if p == 0.0:
        raise InvariantViolation("power-exponent", "p = 0 has no x^p/p representative")
    return lambda x: np.asarray(x) ** p / p


@dataclass
class DualPairReport:
    """Flags from checking whether two functions induce a monotone-metric kernel."""

    induced_c_valid: bool
    f_normalized: bool
    f_symmetric: bool
    loewner_margin: float
    symmetry_residual: float
    induced_f: Callable = field(repr=False, compare=False, default=None)

    @property
    def passes(self) -> bool:
        return (self.induced_c_valid and self.f_normalized and self.f_symmetric
                and self.loewner_margin >= -LOEWNER_ATOL)


def induced_kernel(phi: Callable, chi: Callable) -> Callable:
    """Product of the two difference quotients; a candidate metric kernel."""

    def c(x, y):
        return _divided_difference(phi, x, y) * _divided_difference(chi, x, y)

    return c


def dual_pair_check(phi: Callable, chi: Callable) -> DualPairReport:
    """Test whether two functions on (0, inf), each taking complex x, induce a monotone f.

    The induced kernel is the product of difference quotients; from it,
    f(t) = 1 / c(t, 1), which takes complex t.  Reports normalization
    f(1) = 1, the symmetry residual max |f(x) - x f(1/x)| / (1 + |f(x)|) on a
    log grid, and the Loewner margin of f; a kernel or an f that is not finite
    on its grid is recorded as failing (c invalid, margin -inf), not raised.
    """
    grid = np.logspace(-2.0, 2.0, 41)
    c = induced_kernel(phi, chi)

    def f(t):
        with np.errstate(all="ignore"):
            return 1.0 / c(t, np.ones_like(t, dtype=float))

    try:
        c_valid = bool(np.all(kernel_grid(c, grid, grid) > 0.0))
    except DomainError:
        c_valid = False

    f1 = float(np.asarray(f(1.0)))
    normalized = bool(abs(f1 - 1.0) <= 1e-9)

    fx = np.asarray(f(grid), dtype=float)
    finv = np.asarray(f(1.0 / grid), dtype=float)
    sym_resid = float(np.max(np.abs(fx - grid * finv) / (1.0 + np.abs(fx))))
    symmetric = bool(sym_resid <= 1e-9)

    try:
        margin = loewner_margin(f)
    except DomainError:
        margin = -np.inf
    return DualPairReport(c_valid, normalized, symmetric, margin, sym_resid, induced_f=f)


def self_duality_scan(p_grid) -> dict:
    """{p: dual_pair_check of the power pair (phi_p, phi_p)}; only p = 1/2 can pass every flag."""
    ps = [float(p) for p in p_grid]
    for p in ps:
        if p in (0.0, 1.0):
            raise InvariantViolation("power-exponent", f"p={p} excluded from the scan")
    phis = list(map(power_function, ps))  # every exponent is checked before any pair runs
    return {p: dual_pair_check(phi, phi) for p, phi in zip(ps, phis)}
