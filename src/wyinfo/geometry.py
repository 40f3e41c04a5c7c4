"""Square-root pull-back geometry of the skew-information metric.

The map rho -> 2 sqrt(rho) embeds the trace-one positive matrices into the
radius-2 sphere of Hermitian matrices; its pull-back of the Hilbert-Schmidt
metric is exactly the "wy" catalog metric.  That gives closed forms for the
geodesic distance and path, which the length integrator cross-checks.

The module also carries the pull-back characterization machinery: which
kernels arise as squared difference quotients of a scalar function, dual
pairs of functions, and the self-duality scan over the power family; at
coincident arguments a difference quotient takes linalg's complex step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantViolation
from .linalg import (
    BLOCK_ENTRIES,
    _complex_step,
    _out,
    apply_kernel_superop,
    hs_inner,
    kernel_grid,
    matrix_function,
    spectral_decompose,
)
from .monotone import MonotoneFunctionEntry, sampled_operator_monotonicity

# Window for clamping arccos arguments; amounts beyond it indicate a bug.
CLAMP_WINDOW = 1e-12


def _sqrt_kernel(x, y):
    return 2.0 / (np.sqrt(x) + np.sqrt(y))


def sqrt_pullback(rho) -> np.ndarray:
    """Image of rho on the radius-2 sphere: 2 sqrt(rho)."""
    return 2.0 * matrix_function(rho, np.sqrt)


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
    """Geodesic distance of the skew-information metric; at most 2 pi."""
    return wy_distance_audit(rho, sigma)[0]


@dataclass
class GeodesicPath:
    sampler: Callable  # t in [0, 1] -> density matrix; an array of t -> a stack


def wy_geodesic(rho, sigma) -> GeodesicPath:
    """Geodesic t -> M(t)^2 / Tr M(t)^2 with M(t) = (1-t) sqrt(rho) + t sqrt(sigma).

    Normalized so every sample has unit trace; endpoints reproduce the inputs.
    The sampler takes one t, giving (n, n), or an array of t, giving the
    stack (..., n, n) whose slices are the same bits as one-t samples.
    """
    sa = matrix_function(rho, np.sqrt)
    sb = matrix_function(sigma, np.sqrt)

    def sample(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)[..., None, None]
        m = (1.0 - t) * sa + t * sb
        m2 = m @ m
        return m2 / np.trace(m2, axis1=-2, axis2=-1).real[..., None, None]

    return GeodesicPath(sample)


def _velocities(states: np.ndarray, lo: int, hi: int, h: float) -> np.ndarray:
    """Velocities of the path samples lo..hi-1 (see path_length)."""
    last = len(states) - 1
    v = np.empty((hi - lo, *states.shape[1:]), dtype=complex)
    a, b = max(lo, 1), min(hi, last)
    v[a - lo:b - lo] = (states[a + 1:b + 1] - states[a - 1:b - 1]) / (2.0 * h)
    if lo == 0:
        v[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * h)
    if hi == last + 1:
        v[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * h)
    return v


def path_length(entry: MonotoneFunctionEntry, path, steps: int = 1000) -> float:
    """Riemannian length of a density path by the trapezoid rule.

    Velocities come from central differences on the sample grid (one-sided,
    second order, at the ends).  Doubling `steps` shrinks the error by ~4x.
    A GeodesicPath's sampler is called on blocks of t; any other `path` is
    a callable t -> density matrix, called once per grid point.
    """
    if steps < 100:
        raise InvariantViolation("steps", f"{steps} < 100")
    sampler = path.sampler if isinstance(path, GeodesicPath) else (
        lambda block: [path(float(t)) for t in block])
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    first = np.asarray(sampler(ts[:1]), dtype=complex)
    rows = max(1, BLOCK_ENTRIES // first[0].size)
    states = np.empty((steps + 1, *first.shape[1:]), dtype=complex)
    states[0] = first[0]
    for lo in range(1, steps + 1, rows):
        states[lo:lo + rows] = sampler(ts[lo:lo + rows])
    tr = np.trace(states, axis1=-2, axis2=-1).real
    off = np.flatnonzero(np.abs(tr - 1.0) > 1e-10)
    if off.size:
        raise InvariantViolation("density-sample", f"trace {tr[off[0]]:.12f} at t={ts[off[0]]}")
    speeds = np.empty(steps + 1)
    for lo in range(0, steps + 1, rows):
        block = slice(lo, lo + rows)
        w, u = spectral_decompose(states[block])
        neg = np.flatnonzero(w[:, 0] <= -1e-12)
        if neg.size:
            k = neg[0]
            raise InvariantViolation("density-sample",
                                     f"eigenvalue {w[k, 0]:.3e} at t={ts[lo + k]}")
        vt = u.conj().swapaxes(-1, -2) @ _velocities(states, lo, lo + len(w), h) @ u
        kmat = kernel_grid(entry.c, w, w)
        speeds[block] = np.sqrt(np.maximum(np.sum(kmat * np.abs(vt) ** 2, axis=(-2, -1)), 0.0))
    return float(h * (np.sum(speeds) - 0.5 * (speeds[0] + speeds[-1])))


# ---------------------------------------------------------------------------
# General pull-backs and the dual-pair classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1Function:
    """A vectorized scalar function on (0, inf) that also accepts complex arguments."""

    name: str
    fn: Callable


def power_function(p: float) -> C1Function:
    """x^p / p; p = 0 is excluded (use log_function)."""
    if p == 0.0:
        raise InvariantViolation("power-exponent", "p = 0 has no x^p/p representative")
    return C1Function(f"power[{p:g}]", lambda x, p=p: np.asarray(x) ** p / p)


def log_function() -> C1Function:
    return C1Function("log", np.log)


def identity_function() -> C1Function:
    return C1Function("identity", np.asarray)


def double_sqrt_function() -> C1Function:
    return C1Function("2sqrt", lambda x: 2.0 * np.sqrt(x))


def general_pullback_differential(phi: C1Function, rho, a) -> np.ndarray:
    """D phi at rho applied to A: the difference quotient of phi as a kernel (Daleckii-Krein)."""
    return apply_kernel_superop(rho, lambda x, y: _difference_quotient(phi, x, y), a)


def _difference_quotient(f: C1Function, a, b):
    """(f(a) - f(b)) / (a - b), switching to f' at the midpoint (a complex step) for tiny gaps."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    near = np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(all="ignore"):
        q = np.asarray((f.fn(a) - f.fn(b)) / (a - b))
        q[near] = _complex_step(f.fn, (0.5 * (a + b))[near])
    return q


def pullback_condition_check(phi: C1Function, entry: MonotoneFunctionEntry) -> float:
    """Max scaled residual of ((phi(x)-phi(y))/(x-y))^2 = c(x, y) over a log grid.

    Zero (to machine precision) exactly when the metric of `entry` is the
    pull-back of the ambient metric through phi.
    """
    grid = np.logspace(-2.0, 2.0, 100)
    q = kernel_grid(lambda x, y: _difference_quotient(phi, x, y), grid, grid)
    c = kernel_grid(entry.c, grid, grid)
    resid = np.abs(q * q - c) / (1.0 + np.abs(c))
    return float(np.max(resid))


@dataclass
class DualPairReport:
    """Flags from checking whether two functions induce a monotone-metric kernel."""

    phi_id: str
    chi_id: str
    induced_c_valid: bool
    f_normalized: bool
    f_symmetric: bool
    monotonicity_violations: int
    symmetry_residual: float
    induced_f: Callable = field(repr=False, compare=False, default=None)

    @property
    def passes(self) -> bool:
        return (self.induced_c_valid and self.f_normalized and self.f_symmetric
                and self.monotonicity_violations == 0)


def induced_kernel(phi: C1Function, chi: C1Function) -> Callable:
    """Product of the two difference quotients; a candidate metric kernel."""

    def c(x, y):
        return _difference_quotient(phi, x, y) * _difference_quotient(chi, x, y)

    return c


def symmetry_margin(f: Callable, x: float) -> float:
    """|f(x) - x f(1/x)|, the symmetry defect of a candidate f at one point."""
    return float(abs(np.asarray(f(x)) - x * np.asarray(f(1.0 / x))))


def _induced_pair(phi: C1Function, chi: C1Function) -> tuple:
    """(entry of the induced f, DualPairReport of the pair with no monotonicity count yet)."""
    grid = np.logspace(-2.0, 2.0, 41)
    c = induced_kernel(phi, chi)

    def f(t):
        with np.errstate(all="ignore"):
            return 1.0 / c(t, np.ones_like(np.asarray(t, dtype=float)))

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

    return (MonotoneFunctionEntry(f"induced[{phi.name},{chi.name}]", f),
            DualPairReport(phi.name, chi.name, c_valid, normalized, symmetric, 0, sym_resid,
                           induced_f=f))


def dual_pair_check(phi: C1Function, chi: C1Function, trials: int = 200, n: int = 3,
                    seed: int = 0) -> DualPairReport:
    """Test whether (phi, chi) induces a normalized symmetric monotone function.

    The induced kernel is the product of difference quotients; from it,
    f(t) = 1 / c(t, 1).  Reports normalization f(1) = 1, the symmetry
    f(x) = x f(1/x) on a log grid, and sampled operator monotonicity of f.
    """
    entry, report = _induced_pair(phi, chi)
    report.monotonicity_violations = sampled_operator_monotonicity(
        entry, trials, n, seed).violations
    return report


def self_duality_scan(p_grid, trials: int = 200, n: int = 3, seed: int = 0) -> list:
    """dual_pair_check of the power pair (phi_p, phi_p) for each exponent.

    Rows are {"p", "report", "passes"}; only p = 1/2 can pass every flag.
    Every exponent's f is sampled on the same pairs, in one monotonicity call.
    """
    ps = [float(p) for p in p_grid]
    for p in ps:
        if p in (0.0, 1.0):
            raise InvariantViolation("power-exponent", f"p={p} excluded from the scan")
    pairs = [_induced_pair(phi, phi) for phi in map(power_function, ps)]
    sampled = sampled_operator_monotonicity([entry for entry, _ in pairs], trials, n, seed)
    for (_, report), mono in zip(pairs, sampled):
        report.monotonicity_violations = mono.violations
    return [{"p": p, "report": r, "passes": r.passes} for p, (_, r) in zip(ps, pairs)]
