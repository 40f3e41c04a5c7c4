"""Relative g-entropies, their metric Hessians, and comparison distances.

For an operator convex g with g(1) = 0, the relative g-entropy is
H_g(rho, sigma) = Tr(sqrt(rho) g(Delta)(sqrt(rho))) with the relative modular
operator Delta = L_sigma R_rho^{-1}.  Its mixed second derivative at equal
arguments is minus the monotone metric of f_g(x) = (x-1)^2 / (g(x) + x g(1/x)),
which hessian_check verifies against a finite-difference stencil.  g(Delta)
is the kernel g(mu / lambda) applied by `linalg.kernel_action`; every
function takes stacks of pairs (..., n, n) with linalg's stack rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantViolation, StepTooLargeError
from .linalg import _out, kernel_action, matrix_function, spectral_decompose, spectral_function
from .monotone import MonotoneFunctionEntry, metric_eval

# |x - 1| window where f_g switches to its removable-singularity series.
_F_SERIES_WINDOW = 1e-4


@dataclass(frozen=True)
class OperatorConvexG:
    """An operator convex function with g(1) = 0 and derivatives at 1."""

    id: str
    g: Callable
    d2_at_1: float
    d3_at_1: float


def _g_wy(x):
    return 4.0 * (1.0 - np.sqrt(x))


def _g_umegaki(x):
    return -np.log(x)


_G_CATALOG = (
    OperatorConvexG("g_wy", _g_wy, d2_at_1=1.0, d3_at_1=-1.5),
    OperatorConvexG("g_umegaki", _g_umegaki, d2_at_1=1.0, d3_at_1=-2.0),
)


def g_catalog() -> tuple:
    return _G_CATALOG


def g_entry(g_id: str) -> OperatorConvexG:
    for entry in _G_CATALOG:
        if entry.id == g_id:
            return entry
    ids = ", ".join(e.id for e in _G_CATALOG)
    raise InvariantViolation("g-id", f"unknown '{g_id}'; catalog: {ids}")


# ---------------------------------------------------------------------------
# Relative modular operator and g-entropy
# ---------------------------------------------------------------------------

def relative_modular_apply(rho, sigma, g: Callable, x) -> np.ndarray:
    """g(L_sigma R_rho^{-1}) applied to X: entrywise g(mu_i / lambda_j) in mixed bases.

    Stacks of states and matrices (..., n, n) are applied slice by slice.
    """
    return kernel_action(spectral_decompose(sigma), spectral_decompose(rho),
                         lambda m, l: g(m / l), x)


def relative_g_entropy(rho, sigma, g: OperatorConvexG):
    """H_g(rho, sigma) = Tr(sqrt(rho) g(Delta)(sqrt(rho))); zero at rho = sigma.

    A float for one pair; stacks of pairs give an array, each slice the same
    bits as its pair alone.
    """
    rho_decomposition = spectral_decompose(rho)
    root = spectral_function(rho_decomposition, np.sqrt)
    modular = kernel_action(spectral_decompose(sigma), rho_decomposition,
                            lambda m, l: g.g(m / l), root)
    return _out(np.real(np.trace(root @ modular, axis1=-2, axis2=-1)))


def monotone_from_convex(g: OperatorConvexG) -> MonotoneFunctionEntry:
    """The normalized symmetric monotone function f_g(x) = (x-1)^2 / (g(x) + x g(1/x)).

    The removable singularity at x = 1 is evaluated by the series
    1 / (g''(1) (1 - (x-1)/2)); the g'''(1) term cancels from the denominator
    expansion, so g''(1) fixes the window behavior.
    """

    def f(x):
        x = np.asarray(x, dtype=float)
        w = x - 1.0
        near = np.abs(w) < _F_SERIES_WINDOW
        with np.errstate(all="ignore"):
            xs = np.where(near, 2.0, x)  # dummy inside the series window
            denom = g.g(xs) + xs * g.g(1.0 / xs)
            direct = w * w / denom
            series = 1.0 / (g.d2_at_1 * (1.0 - 0.5 * w))
        return np.where(near, series, direct)

    def c(x, y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (y * f(np.asarray(x, dtype=float) / y))

    return MonotoneFunctionEntry(f"f[{g.id}]", f, c)


def alpha_parameter(g: OperatorConvexG) -> float:
    """Connection parameter 3 + 2 g'''(1) / g''(1) of the induced classical geometry."""
    if g.d2_at_1 == 0.0:
        raise DomainError(f"{g.id}: g''(1) = 0 leaves the parameter undefined")
    return 3.0 + 2.0 * g.d3_at_1 / g.d2_at_1


# ---------------------------------------------------------------------------
# Hessian verification
# ---------------------------------------------------------------------------

@dataclass
class HessianResult:
    """The stencil and metric values; for stacks every field but step is an array."""

    numeric: float
    analytic: float
    residual: float  # |numeric - analytic| / (1 + |analytic|)
    step: float

    def as_dict(self) -> dict:
        return asdict(self)


def hessian_check(g: OperatorConvexG, rho, a, b, step: float = 1e-3) -> HessianResult:
    """Mixed partial -d^2/dtds H_g(rho + tA, rho + sB) vs the f_g metric.

    The numeric side is the 4-point central stencil at the given step; the
    stencil states must stay strictly positive, otherwise a StepTooLargeError
    suggests a safe step.  A stack of states and directions is checked slice
    by slice with the same bits as alone; the error names the first slice
    that fails, with a checked before b.  The step must be finite and > 0.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise InvariantViolation("step", f"{step!r}: want a finite step > 0")
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    lo = np.linalg.eigvalsh(rho)[..., 0]
    norms = [np.linalg.norm(d, 2, axis=(-2, -1)) for d in (a, b)]
    bad = [(norm > 0) & (step * norm >= lo) for norm in norms]
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad[0] | bad[1])[0])
        norm = norms[0][where] if bad[0][where] else norms[1][where]
        lo = lo[where]
        at = f" in slice {where}" if where else ""
        raise StepTooLargeError(
            f"stencil state rho +/- step*direction leaves the positive cone{at}"
            f" (min eigenvalue {lo:.3e}, step*|direction| {step * norm:.3e})",
            suggested_step=float(0.5 * lo / norm),
        )

    def h(t: float, s: float):
        return relative_g_entropy(rho + t * a, rho + s * b, g)

    stencil = h(step, step) - h(step, -step) - h(-step, step) + h(-step, -step)
    numeric = -stencil / (4.0 * step * step)
    analytic = metric_eval(monotone_from_convex(g), rho, a, b)
    residual = abs(numeric - analytic) / (1.0 + abs(analytic))
    return HessianResult(numeric, analytic, residual, step)


# ---------------------------------------------------------------------------
# Comparison distance
# ---------------------------------------------------------------------------

def bures_distance(rho, sigma):
    """sqrt(2 - 2 Tr(sqrt(rho) sigma sqrt(rho))^(1/2); fidelity-based comparator."""
    root = matrix_function(rho, np.sqrt)
    inner = root @ np.asarray(sigma, dtype=complex) @ root
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().swapaxes(-1, -2)))
    fid_root = np.sum(np.sqrt(np.maximum(w, 0.0)), axis=-1)
    return _out(np.sqrt(np.maximum(2.0 - 2.0 * fid_root, 0.0)))
