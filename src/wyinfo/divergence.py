"""Relative g-entropies and their metric Hessians.

For an operator convex g with g(1) = 0, the relative g-entropy is
H_g(rho, sigma) = Tr(sqrt(rho) g(Delta)(sqrt(rho))) with the relative modular
operator Delta = L_sigma R_rho^{-1}.  Its mixed second derivative at equal
arguments is minus the monotone metric of f_g(x) = (x-1)^2 / (g(x) + x g(1/x)),
which hessian_check verifies against a finite-difference stencil.  g(Delta)
is the kernel g(mu / lambda) applied by `linalg.kernel_action`; every
function takes stacks of pairs (..., n, n) with linalg's stack rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .linalg import _check, _out, kernel_action, spectral_decompose, spectral_function
from .monotone import MonotoneFunctionEntry, metric_eval

# |x - 1| window where f_g switches to its removable-singularity series.
_F_SERIES_WINDOW = 1e-4

# Cauchy's formula for g^(k)(1), k = 0..3: the trapezoid rule on 64 points of |x - 1| = 1/2.
_UNIT = np.exp(2j * np.pi * np.arange(64) / 64)
_CAUCHY = np.array([[1.0], [2.0], [8.0], [48.0]]) / 64 * _UNIT.conj() ** np.arange(4)[:, None]


@dataclass(frozen=True)
class OperatorConvexG:
    """An operator convex g, taking complex x, with g(1) = 0; g''(1) > 0 and g'''(1) come from g."""

    id: str
    g: Callable
    d2_at_1: float = field(init=False)
    d3_at_1: float = field(init=False)

    def __post_init__(self):
        values = self.g(1.0 + 0.5 * _UNIT)
        if not np.iscomplexobj(values):
            raise InvariantViolation("complex-evaluable", f"{self.id} is real on complex x")
        g1, _, d2, d3 = (_CAUCHY @ values).real
        size = 1e-12 * np.max(np.abs(values))  # far above the rounding of the sums
        if abs(g1) > size:
            raise InvariantViolation("g-at-1", f"{self.id}: g(1) = {g1:.3e}, not 0")
        if d2 <= size:
            raise InvariantViolation("g-convex", f"{self.id}: g''(1) = {d2:.3e}, not > 0")
        object.__setattr__(self, "d2_at_1", float(d2))
        object.__setattr__(self, "d3_at_1", float(d3))


def _g_wy(x):
    return 4.0 * (1.0 - np.sqrt(x))


def _g_umegaki(x):
    return -np.log(x)


_G_CATALOG = (
    OperatorConvexG("g_wy", _g_wy),
    OperatorConvexG("g_umegaki", _g_umegaki),
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
    return 3.0 + 2.0 * g.d3_at_1 / g.d2_at_1


# ---------------------------------------------------------------------------
# Hessian verification
# ---------------------------------------------------------------------------

@dataclass
class HessianResult:
    """The stencil and metric values; for stacks every field is an array."""

    numeric: float
    analytic: float
    residual: float  # |numeric - analytic| / (1 + |analytic|)
    step: float


# Stencil step of hessian_check where the state and directions allow it.
HESSIAN_STEP = 1e-3


def hessian_check(g: OperatorConvexG, rho, a, b) -> HessianResult:
    """Mixed partial -d^2/dtds H_g(rho + tA, rho + sB) vs the f_g metric.

    The numeric side is the 4-point central stencil at the step
    h = min(HESSIAN_STEP, lambda_min(rho) / (2 max(|A|_2, |B|_2))), so every
    stencil state keeps half of rho's smallest eigenvalue; a rho that is not
    positive definite raises strict-positivity.  A stack of states and
    directions is checked slice by slice, each at its own step, with the
    same bits as alone; the error names the first slice that fails.
    """
    rho, a, b = (np.asarray(x, dtype=complex) for x in (rho, a, b))
    lo = np.linalg.eigvalsh(rho)[..., 0]
    _check(~(lo > 0.0), "strict-positivity", "rho smallest eigenvalue {:.3e}", lo)
    norm = np.maximum(*(np.linalg.norm(d, 2, axis=(-2, -1)) for d in (a, b)))
    with np.errstate(divide="ignore"):  # zero directions take HESSIAN_STEP
        step = np.minimum(HESSIAN_STEP, 0.5 * lo / norm)
    h = step[..., None, None]

    def entropy(t, s):
        return relative_g_entropy(rho + t * a, rho + s * b, g)

    stencil = entropy(h, h) - entropy(h, -h) - entropy(-h, h) + entropy(-h, -h)
    numeric = -stencil / (4.0 * step * step)
    analytic = metric_eval(monotone_from_convex(g), rho, a, b)
    residual = abs(numeric - analytic) / (1.0 + abs(analytic))
    return HessianResult(_out(numeric), analytic, _out(residual), _out(step))
