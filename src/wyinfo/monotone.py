"""Catalog of operator monotone functions and the metrics they generate.

Each catalog entry bundles a normalized symmetric operator monotone function
f, its kernel c(x, y) = 1 / (y f(x/y)), and the closed-form kernel derivative
dc/dx.  The metric at a state rho is <A, B> = Tr(A c(L_rho, R_rho)(B)).

Entries: "wy" (skew information), "sld" (Bures/symmetric logarithmic
derivative), "bkm" (Kubo-Mori), "rld" (right logarithmic derivative).
`loewner_margin` judges a scalar f for operator monotonicity (deterministic,
no sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation
from .linalg import (
    KrausChannel,
    _check,
    _divided_difference,
    _out,
    apply_channel,
    apply_kernel_superop,
    commutator,
    hs_inner,
    kernel_action,
    kernel_grid,
    matrix_function,
    spectral_decompose,
)

# Relative |x - y| gap below which the Kubo-Mori kernel and its derivative
# switch to midpoint series.  The direct derivative quotient loses eps/gap^2
# to cancellation, so the window is wide; the series carry enough terms to
# stay at machine precision across the whole window.
_BKM_NEAR = 3e-2


@dataclass(frozen=True)
class MonotoneFunctionEntry:
    """A named operator monotone function with its kernel and kernel derivative.

    c and dc_dx may be None; a use that needs a missing one raises
    InvariantViolation named ``kernel-defined``.  The curvature engine
    complex-steps them; one that stays real raises ``complex-evaluable``.
    """

    id: str
    f: Callable
    c: Optional[Callable] = None
    dc_dx: Optional[Callable] = None


# -- wy: f(x) = (sqrt(x) + 1)^2 / 4 -----------------------------------------

def _f_wy(x):
    s = np.sqrt(x)
    return 0.25 * (s + 1.0) ** 2


# Products, not powers, in every c and dc_dx: numpy's array pow rounds some
# values differently from its scalar pow, and the curvature grids must match
# per-triple evaluation.
def _c_wy(x, y):
    s = np.sqrt(x) + np.sqrt(y)
    return 4.0 / (s * s)


def _dc_wy(x, y):
    sx = np.sqrt(x)
    s = sx + np.sqrt(y)
    return -4.0 / (sx * (s * s * s))


# -- sld: f(x) = (1 + x) / 2 -------------------------------------------------

def _f_sld(x):
    return 0.5 * (1.0 + x)


def _c_sld(x, y):
    return 2.0 / (x + y)


def _dc_sld(x, y):
    s = x + y
    return -2.0 / (s * s)


# -- bkm: f(x) = (x - 1) / log(x) ---------------------------------------------

def _f_bkm(x):
    # Only x = 1 needs its limit (x = 0 gives -1/-inf = 0): near 1, x - 1 is
    # exact and log is accurate, so the quotient needs no series.
    x = np.asarray(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 1.0, 1.0, (x - 1.0) / np.log(x))


def _bkm_midpoint(x, y):
    m = 0.5 * (np.asarray(x) + np.asarray(y))
    w = 0.5 * (np.asarray(x) - np.asarray(y)) / m
    return m, w


def _c_bkm(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    near = np.abs(x - y) <= _BKM_NEAR * np.maximum(np.abs(x), np.abs(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.log(x) - np.log(y)) / (x - y)
        m, w = _bkm_midpoint(x, y)
        w = np.where(near, w, 0.0)
        w2 = w * w
        # (log x - log y)/(x - y) = atanh(w)/(m w); truncation ~ w^8/9
        series = (1.0 + w2 * (1.0 / 3.0 + w2 * (1.0 / 5.0 + w2 / 7.0))) / m
    return np.where(near, series, direct)


def _dc_bkm(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    near = np.abs(x - y) <= _BKM_NEAR * np.maximum(np.abs(x), np.abs(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = x - y
        direct = (d / x - (np.log(x) - np.log(y))) / (d * d)
        m, w = _bkm_midpoint(x, y)
        w = np.where(near, w, 0.0)
        # d/dx [atanh(w)/(m w)] with m = (x+y)/2, w = (x-y)/(2m);
        # truncation ~ (8/9) w^7; the series 1 - 2w/3 + w^2 - 0.8 w^3 + w^4
        # - 6w^5/7 + w^6 in Horner form
        series = -(1.0 + w * (-2.0 / 3.0 + w * (1.0 + w * (-0.8 + w * (
            1.0 + w * (-6.0 / 7.0 + w)))))) / (2.0 * m * m)
    return np.where(near, series, direct)


# -- rld: f(x) = 2x / (1 + x) --------------------------------------------------

def _f_rld(x):
    return 2.0 * np.asarray(x) / (1.0 + np.asarray(x))


def _c_rld(x, y):
    return (np.asarray(x) + np.asarray(y)) / (2.0 * np.asarray(x) * np.asarray(y))


def _dc_rld(x, y):
    x = np.asarray(x)
    return -0.5 / (x * x)


_CATALOG = (
    MonotoneFunctionEntry("wy", _f_wy, _c_wy, _dc_wy),
    MonotoneFunctionEntry("sld", _f_sld, _c_sld, _dc_sld),
    MonotoneFunctionEntry("bkm", _f_bkm, _c_bkm, _dc_bkm),
    MonotoneFunctionEntry("rld", _f_rld, _c_rld, _dc_rld),
)


def catalog() -> tuple:
    """The closed catalog (wy, sld, bkm, rld)."""
    return _CATALOG


def catalog_entry(function_id: str) -> MonotoneFunctionEntry:
    for entry in _CATALOG:
        if entry.id == function_id:
            return entry
    ids = ", ".join(e.id for e in _CATALOG)
    raise InvariantViolation("function-id", f"unknown '{function_id}'; catalog: {ids}")


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------

def metric_eval(entry: MonotoneFunctionEntry, rho, a, b):
    """Monotone metric <A, B> at rho: Tr(A c(L_rho, R_rho)(B)).

    A float for one state; stacks of states and tangents give an array.
    """
    return hs_inner(a, apply_kernel_superop(rho, entry.c, b))


def skew_information(rho, a):
    """Information content of rho relative to the observable A: -Tr([sqrt(rho), A]^2).

    A float for one state; stacks of states and observables give an array.
    """
    root = matrix_function(rho, np.sqrt)
    comm = commutator(root, np.asarray(a, dtype=complex))
    return _out(np.real(-np.trace(comm @ comm, axis1=-2, axis2=-1)))


def skew_identity_residual(rho, a):
    """|<i[rho, A], i[rho, A]>_wy - 4 I(rho, A)|, zero in exact arithmetic; stacks give an array."""
    t = 1j * commutator(rho, np.asarray(a, dtype=complex))
    lhs = metric_eval(catalog_entry("wy"), rho, t, t)
    rhs = 4.0 * skew_information(rho, a)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Operator monotonicity: the Loewner margin
# ---------------------------------------------------------------------------

# Nodes of the Loewner matrix.  None lies within 13% of 1, so the complex step
# of an f built from divided differences against 1 (as dual_pair_check's
# induced f is) never nests inside _divided_difference's 1e-6 window.
LOEWNER_GRID = np.logspace(-3.0, 3.0, 48)
LOEWNER_GRID.flags.writeable = False
# A margin at or above -LOEWNER_ATOL passes; catalog f read -7.5e-13 to -2.6e-15.
LOEWNER_ATOL = 1e-9


def loewner_margin(f: Callable) -> float:
    """Smallest eigenvalue of the Loewner matrix [f[x_i, x_j]] of f on LOEWNER_GRID.

    f is operator monotone on (0, inf) exactly when its Loewner matrices are
    positive semidefinite (Loewner's theorem; Bhatia, Matrix Analysis, ch. V).
    The diagonal f'(x_i) comes from a complex step, so f must be vectorized
    and accept complex arguments.  The matrix is scaled by |f'|^{-1/2} on both
    sides (where f' is nonzero), a congruence that keeps the sign of the
    smallest eigenvalue and gives a unit-magnitude diagonal.  Raises
    DomainError where f or f' is not finite on the grid.
    """
    lo = kernel_grid(lambda x, y: _divided_difference(f, x, y), LOEWNER_GRID, LOEWNER_GRID)
    d = np.abs(np.diagonal(lo))
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))  # any positive scaling is a congruence
    return float(np.linalg.eigvalsh(s[:, None] * lo * s[None, :])[0])


@dataclass
class ContractionResult:
    """Metric values before and after a channel; arrays over the stack for stacks."""

    g_before: float
    g_after: float
    refloored: bool = False


def contraction_check(entries, channel: KrausChannel, rho, a) -> tuple:
    """Metric values before/after a stochastic map, one ContractionResult per catalog entry.

    Monotone metrics contract.  The map, the re-floor and the eigendecompositions
    of rho and rho' are made once for all entries, so each result is the bits of
    its entry alone.  A mapped state rho' whose smallest eigenvalue falls below
    1e-10 is re-floored (recorded) to (1 - 1e-3) rho' + 1e-3 I/m, whose smallest
    eigenvalue is at least 1e-3/m - O(u) for any positive semidefinite rho'.
    One that is still not positive (rho was indefinite) raises
    ``strict-positivity``.  A stack of channels, states and tangents is checked
    slice by slice, with the same bits as alone; one input gives floats and a bool.
    """
    rho_out, a_out = (0.5 * (x + x.conj().swapaxes(-1, -2))
                      for x in (apply_channel(channel, rho), apply_channel(channel, a)))
    after = spectral_decompose(rho_out)
    refloored = after.eigenvalues[..., 0] < 1e-10
    if refloored.any():
        m = rho_out.shape[-1]
        floored = (1.0 - 1e-3) * rho_out + 1e-3 * np.eye(m) / m
        after = spectral_decompose(np.where(refloored[..., None, None], floored, rho_out))
        lo = after.eigenvalues[..., 0]
        _check(lo <= 0.0, "strict-positivity", "re-floored output smallest eigenvalue {:.3e}", lo)
    before = spectral_decompose(rho)
    refloored = refloored if refloored.shape else bool(refloored)
    return tuple(ContractionResult(hs_inner(a, kernel_action(before, before, e.c, a)),
                                   hs_inner(a_out, kernel_action(after, after, e.c, a_out)),
                                   refloored)
                 for e in entries)
