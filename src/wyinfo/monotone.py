"""Catalog of operator monotone functions and the metrics they generate.

Each catalog entry bundles a normalized symmetric operator monotone function
f, its kernel c(x, y) = 1 / (y f(x/y)), and the closed-form kernel derivative
dc/dx.  The metric at a state rho is <A, B> = Tr(A c(L_rho, R_rho)(B)).

Entries: "wy" (skew information), "sld" (Bures/symmetric logarithmic
derivative), "bkm" (Kubo-Mori), "rld" (right logarithmic derivative).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation
from .linalg import (
    BLOCK_ENTRIES,
    KrausChannel,
    _out,
    apply_channel,
    apply_kernel_superop,
    commutator,
    hs_inner,
    matrix_function,
    seeded_stack,
    spectral_decompose,
    spectral_function,
)

# Relative |x - y| gap below which the Kubo-Mori kernel and its derivative
# switch to midpoint series.  The direct derivative quotient loses eps/gap^2
# to cancellation, so the window is wide; the series carry enough terms to
# stay at machine precision across the whole window.
_BKM_NEAR = 3e-2


@dataclass(frozen=True)
class MonotoneFunctionEntry:
    """A named operator monotone function with its kernel and kernel derivative.

    ``complex_evaluable`` asserts f, c and dc_dx accept complex scalars near
    the positive real axis; the curvature engine requires it, because it
    takes its coincidence limits by complex step.
    """

    id: str
    f: Callable
    c: Optional[Callable] = None
    dc_dx: Optional[Callable] = None
    complex_evaluable: bool = False


# -- wy: f(x) = (sqrt(x) + 1)^2 / 4 -----------------------------------------

def _f_wy(x):
    s = np.sqrt(x)
    return 0.25 * (s + 1.0) ** 2


def _c_wy(x, y):
    return 4.0 / (np.sqrt(x) + np.sqrt(y)) ** 2


def _dc_wy(x, y):
    sx = np.sqrt(x)
    return -4.0 / (sx * (sx + np.sqrt(y)) ** 3)


# -- sld: f(x) = (1 + x) / 2 -------------------------------------------------

def _f_sld(x):
    return 0.5 * (1.0 + x)


def _c_sld(x, y):
    return 2.0 / (x + y)


def _dc_sld(x, y):
    return -2.0 / (x + y) ** 2


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
        w2 = np.where(near, w, 0.0) ** 2
        # (log x - log y)/(x - y) = atanh(w)/(m w); truncation ~ w^8/9
        series = (1.0 + w2 * (1.0 / 3.0 + w2 * (1.0 / 5.0 + w2 / 7.0))) / m
    return np.where(near, series, direct)


def _dc_bkm(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    near = np.abs(x - y) <= _BKM_NEAR * np.maximum(np.abs(x), np.abs(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = ((x - y) / x - (np.log(x) - np.log(y))) / (x - y) ** 2
        m, w = _bkm_midpoint(x, y)
        w = np.where(near, w, 0.0)
        # d/dx [atanh(w)/(m w)] with m = (x+y)/2, w = (x-y)/(2m);
        # truncation ~ (8/9) w^7
        series = -(1.0 - (2.0 / 3.0) * w + w**2 - 0.8 * w**3 + w**4
                   - (6.0 / 7.0) * w**5 + w**6) / (2.0 * m**2)
    return np.where(near, series, direct)


# -- rld: f(x) = 2x / (1 + x) --------------------------------------------------

def _f_rld(x):
    return 2.0 * np.asarray(x) / (1.0 + np.asarray(x))


def _c_rld(x, y):
    return (np.asarray(x) + np.asarray(y)) / (2.0 * np.asarray(x) * np.asarray(y))


def _dc_rld(x, y):
    return -1.0 / (2.0 * np.asarray(x) ** 2)


_CATALOG = (
    MonotoneFunctionEntry("wy", _f_wy, _c_wy, _dc_wy, complex_evaluable=True),
    MonotoneFunctionEntry("sld", _f_sld, _c_sld, _dc_sld, complex_evaluable=True),
    MonotoneFunctionEntry("bkm", _f_bkm, _c_bkm, _dc_bkm, complex_evaluable=True),
    MonotoneFunctionEntry("rld", _f_rld, _c_rld, _dc_rld, complex_evaluable=True),
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
# Sampled certification
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    function_id: str
    trials: int
    violations: int
    worst_margin: float
    skipped: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def sampled_operator_monotonicity(entries, trials: int, n: int, seed: int):
    """Check f(A) <= f(B) on random pairs 0 <= A <= B, B = A + P^dag P.

    A violation is the smallest eigenvalue of f(B) - f(A) dipping below
    -1e-9; violations are counted, never raised.  Trial t draws its pair
    from rng_from(seed, t); the trials are evaluated in stacked blocks.  One
    entry gives one report; a sequence of entries gives a list of reports, all
    checked on the same pairs, each block drawn and decomposed once.
    """
    if trials < 1:
        raise InvariantViolation("trials", f"{trials} < 1")
    if n < 1:
        raise InvariantViolation("dimension", f"n={n} < 1")
    single = isinstance(entries, MonotoneFunctionEntry)
    entries = [entries] if single else list(entries)
    violations, worst = [0] * len(entries), [np.inf] * len(entries)
    rows = max(1, BLOCK_ENTRIES // (2 * n * n))
    for lo in range(0, trials, rows):
        # G then P, real parts before imaginary, from each trial's stream: (trials, 2, 2, n, n)
        z = seeded_stack([(seed, t) for t in range(lo, min(trials, lo + rows))],
                         lambda rng: rng.standard_normal((2, 2, n, n)))
        g, p = z[:, 0, 0] + 1j * z[:, 0, 1], z[:, 1, 0] + 1j * z[:, 1, 1]
        a = g.conj().swapaxes(-1, -2) @ g
        pair = np.stack([a, a + p.conj().swapaxes(-1, -2) @ p], axis=1)
        dec = spectral_decompose(0.5 * (pair + pair.conj().swapaxes(-1, -2)))
        for i, entry in enumerate(entries):
            f = spectral_function(dec, entry.f)
            margins = np.linalg.eigvalsh(f[:, 1] - f[:, 0])[:, 0]
            worst[i] = min(worst[i], float(np.min(margins)))
            violations[i] += int(np.count_nonzero(margins < -1e-9))
    out = [MonotonicityReport(e.id, trials, v, w) for e, v, w in zip(entries, violations, worst)]
    return out[0] if single else out


@dataclass
class ContractionResult:
    """Metric values before and after a channel.

    For stacks every field is an array over the stack, and ``skipped`` holds
    None or the reason for each slice.
    """

    g_before: float
    g_after: float
    refloored: bool = False
    skipped: Optional[str] = None


def contraction_check(entry: MonotoneFunctionEntry, channel: KrausChannel, rho, a,
                      refloor_eps: float = 1e-3) -> ContractionResult:
    """Metric values before/after a stochastic map; monotone metrics contract.

    If the mapped state's smallest eigenvalue falls below 1e-10 it is
    re-floored by mixing with I/n (recorded); if even that fails the check is
    skipped with reason.
    A stack of channels, states and tangents is checked slice by slice, each
    slice re-floored or skipped on its own, with the same bits as alone.
    One input runs as a 0-d stack and gives a float, a bool and None or a str.
    """
    g_before = metric_eval(entry, rho, a, a)
    rho_out = apply_channel(channel, rho)
    rho_out = 0.5 * (rho_out + rho_out.conj().swapaxes(-1, -2))
    a_out = apply_channel(channel, a)
    a_out = 0.5 * (a_out + a_out.conj().swapaxes(-1, -2))
    refloored = np.linalg.eigvalsh(rho_out)[..., 0] < 1e-10
    skipped = np.zeros_like(refloored)
    if refloored.any():
        m = channel.output_dim
        floored = (1.0 - refloor_eps) * rho_out + refloor_eps * np.eye(m) / m
        rho_out = np.where(refloored[..., None, None], floored, rho_out)
        skipped = refloored & (np.linalg.eigvalsh(rho_out)[..., 0] <= 0.0)
    g_after = np.full(refloored.shape, np.nan)
    keep = ~skipped
    g_after[keep] = metric_eval(entry, rho_out[keep], a_out[keep], a_out[keep])
    skipped = np.where(skipped, "output not full rank", None)
    if not refloored.shape:
        return ContractionResult(g_before, float(g_after), bool(refloored), skipped.item())
    return ContractionResult(g_before, g_after, refloored, skipped)
