"""Scalar curvature of monotone metrics via the spectral triple sum.

For a catalog entry with kernel c and kernel derivative dc/dx, four auxiliary
terms are assembled per eigenvalue triple (x, y, z):

    t1 = (c(x,y) - z c(x,z) c(y,z)) / ((x-z)(y-z) c(x,z) c(y,z))
    t2 = (c(x,z) - c(y,z))^2 / ((x-y)^2 c(x,y) c(x,z) c(y,z))
    t3 = z ((log c)'(z,x) - (log c)'(z,y)) / (x - y)
    t4 = z (log c)'(z,x) (log c)'(z,y)
    combined = t1 - t2/2 + 2 t3 - t4

(' is the derivative in the first kernel slot.)  The curvature of the full
positive cone is the sum of `combined` over all eigenvalue triples, counted
with multiplicity, minus the fully coincident terms; the trace-one manifold
adds the dimensional constant (n^2-1)(n^2-2)/4.

Every term is an expression of five kernel values, c(x,y), c(x,z), c(y,z),
(log c)'(z,x) and (log c)'(z,y), so `scalar_curvature` evaluates c and dc/dx
once each on the n x n eigenvalue grid and computes the triples with numpy
on the (n, n, n) grid (Daleckii-Krein: Bhatia, Matrix Analysis, ch. V).  The
singularities at coinciding arguments are removable, and a triple takes one
of three routes:
- generic: no pair of x, y, z is near, and the quotients above hold;
- one exact index coincidence, the third eigenvalue apart: closed-form limits
  from the grids (x = y: dc/dx(x,z) and one vectorised complex step of
  (log c)'(z, .); z = x or z = y: t1's Newton recursion);
- per triple, through divided differences at pair midpoints that call the
  kernel again: a near pair of distinct indices (clustered or repeated
  eigenvalues), and the n fully coincident triples.

A derivative of a closed-form auxiliary comes from linalg's complex step,
Im f(t + ih) / h, which has no cancellation.  Every call takes that step, so
a kernel that stays real on it raises `complex-evaluable`, and an entry
without c or dc_dx raises `kernel-defined`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .linalg import _complex_step, assert_hermitian, kernel_grid, spectral_decompose
from .monotone import MonotoneFunctionEntry

# Relative gap thresholds for switching to the removable-singularity paths.
# t1's numerator vanishes to second order when z meets x and y, so its direct
# quotient loses eps/gap^2; the crossover against the O(gap^2) truncation of
# the stable path sits near eps^(1/4) = 1e-4.  t2/t3 cancel only to first
# order, which puts their crossover near eps^(1/3).
T1_GAP_RTOL = 1e-4
T23_GAP_RTOL = 1e-5


class AuxTerms(NamedTuple):
    t1: float
    t2: float
    t3: float
    t4: float
    combined: float


def _near(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(a, b)


def _log_c_prime(entry: MonotoneFunctionEntry, z, x):
    """(log c)'(z, x): first-slot derivative of log c at (z, x)."""
    return entry.dc_dx(z, x) / entry.c(z, x)


def _phi(cxy, cxt, cyt, t):
    """phi(t) = c(x,y)/(c(x,t) c(y,t)) - t from its kernel values."""
    return cxy / (cxt * cyt) - t


def _dphi(cxy, cxt, cyt, dxt, dyt):
    """phi'(t) from its kernel values; c is symmetric, so d/dt c(x,t) = dc_dx(t, x)."""
    return -cxy * (dxt * cyt + cxt * dyt) / (cxt * cyt) ** 2 - 1.0


def _t1_phi(entry: MonotoneFunctionEntry, x: float, y: float, cxy: float):
    """phi and phi' calling the kernel; t1 is phi[x, y, z] as phi(x) = phi(y) = 0."""

    def phi(t: float) -> float:
        return _phi(cxy, float(entry.c(x, t)), float(entry.c(y, t)), t)

    def dphi(t):
        return _dphi(cxy, entry.c(x, t), entry.c(y, t), entry.dc_dx(t, x), entry.dc_dx(t, y))

    return phi, dphi


def _t1(entry: MonotoneFunctionEntry, x: float, y: float, z: float, cxy: float,
        near_xz: bool, near_yz: bool) -> float:
    """t1's limit where z sits near x or y."""
    # Chain membership: z sits near x or y, so all three cluster when x and y
    # are linked directly or through z.
    if _near(x, y, T1_GAP_RTOL) or (near_xz and near_yz):
        # phi[x,y,z] ~= phi''(centroid) / 2, phi'' a complex step on phi'.
        _, dphi = _t1_phi(entry, x, y, cxy)
        return 0.5 * _complex_step(dphi, (x + y + z) / 3.0)
    if near_yz:
        x, y = y, x  # t1 is symmetric in (x, y); reduce to the z ~ x case
    phi, dphi = _t1_phi(entry, x, y, cxy)
    # Newton recursion on nodes [x, z, y]: (phi[x,z] - phi[z,y]) / (x - y),
    # where phi[x,z] over the small gap is phi' at the pair midpoint; the
    # cluster test guarantees |x - y| exceeds the gap threshold.
    dd_xz = dphi(0.5 * (x + z))
    dd_zy = (phi(z) - phi(y)) / (z - y)
    return (dd_xz - dd_zy) / (x - y)


def _terms(x, y, z, cxy, cxz, cyz, lzx, lzy, t1=None, q=None, t3=None) -> AuxTerms:
    """The auxiliary terms from the five kernel values, on floats or arrays: t1,
    q = c(., z)[x, y] and t3 take their generic quotients unless a limit is
    passed in.  Only the z-pairs divide t1, so x close to y is harmless there."""
    if t1 is None:
        t1 = (cxy - z * cxz * cyz) / ((x - z) * (y - z) * cxz * cyz)
    if q is None:
        q = (cxz - cyz) / (x - y)
    if t3 is None:
        t3 = z * (lzx - lzy) / (x - y)
    t2 = q * q / (cxy * cxz * cyz)
    t4 = z * lzx * lzy
    return AuxTerms(t1, t2, t3, t4, t1 - 0.5 * t2 + 2.0 * t3 - t4)


def _aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float,
               cxy: float, cxz: float, cyz: float, lzx: float, lzy: float) -> AuxTerms:
    """The auxiliary terms of one triple from its five kernel values; the
    near-coincidence limits call the kernel again."""
    near_xz, near_yz = _near(x, z, T1_GAP_RTOL), _near(y, z, T1_GAP_RTOL)
    t1 = _t1(entry, x, y, z, cxy, near_xz, near_yz) if near_xz or near_yz else None
    q = t3 = None
    if _near(x, y, T23_GAP_RTOL):
        # t2 and t3 are divided differences over x - y: take their limits.
        m = 0.5 * (x + y)
        q = float(entry.dc_dx(m, z))
        t3 = z * _complex_step(lambda t: _log_c_prime(entry, z, t), m)
    return _terms(x, y, z, cxy, cxz, cyz, lzx, lzy, t1, q, t3)


def scal_aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> AuxTerms:
    """The four auxiliary terms and their combination for one triple."""
    if entry.c is None or entry.dc_dx is None:
        raise InvariantViolation("kernel-defined", f"'{entry.id}' lacks c or dc_dx")
    if not np.isfinite((x, y, z)).all():
        raise InvariantViolation("finite", f"triple ({x}, {y}, {z})")
    if min(x, y, z) <= 0.0:
        raise InvariantViolation("strict-positivity", f"triple ({x}, {y}, {z})")
    cxy, cxz, cyz = float(entry.c(x, y)), float(entry.c(x, z)), float(entry.c(y, z))
    lzx, lzy = _log_c_prime(entry, z, x), _log_c_prime(entry, z, y)
    return _aux_terms(entry, x, y, z, cxy, cxz, cyz, lzx, lzy)


def scal1_shift(n: int) -> float:
    """Curvature shift between the positive cone and its trace-one slice; also
    the constant trace-one curvature of the skew-information metric."""
    return 0.25 * (n**2 - 1) * (n**2 - 2)


@dataclass
class CurvatureReport:
    function_id: str
    n: int
    scal: float   # curvature of the positive cone D_n
    scal1: float  # curvature of the trace-one manifold D^1_n
    spectrum: list

    def as_dict(self) -> dict:
        return asdict(self)


def scalar_curvature(entry: MonotoneFunctionEntry, rho) -> CurvatureReport:
    """Scalar curvature at rho from the eigenvalue triple sum.

    The sum runs over the eigenvalue list with multiplicity (n^3 ordered
    triples), then subtracts the n fully coincident terms; continuity at
    spectral degeneracies pins this convention.  The triples take the three
    routes of the module docstring; the flat (i, j, k) sum keeps its order.
    """
    rho = assert_hermitian(rho, "rho")
    if not len(rho):
        raise InvariantViolation("dimension", "rho is 0 x 0")
    w = spectral_decompose(rho).eigenvalues
    if (w <= 0.0).any():
        raise InvariantViolation("strict-positivity", f"rho smallest eigenvalue {w[0]:.3e}")
    c = kernel_grid(entry.c, w, w)
    dc = kernel_grid(entry.dc_dx, w, w)
    lcp = dc / c  # (log c)'(w_i, w_j)
    n = len(w)

    def at(i, j, k):  # x, y, z and the five kernel values of the triples (i, j, k)
        return w[i], w[j], w[k], c[i, j], c[i, k], c[j, k], lcp[k, i], lcp[k, j]

    i, j, k = np.ix_(range(n), range(n), range(n))
    near1, near23 = (np.abs(w[:, None] - w) <= r * np.maximum(w[:, None], w)
                     for r in (T1_GAP_RTOL, T23_GAP_RTOL))
    with np.errstate(all="ignore"):  # coincident triples divide by zero; rerouted below
        vals = _terms(*at(i, j, k)).combined
    routed = ~(near1[i, k] | near1[j, k] | near23[i, j])  # generic so far
    # One exact index coincidence, the third eigenvalue apart (pairs a, b):
    # x = y takes the t2/t3 limits, z = x or z = y t1's Newton recursion
    # (phi'(z) - phi[z, r]) / (z - r) with r the other one.
    a, b = np.nonzero(~near1)
    t3 = w[b] * _complex_step(lambda t: _log_c_prime(entry, w[b], t), w[a])
    vals[a, a, b] = _terms(*at(a, a, b), q=dc[a, b], t3=t3).combined
    for p, r in ((a, b), (b, a)):  # triples (a, b, a), then (a, b, b)
        x, y, cxy = w[p], w[r], c[a, b]
        dd_xy = (_phi(cxy, c[p, p], c[r, p], x) - _phi(cxy, c[p, r], c[r, r], y)) / (x - y)
        t1 = (_dphi(cxy, c[p, p], c[r, p], dc[p, p], dc[p, r]) - dd_xy) / (x - y)
        vals[a, b, p] = _terms(*at(a, b, p), t1=t1).combined
    routed[a, a, b] = routed[a, b, a] = routed[a, b, b] = True
    # Near-distinct pairs and the n fully coincident triples, per triple.
    wl, cl, ll = w.tolist(), c.tolist(), lcp.tolist()
    for i, j, k in np.argwhere(~routed).tolist():
        vals[i, j, k] = _aux_terms(entry, wl[i], wl[j], wl[k], cl[i][j], cl[i][k], cl[j][k],
                                   ll[k][i], ll[k][j]).combined
    vals = vals.ravel()
    # The coincident triple (x_i, x_i, x_i) sits at flat index i (n^2 + n + 1).
    scal = float(np.sum(vals) - np.sum(vals[::n * n + n + 1]))
    return CurvatureReport(entry.id, n, scal, scal + scal1_shift(n), wl)
