"""Scalar curvature of monotone metrics via the spectral triple sum.

For a catalog entry with kernel c and kernel derivative dc/dx, four auxiliary
terms are assembled per eigenvalue triple (x, y, z):

    t1 = (c(x,y) - z c(x,z) c(y,z)) / ((x-z)(y-z) c(x,z) c(y,z))
    t2 = (c(x,z) - c(y,z))^2 / ((x-y)^2 c(x,y) c(x,z) c(y,z))
    t3 = z ((log c)'(z,x) - (log c)'(z,y)) / (x - y)
    t4 = z (log c)'(z,x) (log c)'(z,y)
    combined = t1 - t2/2 + 2 t3 - t4

(' is the derivative in the first kernel slot.)  The curvature of the full
positive cone is the sum of `combined` over the eigenvalue triples, counted
with multiplicity, that excludes the n fully coincident ones; the trace-one
manifold adds the dimensional constant (n^2-1)(n^2-2)/4.

Every term is an expression of five kernel values, c(x,y), c(x,z), c(y,z),
(log c)'(z,x) and (log c)'(z,y), so `scalar_curvature` evaluates c and dc/dx
once each on the n x n eigenvalue grid and computes the triples with numpy
on the (n, n, n) grid (Daleckii-Krein: Bhatia, Matrix Analysis, ch. V).  The
singularities at coinciding arguments are removable.  A triple is routed by
how near its eigenvalues sit, never by its indices; an exact repeat is the
zero-gap case of near:
- generic: no pair of x, y, z is near, and the quotients above hold;
- z near exactly one of x and y: t1 by Newton's recursion, phi' at a midpoint;
- x near y, z apart: q = dc/dx(m, z) and t3 by a complex step, m = (x + y)/2;
- other three-point clusters (x, y and z linked by near pairs): per triple,
  t1 = phi''/2 at the centroid.
The middle two routes overwrite the generic t1, q and t3 grids, each with one
vectorised kernel call and none when no triple takes it; one `_terms` pass
follows.  Each limit is written once and also serves `scal_aux_terms`.

A derivative of a closed-form auxiliary comes from linalg's complex step,
Im f(t + ih) / h, which has no cancellation.  Every call at n >= 2 takes that
step, so a kernel that stays real on it raises `complex-evaluable`, and an
entry without c or dc_dx raises `kernel-defined`.
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
    p = cxt * cyt
    return -cxy * (dxt * cyt + cxt * dyt) / (p * p) - 1.0


def _dphi_at(entry: MonotoneFunctionEntry, x, y, cxy, t):
    """phi'(t), calling the kernel at t; t may be complex."""
    return _dphi(cxy, entry.c(x, t), entry.c(y, t), entry.dc_dx(t, x), entry.dc_dx(t, y))


def _t1_newton(entry: MonotoneFunctionEntry, x, y, z, cxy, cxz, cyz, cyy):
    """t1 = phi[x, z, y] for z near x and y apart, on floats or arrays: Newton's
    recursion (phi[x,z] - phi[z,y]) / (x - y), with phi[x,z] over the small gap
    taken as phi' at the pair midpoint (phi(x) = phi(y) = 0)."""
    dd_zy = (_phi(cxy, cxz, cyz, z) - _phi(cxy, cxy, cyy, y)) / (z - y)
    return (_dphi_at(entry, x, y, cxy, 0.5 * (x + z)) - dd_zy) / (x - y)


def _pair_limits(entry: MonotoneFunctionEntry, x, y, z):
    """(q, t3) for x near y, on floats or arrays: t2's divided difference
    q = c(., z)[x, y] and t3 over x - y, both taken at the midpoint."""
    m = 0.5 * (x + y)
    return entry.dc_dx(m, z), z * _complex_step(lambda t: _log_c_prime(entry, z, t), m)


def _quotients(x, y, z, cxy, cxz, cyz, lzx, lzy, t1=None, q=None, t3=None):
    """t1, q = c(., z)[x, y] and t3 on floats or arrays: the generic quotients
    unless a limit is passed in.  Only the z-pairs divide t1."""
    if t1 is None:
        t1 = (cxy - z * cxz * cyz) / ((x - z) * (y - z) * cxz * cyz)
    if q is None:
        q = (cxz - cyz) / (x - y)
    if t3 is None:
        t3 = z * (lzx - lzy) / (x - y)
    return t1, q, t3


def _terms(x, y, z, cxy, cxz, cyz, lzx, lzy, t1, q, t3) -> AuxTerms:
    """The auxiliary terms from the five kernel values and t1, q and t3."""
    t2 = q * q / (cxy * cxz * cyz)
    t4 = z * lzx * lzy
    return AuxTerms(t1, t2, t3, t4, t1 - 0.5 * t2 + 2.0 * t3 - t4)


def _aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float,
               cxy: float, cxz: float, cyz: float, lzx: float, lzy: float) -> AuxTerms:
    """The auxiliary terms of one triple from its five kernel values; the
    near-coincidence limits call the kernel again."""
    near_xz, near_yz = _near(x, z, T1_GAP_RTOL), _near(y, z, T1_GAP_RTOL)
    t1 = q = t3 = None
    if near_xz and near_yz or (near_xz or near_yz) and _near(x, y, T1_GAP_RTOL):
        # A three-point cluster: phi[x,y,z] ~= phi''(centroid) / 2, phi'' a
        # complex step on phi'.
        t1 = 0.5 * _complex_step(lambda t: _dphi_at(entry, x, y, cxy, t), (x + y + z) / 3.0)
    elif near_xz:
        t1 = _t1_newton(entry, x, y, z, cxy, cxz, cyz, float(entry.c(y, y)))
    elif near_yz:  # t1 is symmetric in (x, y)
        t1 = _t1_newton(entry, y, x, z, cxy, cyz, cxz, float(entry.c(x, x)))
    if _near(x, y, T23_GAP_RTOL):
        q, t3 = _pair_limits(entry, x, y, z)
    kv = x, y, z, cxy, cxz, cyz, lzx, lzy
    return _terms(*kv, *_quotients(*kv, t1, q, t3))


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

    The sum runs over the n^3 ordered triples of the eigenvalue list, counted
    with multiplicity, and excludes the n fully coincident ones (i, i, i);
    continuity at spectral degeneracies pins this convention.  Triples take
    the routes of the module docstring; the flat (i, j, k) sum keeps its order.
    """
    rho = assert_hermitian(rho, "rho")
    if not len(rho):
        raise InvariantViolation("dimension", "rho is 0 x 0")
    w = spectral_decompose(rho).eigenvalues
    if (w <= 0.0).any():
        raise InvariantViolation("strict-positivity", f"rho smallest eigenvalue {w[0]:.3e}")
    c = kernel_grid(entry.c, w, w)
    lcp = kernel_grid(entry.dc_dx, w, w) / c  # (log c)'(w_i, w_j)
    n, d = len(w), range(len(w))
    i, j, k = np.ix_(d, d, d)
    near1, near23 = (np.abs(w[:, None] - w) <= r * np.maximum(w[:, None], w)
                     for r in (T1_GAP_RTOL, T23_GAP_RTOL))
    xz, yz, xy = near1[i, k], near1[j, k], near1[i, j]
    cluster = xz & yz | (xz | yz) & xy
    newton, pair = (xz | yz) & ~cluster, near23[i, j] & ~cluster
    cluster[d, d, d] = False  # the coincident triples, left out of the sum
    kv = w[i], w[j], w[k], c[i, j], c[i, k], c[j, k], lcp[k, i], lcp[k, j]  # x, y, z, kernels
    with np.errstate(all="ignore"):  # near triples divide by zero; rerouted below
        t1, q, t3 = _quotients(*kv)
    if newton.any():  # z near exactly one of x and y: Newton's recursion from u, the near one
        a, b, z = np.nonzero(newton)
        u, v = np.where(near1[b, z], b, a), np.where(near1[b, z], a, b)
        t1[a, b, z] = _t1_newton(entry, w[u], w[v], w[z], c[u, v], c[u, z], c[v, z], c[v, v])
    if pair.any():  # x near y, z apart: t2 and t3 at the pair midpoint
        a, b, z = np.nonzero(pair)
        q[a, b, z], t3[a, b, z] = _pair_limits(entry, w[a], w[b], w[z])
    with np.errstate(all="ignore"):  # clusters are set per triple below
        vals = _terms(*kv, t1, q, t3).combined
    vals[d, d, d] = 0.0
    wl, cl, ll = w.tolist(), c.tolist(), lcp.tolist()
    for i, j, k in np.argwhere(cluster).tolist():
        vals[i, j, k] = _aux_terms(entry, wl[i], wl[j], wl[k], cl[i][j], cl[i][k], cl[j][k],
                                   ll[k][i], ll[k][j]).combined
    scal = float(np.sum(vals))
    return CurvatureReport(entry.id, n, scal, scal + scal1_shift(n), wl)
