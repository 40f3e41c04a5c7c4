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
(log c)'(z,x) and (log c)'(z,y), so `scalar_curvature` evaluates c and
(log c)' once each on the n x n eigenvalue grid and reads the triples from
those two grids (Daleckii-Krein: Bhatia, Matrix Analysis, ch. V).

All singularities at coinciding arguments are removable.  Near-coincident
triples are evaluated per triple through divided differences at pair
midpoints, which call the kernel again; where a derivative of a closed-form
auxiliary is required it comes from linalg's complex step, Im f(t + ih) / h,
which has no cancellation.  So every entry must be `complex_evaluable`.
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


def _t1_phi(entry: MonotoneFunctionEntry, x: float, y: float, cxy: float):
    """phi(t) = c(x,y)/(c(x,t) c(y,t)) - t and its closed-form derivative.

    t1 equals the second divided difference phi[x, y, z] because phi vanishes
    at t = x and t = y.  c is symmetric, so d/dt c(x,t) = dc_dx(t, x).
    """

    def phi(t: float) -> float:
        return cxy / (float(entry.c(x, t)) * float(entry.c(y, t))) - t

    def dphi(t):
        cxt, cyt = entry.c(x, t), entry.c(y, t)
        dxt, dyt = entry.dc_dx(t, x), entry.dc_dx(t, y)
        return -cxy * (dxt * cyt + cxt * dyt) / (cxt * cyt) ** 2 - 1.0

    return phi, dphi


def _t1(entry: MonotoneFunctionEntry, x: float, y: float, z: float,
        cxy: float, cxz: float, cyz: float) -> float:
    near_xz = _near(x, z, T1_GAP_RTOL)
    near_yz = _near(y, z, T1_GAP_RTOL)
    if not near_xz and not near_yz:
        # x close to y is harmless here: only the z-pairs divide.
        return (cxy - z * cxz * cyz) / ((x - z) * (y - z) * cxz * cyz)
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


def _require_complex_evaluable(entry: MonotoneFunctionEntry) -> None:
    if not entry.complex_evaluable:
        raise InvariantViolation(
            "complex-evaluable", f"'{entry.id}': the coincidence limits take complex steps")


def _aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float,
               cxy: float, cxz: float, cyz: float, lzx: float, lzy: float) -> AuxTerms:
    """The auxiliary terms of one triple from its five kernel values.

    Away from x = y every term is an expression of c(x,y), c(x,z), c(y,z),
    (log c)'(z,x) and (log c)'(z,y); the near-coincidence limits call the
    kernel again.
    """
    t1 = _t1(entry, x, y, z, cxy, cxz, cyz)
    if _near(x, y, T23_GAP_RTOL):
        # t2 and t3 are divided differences over x - y: take their limits.
        m = 0.5 * (x + y)
        q = float(entry.dc_dx(m, z))
        t3 = z * _complex_step(lambda t: _log_c_prime(entry, z, t), m)
    else:
        q = (cxz - cyz) / (x - y)
        t3 = z * (lzx - lzy) / (x - y)
    t2 = q * q / (cxy * cxz * cyz)
    t4 = z * lzx * lzy
    return AuxTerms(t1, t2, t3, t4, t1 - 0.5 * t2 + 2.0 * t3 - t4)


def scal_aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> AuxTerms:
    """The four auxiliary terms and their combination for one triple."""
    _require_complex_evaluable(entry)
    if not np.isfinite((x, y, z)).all():
        raise InvariantViolation("finite", f"triple ({x}, {y}, {z})")
    if min(x, y, z) <= 0.0:
        raise ValueError(f"triple arguments must be positive, got ({x}, {y}, {z})")
    cxy, cxz, cyz = float(entry.c(x, y)), float(entry.c(x, z)), float(entry.c(y, z))
    lzx, lzy = _log_c_prime(entry, z, x), _log_c_prime(entry, z, y)
    return _aux_terms(entry, x, y, z, cxy, cxz, cyz, lzx, lzy)


def wy_aux_closed_forms(x: float, y: float, z: float):
    """Exact auxiliary terms for the skew-information kernel c = 4/(sqrt x + sqrt y)^2."""
    sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
    t1 = (sx * sy + 3.0 * sx * sz + 3.0 * sy * sz + z) / (
        4.0 * (sx + sy) ** 2 * (sx + sz) * (sy + sz))
    t2 = (sx + sy + 2.0 * sz) ** 2 / (4.0 * (sx + sz) ** 2 * (sy + sz) ** 2)
    t3 = sz / ((sx + sy) * (sx + sz) * (sy + sz))
    t4 = 1.0 / ((sx + sz) * (sy + sz))
    return t1, t2, t3, t4


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
    spectral degeneracies pins this convention.
    """
    _require_complex_evaluable(entry)
    rho = assert_hermitian(rho, "rho")
    if not len(rho):
        raise InvariantViolation("dimension", "rho is 0 x 0")
    w = spectral_decompose(rho).eigenvalues
    if (w <= 0.0).any():
        raise InvariantViolation("strict-positivity", f"rho smallest eigenvalue {w[0]:.3e}")
    c = kernel_grid(entry.c, w, w)
    log_c_prime = kernel_grid(entry.dc_dx, w, w) / c  # (log c)'(w_i, w_j)
    w = w.tolist()
    n = len(w)
    rows = list(zip(range(n), w, c.tolist(), log_c_prime.tolist()))
    vals = np.array([_aux_terms(entry, x, y, z, cx[j], cx[k], cy[k], lz[i], lz[j]).combined
                     for i, x, cx, _ in rows for j, y, cy, _ in rows for k, z, _, lz in rows])
    # The coincident triple (x_i, x_i, x_i) sits at flat index i (n^2 + n + 1).
    scal = float(np.sum(vals) - np.sum(vals[::n * n + n + 1]))
    return CurvatureReport(entry.id, n, scal, scal + scal1_shift(n), w)
