"""Independent routes the benchmark checks wyinfo's outputs against.

Matrix square roots and logarithms come from ``scipy.linalg`` (installed
alongside numpy here, but not a wyinfo dependency), so the closed forms are
recomputed without wyinfo's spectral calculus.  The curvature oracle
differentiates sampled ``metric_eval`` values numerically and assembles the
scalar curvature from Christoffel symbols, which shares nothing with the
spectral triple sum it checks.  Import this module only after the timed
passes: scipy adds to the peak resident memory the benchmark reports.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla


def _psd_sqrt(rho):
    root = sla.sqrtm(np.asarray(rho, dtype=complex))
    return 0.5 * (root + root.conj().T)


def wy_distance(rho, sigma) -> float:
    """2 arccos Tr(sqrtm(rho) sqrtm(sigma))."""
    arg = float(np.real(np.trace(_psd_sqrt(rho) @ _psd_sqrt(sigma))))
    return 2.0 * float(np.arccos(min(1.0, max(-1.0, arg))))


def bures_distance(rho, sigma) -> float:
    """sqrt(2 - 2 Tr sqrtm(sqrtm(rho) sigma sqrtm(rho)))."""
    root = _psd_sqrt(rho)
    fid = float(np.real(np.trace(_psd_sqrt(root @ sigma @ root))))
    return float(np.sqrt(max(2.0 - 2.0 * fid, 0.0)))


def g_wy_divergence(rho, sigma) -> float:
    """Tr(sqrt(rho) 4 (1 - Delta^(1/2)) sqrt(rho)) = 4 (1 - Tr sqrtm(rho) sqrtm(sigma))."""
    return 4.0 * (1.0 - float(np.real(np.trace(_psd_sqrt(rho) @ _psd_sqrt(sigma)))))


def umegaki_divergence(rho, sigma) -> float:
    """Tr(rho logm(rho)) - Tr(rho logm(sigma))."""
    rho = np.asarray(rho, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.real(np.trace(rho @ (sla.logm(rho) - sla.logm(sigma)))))


def wy_metric(rho, a, b):
    """<A, B>_wy = 4 Tr(X_A X_B), where sqrt(rho) X + X sqrt(rho) = A (Sylvester).

    Returns (value, sqrt(<A, A> <B, B>)); the second is the Cauchy-Schwarz
    scale against which an error in the value is judged.
    """
    root = _psd_sqrt(rho)
    xa = sla.solve_sylvester(root, root, np.asarray(a, dtype=complex))
    xb = sla.solve_sylvester(root, root, np.asarray(b, dtype=complex))

    def inner(x, y):
        return 4.0 * float(np.real(np.trace(x @ y)))

    return inner(xa, xb), float(np.sqrt(inner(xa, xa) * inner(xb, xb)))


def _dlog(rho, b):
    """Frechet derivative of the matrix logarithm: the corner of logm([[rho, B], [0, rho]])."""
    n = rho.shape[0]
    block = np.block([[rho, b], [np.zeros_like(rho), rho]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # logm's own error estimate
        return sla.logm(block)[:n, n:]


def bkm_metric(rho, a, b):
    """<A, B>_bkm = Tr(A Dlog_rho[B]); returns (value, Cauchy-Schwarz scale) as wy_metric."""
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    da, db = _dlog(rho, a), _dlog(rho, b)

    def inner(x, dy):
        return float(np.real(np.trace(x @ dy)))

    return inner(a, db), float(np.sqrt(inner(a, da) * inner(b, db)))


def rel_err(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(abs(expected), 1e-300)


# ---------------------------------------------------------------------------
# Scalar curvature of the trace-one manifold from sampled metric values
# ---------------------------------------------------------------------------

def _traceless_basis(n: int):
    """Orthonormal (Hilbert-Schmidt) basis of traceless Hermitian n x n matrices."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            basis.append(e)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        basis.append(np.diag(d / np.linalg.norm(d)).astype(complex))
    return basis


def _curvature_at_step(metric, rho, basis, h: float) -> float:
    m = len(basis)

    def g_at(x):
        point = rho + sum(xk * tk for xk, tk in zip(x, basis))
        g = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                g[i, j] = g[j, i] = metric(point, basis[i], basis[j])
        return g

    eye = np.eye(m)
    g0 = g_at(np.zeros(m))
    plus = [g_at(h * eye[k]) for k in range(m)]
    minus = [g_at(-h * eye[k]) for k in range(m)]
    dg = np.array([(plus[k] - minus[k]) / (2.0 * h) for k in range(m)])  # [k, i, j]
    ddg = np.empty((m, m, m, m))
    for k in range(m):
        ddg[k, k] = (plus[k] - 2.0 * g0 + minus[k]) / (h * h)
        for l in range(k + 1, m):
            mixed = (g_at(h * (eye[k] + eye[l])) - g_at(h * (eye[k] - eye[l]))
                     - g_at(h * (eye[l] - eye[k])) + g_at(-h * (eye[k] + eye[l])))
            ddg[k, l] = ddg[l, k] = mixed / (4.0 * h * h)
    ginv = np.linalg.inv(g0)
    # Christoffel symbols of the first kind, Gamma_{l,jk}, and their derivatives.
    gam1 = 0.5 * (np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg)
    dgam1 = 0.5 * (np.einsum("mjlk->mljk", ddg) + np.einsum("mklj->mljk", ddg) - ddg)
    gam = np.einsum("il,ljk->ijk", ginv, gam1)
    dginv = -np.einsum("ia,mab,bl->mil", ginv, dg, ginv)
    dgam = (np.einsum("mil,ljk->mijk", dginv, gam1)
            + np.einsum("il,mljk->mijk", ginv, dgam1))  # [m, i, j, k] = d_m Gamma^i_jk
    ricci = (np.einsum("iijk->jk", dgam) - np.einsum("jiik->jk", dgam)
             + np.einsum("iip,pjk->jk", gam, gam) - np.einsum("ijp,pik->jk", gam, gam))
    return float(np.einsum("jk,jk->", ginv, ricci))


def fd_scalar_curvature(metric, rho) -> float:
    """Scalar curvature of the trace-one manifold at rho from metric samples.

    ``metric(point, a, b)`` is sampled on a central-difference stencil in the
    affine coordinates rho + sum x_k T_k over an orthonormal traceless basis;
    Christoffel symbols and the Ricci tensor follow from the first and second
    differences.  The step is a fixed fraction of the smallest eigenvalue, and
    two steps are Richardson-combined to cancel the O(h^2) error.
    """
    rho = np.asarray(rho, dtype=complex)
    basis = _traceless_basis(rho.shape[0])
    h = 1e-2 * float(np.linalg.eigvalsh(rho)[0])
    coarse = _curvature_at_step(metric, rho, basis, h)
    fine = _curvature_at_step(metric, rho, basis, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0
