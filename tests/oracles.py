"""Independent numerical oracles used by the tests.

These stay deliberately separate from the library code paths they check:
curvature from raw metric samples via coordinate finite differences, a
plain classical Kullback-Leibler sum, the per-node path-length loop that
the stacked `path_length` must reproduce bit for bit, the per-pair and
per-trial loops that the block-drawn distance-bound, geodesic-length,
monotonicity, pullback, skew-identity, hessian and classical suites must
reproduce likewise, each trial read alone at its stream counter
(`trials_alone`), the per-trial loop that grouped a suite's trials into
blocks (`trial_plan_per_trial`), and the per-term curvature auxiliaries
(`scal_aux_terms`, one helper per term, on Python scalars) that the grid
engine must reproduce: bit for bit per triple except where its complex step
runs on numpy arrays (a few ulps, wy and sld at x = y), and within 1e-12 of
scal1 in the sum.  Trial t of a suite runs at n_values[t % len].
Operator monotonicity is sampled here, one random pair 0 <= A <= B at a
time (`sampled_monotonicity_per_trial`): the reference that the library's
deterministic Loewner margin and the dual-pair verdicts built on it are
checked against.

The last section holds reference routes that no suite or command needs: the
tangent split, the Hilbert-Schmidt norm, the Haar unitary, the classical
geodesic, sphere map, curvature constant and score-to-tangent map, the
square-root image, the general pull-back differential and condition with their
test functions, the relative modular operator and the wy auxiliary closed
forms; and `save_matrix`, which writes the state files the CLI tests read.
"""

import collections
import json
from typing import NamedTuple

import numpy as np

from wyinfo.curvature import (
    T1_GAP_RTOL,
    T23_GAP_RTOL,
    AuxTerms,
)
from wyinfo import classical, matio
from wyinfo.divergence import g_catalog, hessian_check
from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.geometry import (
    induced_kernel,
    path_length,
    power_function,
    pullback_metric,
    wy_distance_audit,
    wy_geodesic,
)
from wyinfo.linalg import (
    KrausChannel,
    _divided_difference,
    _gaussian,
    _haar_from_gaussian,
    _out,
    apply_kernel_superop,
    hs_inner,
    kernel_action,
    kernel_grid,
    matrix_function,
    random_density,
    random_kraus_channel,
    random_tangent,
    rng_from,
    spectral_decompose,
)
from wyinfo.monotone import (
    MonotoneFunctionEntry,
    catalog,
    catalog_entry,
    contraction_check,
    metric_eval,
    skew_identity_residual,
    skew_information,
)
from wyinfo.suites import SUITE_TAGS, Block


def traceless_hermitian_basis(n: int):
    """Orthonormal (Hilbert-Schmidt) basis of traceless Hermitian n x n matrices."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            basis.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -k
        diag /= np.linalg.norm(diag)
        basis.append(np.diag(diag).astype(complex))
    return basis


def fd_scalar_curvature(metric_at, theta0, h=1e-3):
    """Scalar curvature of a coordinate metric patch by central differences.

    ``metric_at(theta) -> (d, d) array`` of metric components.  Christoffel
    symbols and their derivatives come from nested second-order stencils;
    the result is g^{ij} R_ij with the standard curvature conventions.
    """
    theta0 = np.asarray(theta0, dtype=float)
    d = len(theta0)
    eye = np.eye(d)

    def dg(theta):
        out = np.empty((d, d, d))  # out[k] = d g / d theta_k
        for k in range(d):
            out[k] = (metric_at(theta + h * eye[k]) - metric_at(theta - h * eye[k])) / (2 * h)
        return out

    def christoffel(theta):
        g = metric_at(theta)
        ginv = np.linalg.inv(g)
        dgs = dg(theta)
        gamma = np.empty((d, d, d))  # gamma[a, i, j]
        for i in range(d):
            for j in range(d):
                rhs = dgs[i, j, :] + dgs[j, i, :] - dgs[:, i, j]
                gamma[:, i, j] = 0.5 * ginv @ rhs
        return gamma

    gamma0 = christoffel(theta0)
    dgamma = np.empty((d, d, d, d))  # dgamma[k] = d gamma / d theta_k
    for k in range(d):
        dgamma[k] = (christoffel(theta0 + h * eye[k])
                     - christoffel(theta0 - h * eye[k])) / (2 * h)

    riemann = np.empty((d, d, d, d))  # R^a_{b i j}
    for a in range(d):
        for b in range(d):
            for i in range(d):
                for j in range(d):
                    riemann[a, b, i, j] = (
                        dgamma[i, a, j, b] - dgamma[j, a, i, b]
                        + np.dot(gamma0[a, i, :], gamma0[:, j, b])
                        - np.dot(gamma0[a, j, :], gamma0[:, i, b]))
    ricci = np.einsum("abaj->bj", riemann)
    ginv = np.linalg.inv(metric_at(theta0))
    return float(np.einsum("bj,bj->", ginv, ricci))


def classical_kl(p, q):
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def classical_g_divergence(p, q, g):
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    return float(np.sum(p * g(q / p)))


def path_length_per_node(entry, path, nodes):
    """Gauss-Legendre length on `nodes` nodes, one eigendecomposition and contraction per node."""
    x, weights = np.polynomial.legendre.leggauss(nodes)
    ts, weights = 0.5 * (x + 1.0), 0.5 * weights
    speeds = np.empty(nodes)
    for k, t in enumerate(ts):
        w, u = np.linalg.eigh(np.asarray(path.sampler(t), dtype=complex))
        vt = u.conj().T @ path.velocity(t) @ u
        kmat = np.asarray(entry.c(w[:, None], w[None, :]), dtype=float)
        speeds[k] = np.sqrt(max(float(np.real(np.sum(kmat * np.abs(vt) ** 2))), 0.0))
    return float(weights @ speeds)


def trials_alone(cfg, width=lambda t, n: 1):
    """For each trial t of cfg's suite in order, the one-trial Block that reads it alone.

    Trial t runs at n = n_values[t % len]; its group index counts the earlier
    trials of its (n, width(t, n)) group.
    """
    seen = collections.Counter()
    for t in range(cfg.trials):
        n = cfg.n_values[t % len(cfg.n_values)]
        w = width(t, n)
        yield Block(cfg.seed, SUITE_TAGS[cfg.suite], n, w, seen[n, w], [t])
        seen[n, w] += 1


def trial_plan_per_trial(checks, width=lambda t, n: 1, trials=None):
    """The Blocks of `checks.blocks(width, trials)`, grouped by a loop over the trials one by one.

    Trial t runs at n = n_values[t % len]; groups (n, width(t, n)) come in
    order of first appearance, each split by `checks.group`.
    """
    dims = checks.cfg.n_values
    groups = {}
    for t in range(checks.cfg.trials if trials is None else trials):
        n = dims[t % len(dims)]
        groups.setdefault((n, width(t, n)), []).append(t)
    return [block for (n, w), ts in groups.items() for block in checks.group(n, w, ts)]


def geodesic_length_per_pair(cfg):
    """The two worst values of the geodesic-length suite, pair by pair.

    Length row: even trials draw two random states (draws 0 and 1), odd
    trials a commuting pair from two Dirichlet vectors (draw 2); each pair
    gets its own distance, path and length.  Velocity row: random pairs
    (draws 3 and 4) of the first three trials, one path each.
    """
    wy = catalog_entry("wy")
    worst_length = 0.0
    for one in trials_alone(cfg, width=lambda t, n: 1 + t % 2):
        n = one.n
        if one.width == 1:
            rho, sig = (random_density(n, one.stream(tag))[0] for tag in (0, 1))
        else:
            rho, sig = (np.diag(x).astype(complex)
                        for x in map(_floored, one.stream(2).dirichlet((2, n))[0]))
        d = wy_distance_audit(rho, sig)[0]
        length = path_length(wy, wy_geodesic(rho, sig))
        worst_length = max(worst_length, abs(length - d) / d)
    h, ts = 1e-5, np.array([0.25, 0.5, 0.75])
    worst_velocity = 0.0
    for _, one in zip(range(3), trials_alone(cfg)):
        path = wy_geodesic(*(random_density(one.n, one.stream(tag))[0] for tag in (3, 4)))
        v = path.velocity(ts)
        diff = (path.sampler(ts + h) - path.sampler(ts - h)) / (2.0 * h)
        rel = np.linalg.norm(v - diff, axis=(-2, -1)) / np.linalg.norm(v, axis=(-2, -1))
        worst_velocity = max(worst_velocity, float(np.max(rel)))
    return worst_length, worst_velocity


def distance_bound_per_pair(cfg):
    """(worst distance, clamp events) of the distance-bound suite, pair by pair."""
    worst_d = 0.0
    clamp_events = 0
    for one in trials_alone(cfg):
        rho, sig = (random_density(one.n, one.stream(tag))[0] for tag in (0, 1))
        d, clamp = wy_distance_audit(rho, sig)
        worst_d = max(worst_d, d)
        clamp_events += clamp > 0.0
    return worst_d, clamp_events


def monotonicity_per_trial(cfg):
    """Violations per catalog entry of the monotonicity suite, trial by trial and entry by entry.

    Each trial's channel, state and tangent are drawn once and serve every entry.
    """
    entries = catalog()
    violations = [0] * len(entries)
    for one in trials_alone(cfg, width=lambda t, n: 1 + t % (n * n)):
        n = one.n
        channel = KrausChannel(random_kraus_channel(n, n, one.width, one.stream(0)).kraus[0])
        rho = random_density(n, one.stream(1))[0]
        a = random_tangent(n, one.stream(2))[0]
        for k, entry in enumerate(entries):
            res, = contraction_check((entry,), channel, rho, a)
            if res.g_after - res.g_before - 1e-9 * (1.0 + res.g_before) > 0:
                violations[k] += 1
    return tuple(float(v) for v in violations)


def pullback_per_trial(cfg):
    """Worst relative gap of the pullback suite, trial by trial."""
    wy = catalog_entry("wy")
    worst = 0.0
    for one in trials_alone(cfg):
        n = one.n
        rho = random_density(n, one.stream(0))[0]
        a, b = (random_tangent(n, one.stream(tag))[0] for tag in (1, 2))
        gm = metric_eval(wy, rho, a, b)
        worst = max(worst, abs(pullback_metric(rho, a, b) - gm) / (1.0 + abs(gm)))
    return worst


def skew_identity_per_trial(cfg):
    """Worst relative residual of the skew-identity suite, trial by trial."""
    worst = 0.0
    for one in trials_alone(cfg):
        rho = random_density(one.n, one.stream(0))[0]
        a = random_tangent(one.n, one.stream(1))[0]
        resid = skew_identity_residual(rho, a)
        worst = max(worst, resid / (1.0 + 4.0 * abs(skew_information(rho, a))))
    return worst


def hessian_per_trial(cfg):
    """Worst residual per convex g of the hessian suite, trial by trial."""
    out = []
    for gi, g in enumerate(g_catalog()):
        worst = 0.0
        for one in trials_alone(cfg):
            n = one.n
            rho = random_density(n, one.stream(3 * gi))[0]
            rho = (1.0 - n * 5e-2) * rho + 5e-2 * np.eye(n)
            a, b = (random_tangent(n, one.stream(3 * gi + k)) for k in (1, 2))
            a, b = (d[0] / np.linalg.norm(d, axis=(-2, -1), keepdims=True)[0] for d in (a, b))
            worst = max(worst, hessian_check(g, rho, a, b).residual)
        out.append(worst)
    return out


def sampled_monotonicity_per_trial(entry, trials, n, seed, slack=1e-9):
    """(violations, worst margin) of f(A) <= f(B) on random pairs 0 <= A <= B, one pair at a time.

    Trial t draws G and P from rng_from(seed, t) and sets A = G^dag G and
    B = A + P^dag P; its margin is the smallest eigenvalue of f(B) - f(A),
    and a margin below -slack is a violation.
    """
    violations = 0
    worst = np.inf
    for t in range(trials):
        rng = rng_from(seed, t)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g.conj().T @ g
        pair = np.stack([a, a + p.conj().T @ p])
        fa, fb = matrix_function(0.5 * (pair + pair.conj().swapaxes(-1, -2)), entry.f)
        margin = float(np.linalg.eigvalsh(fb - fa)[0])
        worst = min(worst, margin)
        if margin < -slack:
            violations += 1
    return violations, worst


def _floored(p: np.ndarray) -> np.ndarray:
    p = (1.0 - 1e-2) * p + 1e-2 / len(p)
    return p / p.sum()


def classical_per_trial(cfg):
    """The four worst gaps of the classical suite, trial by trial, one vector at a time."""
    wy = catalog_entry("wy")
    worst_embed = 0.0
    worst_metric = 0.0
    worst_pull = 0.0
    worst_dual = 0.0
    for one in trials_alone(cfg):
        n = one.n
        p, q = map(_floored, one.stream(0).dirichlet((2, n))[0])
        worst_embed = max(worst_embed, abs(
            wy_distance_audit(np.diag(p).astype(complex), np.diag(q).astype(complex))[0]
            - classical.bhattacharyya_distance(p, q)))
        u, v = (z - z.mean() for z in one.stream(1).normals((2, n))[0])
        fr = classical.fisher_rao_metric(p, u, v)
        worst_metric = max(worst_metric, abs(
            metric_eval(wy, np.diag(p).astype(complex), np.diag(u).astype(complex),
                        np.diag(v).astype(complex)) - fr))
        pulled = float(np.dot(classical.sphere_map_differential(p, u),
                              classical.sphere_map_differential(p, v)))
        worst_pull = max(worst_pull, abs(pulled - fr))
        s = classical.score_from_tangent(u, p)
        w = classical.score_from_tangent(v, p)
        lhs = classical.score_inner(classical.mixture_transport(s, q),
                                    classical.exponential_transport(w, q))
        worst_dual = max(worst_dual, abs(lhs - classical.score_inner(s, w)))
    return worst_embed, worst_metric, worst_pull, worst_dual


def sampled_dual_pair(phi, chi, trials=200, n=3, seed=0):
    """The flags of dual_pair_check from the pair's own induced f, monotonicity sampled.

    A dict of induced_c_valid, f_normalized, f_symmetric, symmetry_residual,
    the sampled violations of f at (trials, n, seed), passes, and f itself.
    """
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

    entry = MonotoneFunctionEntry("induced", f)
    violations = sampled_monotonicity_per_trial(entry, trials, n, seed)[0]
    return {"induced_c_valid": c_valid, "f_normalized": normalized, "f_symmetric": symmetric,
            "symmetry_residual": sym_resid, "violations": violations,
            "passes": c_valid and normalized and symmetric and violations == 0, "f": f}


def dual_pairs_per_exponent(grid, n_values, trials, seed):
    """The check values of the dual-pairs suite, each exponent sampled at every n of n_values.

    An exponent passes only if its sampled pair passes at every n, with the
    given trials and seed.
    """
    passing = []
    residuals = {}
    for p in grid:
        phi = power_function(p)
        pairs = [sampled_dual_pair(phi, phi, trials, n, seed) for n in n_values]
        if all(pair["passes"] for pair in pairs):
            passing.append(p)
        residuals[p] = pairs[0]["symmetry_residual"]
    return [1.0 * len(passing), passing[0] if passing else np.nan, residuals[-1.0],
            residuals[2.0]]


# -- The per-term curvature auxiliaries: each term evaluates its own kernel values.

def _near(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(a, b)


def _complex_step(fn, t: float) -> float:
    """f'(t) as Im f(t + ih) / h with h = 1e-20 t."""
    h = 1e-20 * t
    return np.imag(fn(t + 1j * h)) / h


def _log_c_prime(entry: MonotoneFunctionEntry, z, x):
    """(log c)'(z, x): first-slot derivative of log c at (z, x); x may be complex."""
    return entry.dc_dx(z, x) / entry.c(z, x)


def _t1_phi(entry: MonotoneFunctionEntry, x: float, y: float):
    """phi(t) = c(x,y)/(c(x,t) c(y,t)) - t and its closed-form derivative.

    t1 equals the second divided difference phi[x, y, z] because phi vanishes
    at t = x and t = y.  c is symmetric, so d/dt c(x,t) = dc_dx(t, x).
    """
    cxy = float(entry.c(x, y))

    def phi(t: float) -> float:
        return cxy / (float(entry.c(x, t)) * float(entry.c(y, t))) - t

    def dphi(t):
        cxt = entry.c(x, t)
        cyt = entry.c(y, t)
        dxt = entry.dc_dx(t, x)
        dyt = entry.dc_dx(t, y)
        return -cxy * (dxt * cyt + cxt * dyt) / (cxt * cyt) ** 2 - 1.0

    return phi, dphi


def _t1(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> float:
    near_xz = _near(x, z, T1_GAP_RTOL)
    near_yz = _near(y, z, T1_GAP_RTOL)
    if not near_xz and not near_yz:
        # x close to y is harmless here: only the z-pairs divide.
        cxz = float(entry.c(x, z))
        cyz = float(entry.c(y, z))
        return (float(entry.c(x, y)) - z * cxz * cyz) / ((x - z) * (y - z) * cxz * cyz)
    # Chain membership: both x and y sit in z's cluster when linked directly
    # or through the third argument.
    near_xy = _near(x, y, T1_GAP_RTOL)
    cluster_x = near_xz or (near_xy and near_yz)
    cluster_y = near_yz or (near_xy and near_xz)
    if cluster_x and cluster_y:
        # All three arguments cluster: phi[x,y,z] ~= phi''(centroid) / 2,
        # with phi'' from a complex step on the closed-form phi'.
        phi, dphi = _t1_phi(entry, x, y)
        m = (x + y + z) / 3.0
        return 0.5 * _complex_step(dphi, m)
    if near_yz:
        x, y = y, x  # t1 is symmetric in (x, y); reduce to the z ~ x case
    phi, dphi = _t1_phi(entry, x, y)
    # Newton recursion on nodes [x, z, y]: (phi[x,z] - phi[z,y]) / (x - y),
    # where phi[x,z] over the small gap is phi' at the pair midpoint; the
    # cluster test guarantees |x - y| exceeds the gap threshold.
    dd_xz = dphi(0.5 * (x + z))
    dd_zy = (phi(z) - phi(y)) / (z - y)
    return (dd_xz - dd_zy) / (x - y)


def _t2(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> float:
    if _near(x, y, T23_GAP_RTOL):
        q = float(entry.dc_dx(0.5 * (x + y), z))
    else:
        q = (float(entry.c(x, z)) - float(entry.c(y, z))) / (x - y)
    return q * q / (float(entry.c(x, y)) * float(entry.c(x, z)) * float(entry.c(y, z)))


def _t3(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> float:
    if _near(x, y, T23_GAP_RTOL):
        m = 0.5 * (x + y)
        return z * _complex_step(lambda t: _log_c_prime(entry, z, t), m)
    return z * (_log_c_prime(entry, z, x) - _log_c_prime(entry, z, y)) / (x - y)


def _t4(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> float:
    return z * _log_c_prime(entry, z, x) * _log_c_prime(entry, z, y)


def scal_aux_terms(entry: MonotoneFunctionEntry, x: float, y: float, z: float) -> AuxTerms:
    """The four auxiliary terms and their combination for one triple."""
    if min(x, y, z) <= 0.0:
        raise ValueError(f"triple arguments must be positive, got ({x}, {y}, {z})")
    t1 = _t1(entry, x, y, z)
    t2 = _t2(entry, x, y, z)
    t3 = _t3(entry, x, y, z)
    t4 = _t4(entry, x, y, z)
    return AuxTerms(t1, t2, t3, t4, t1 - 0.5 * t2 + 2.0 * t3 - t4)


# -- Reference routes that no suite or command needs.

# Eigenvalues closer than this (relative to max(1, lambda_max)) are treated
# as one degenerate block when splitting tangents.
DEGENERACY_GAP_RTOL = 1e-8


class TangentSplit(NamedTuple):
    commuting: np.ndarray  # part commuting with rho
    generator: np.ndarray  # Hermitian U with orthogonal part i[rho, U]


def tangent_split(rho, a) -> TangentSplit:
    """Split a tangent A = A_c + i[rho, U] with [A_c, rho] = 0.

    In the eigenbasis of rho, A_c keeps the entries inside degenerate
    eigenvalue blocks and U_ij = A_ij / (i (w_i - w_j)) outside them, which is
    the unique choice making i[rho, U] reproduce the off-block part.
    """
    w, u = spectral_decompose(rho)
    uh = u.conj().swapaxes(-1, -2)
    at = uh @ np.asarray(a, dtype=complex) @ u
    gap = DEGENERACY_GAP_RTOL * np.maximum(1.0, w[..., -1:])
    # Chain consecutive near-equal eigenvalues into blocks (w is ascending).
    block = np.cumsum(np.diff(w, axis=-1, prepend=w[..., :1]) > gap, axis=-1)
    same = block[..., :, None] == block[..., None, :]
    commuting_t = np.where(same, at, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gen_t = at / (1j * (w[..., :, None] - w[..., None, :]))
    gen_t = np.where(same, 0.0, gen_t)
    return TangentSplit(u @ commuting_t @ uh, u @ gen_t @ uh)


def hs_norm(a):
    """Hilbert-Schmidt norm: a float for one matrix, an array over a stack (..., n, n)."""
    return _out(np.sqrt(np.maximum(hs_inner(a, a), 0.0)))


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar unitary (n, n), n >= 1, by phase-corrected QR of a Ginibre matrix."""
    if n < 1:
        raise InvariantViolation("dimension", f"n={n} < 1")
    return _haar_from_gaussian(_gaussian(seed, n, n))


def classical_geodesic(p, q, t: float) -> np.ndarray:
    """Geodesic sample ((1-t) sqrt(p) + t sqrt(q))^2, renormalized to sum one."""
    p = classical.probability_vector(p)
    q = classical.probability_vector(q)
    m = ((1.0 - t) * np.sqrt(p) + t * np.sqrt(q)) ** 2
    return m / np.sum(m, axis=-1, keepdims=True)


def simplex_sphere_map(p) -> np.ndarray:
    """Embedding 2 sqrt(p) onto the radius-2 sphere in R^n."""
    return 2.0 * np.sqrt(classical.probability_vector(p))


def fisher_rao_scal_constant(n: int) -> float:
    """Constant scalar curvature of the simplex with the Fisher-Rao metric."""
    return 0.25 * (n - 1) * (n - 2)


def tangent_from_score(s: classical.ScoreVector) -> np.ndarray:
    return s.values * s.base


def sqrt_pullback(rho) -> np.ndarray:
    """Image of rho on the radius-2 sphere: 2 sqrt(rho)."""
    return 2.0 * matrix_function(rho, np.sqrt)


def log_function():
    return np.log


def identity_function():
    return np.asarray


def double_sqrt_function():
    return lambda x: 2.0 * np.sqrt(x)


def general_pullback_differential(phi, rho, a) -> np.ndarray:
    """D phi at rho applied to A: the difference quotient of phi as a kernel (Daleckii-Krein)."""
    return apply_kernel_superop(rho, lambda x, y: _divided_difference(phi, x, y), a)


def pullback_condition_check(phi, entry: MonotoneFunctionEntry) -> float:
    """Max scaled residual of ((phi(x)-phi(y))/(x-y))^2 = c(x, y) over a log grid.

    Zero (to machine precision) exactly when the metric of `entry` is the
    pull-back of the ambient metric through phi.
    """
    grid = np.logspace(-2.0, 2.0, 100)
    q = kernel_grid(lambda x, y: _divided_difference(phi, x, y), grid, grid)
    c = kernel_grid(entry.c, grid, grid)
    resid = np.abs(q * q - c) / (1.0 + np.abs(c))
    return float(np.max(resid))


def relative_modular_apply(rho, sigma, g, x) -> np.ndarray:
    """g(L_sigma R_rho^{-1}) applied to X: entrywise g(mu_i / lambda_j) in mixed bases.

    Stacks of states and matrices (..., n, n) are applied slice by slice.
    """
    return kernel_action(spectral_decompose(sigma), spectral_decompose(rho),
                         lambda m, l: g(m / l), x)


def wy_aux_closed_forms(x: float, y: float, z: float):
    """Exact auxiliary terms for the skew-information kernel c = 4/(sqrt x + sqrt y)^2."""
    sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
    t1 = (sx * sy + 3.0 * sx * sz + 3.0 * sy * sz + z) / (
        4.0 * (sx + sy) ** 2 * (sx + sz) * (sy + sz))
    t2 = (sx + sy + 2.0 * sz) ** 2 / (4.0 * (sx + sz) ** 2 * (sy + sz) ** 2)
    t3 = sz / ((sx + sy) * (sx + sz) * (sy + sz))
    t4 = 1.0 / ((sx + sz) * (sy + sz))
    return t1, t2, t3, t4


def save_matrix(path, a) -> None:
    """Write a matrix as a wyinfo state file: {"n": int, "re": [[...]], "im": [[...]]}."""
    with open(path, "w") as fh:
        json.dump(matio.matrix_to_obj(a), fh)
        fh.write("\n")
