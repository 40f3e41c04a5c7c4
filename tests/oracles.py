"""Independent numerical oracles used by the tests.

These stay deliberately separate from the library code paths they check:
curvature from raw metric samples via coordinate finite differences, a
plain classical Kullback-Leibler sum, the per-sample path-length loop that
the batched `path_length` must reproduce bit for bit, and the per-pair and
per-trial loops that the block-drawn distance-bound, monotonicity, pullback,
skew-identity, hessian and classical suites and the stacked
`sampled_operator_monotonicity` must reproduce likewise, the per-exponent
dual-pair checks that the one-call self-duality scan must reproduce, and the per-term
curvature auxiliaries (`scal_aux_terms`, one helper per term) that the
shared-kernel-value engine must reproduce bit for bit.  Trial t of a suite
runs at n_values[t % len].
"""

import numpy as np

from wyinfo.curvature import (
    T1_GAP_RTOL,
    T23_GAP_RTOL,
    AuxTerms,
)
from wyinfo import classical
from wyinfo.divergence import g_catalog, hessian_check
from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.geometry import (
    DualPairReport,
    induced_kernel,
    power_function,
    pullback_metric,
    symmetry_margin,
    wy_distance_audit,
)
from wyinfo.linalg import (
    kernel_grid,
    matrix_function,
    random_density,
    random_kraus_channel,
    random_tangent,
    rng_from,
)
from wyinfo.monotone import (
    MonotoneFunctionEntry,
    catalog,
    catalog_entry,
    contraction_check,
    metric_eval,
    sampled_operator_monotonicity,
    skew_identity_residual,
    skew_information,
)


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


def path_length_per_sample(entry, sampler, steps):
    """Trapezoid length with one eigendecomposition and contraction per sample."""
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    states = [np.asarray(sampler(float(t)), dtype=complex) for t in ts]
    speeds = np.empty(steps + 1)
    for k in range(steps + 1):
        if k == 0:
            v = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * h)
        elif k == steps:
            v = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * h)
        else:
            v = (states[k + 1] - states[k - 1]) / (2.0 * h)
        w, u = np.linalg.eigh(states[k])
        vt = u.conj().T @ v @ u
        kmat = np.asarray(entry.c(w[:, None], w[None, :]), dtype=float)
        speeds[k] = np.sqrt(max(float(np.real(np.sum(kmat * np.abs(vt) ** 2))), 0.0))
    return float(h * (np.sum(speeds) - 0.5 * (speeds[0] + speeds[-1])))


def distance_bound_per_pair(cfg):
    """(worst distance, worst clamp, clamp events) of the distance-bound suite, pair by pair."""
    dims = cfg.n_values
    worst_d = 0.0
    worst_clamp = 0.0
    clamp_events = 0
    for t in range(cfg.trials):
        n = dims[t % len(dims)]
        seed = int(rng_from(cfg.seed, t).integers(2**63))
        d, clamp = wy_distance_audit(random_density(n, seed), random_density(n, seed + 1))
        worst_d = max(worst_d, d)
        worst_clamp = max(worst_clamp, clamp)
        clamp_events += clamp > 0.0
    return worst_d, worst_clamp, clamp_events


def monotonicity_per_trial(cfg):
    """(violations, skipped) per catalog entry of the monotonicity suite, trial by trial."""
    dims = cfg.n_values
    out = []
    for ei, entry in enumerate(catalog()):
        violations = 0
        skipped = 0
        for t in range(cfg.trials):
            n = dims[t % len(dims)]
            seed = int(rng_from(cfg.seed, ei, t).integers(2**63))
            env = 1 + t % (n * n)
            channel = random_kraus_channel(n, n, env, seed)
            rho = random_density(n, seed + 1)
            a = random_tangent(n, seed + 2)
            res = contraction_check(entry, channel, rho, a)
            if res.skipped:
                skipped += 1
                continue
            if res.g_after - res.g_before - 1e-9 * (1.0 + res.g_before) > 0:
                violations += 1
        out += [float(violations), float(skipped)]
    return tuple(out)


def pullback_per_trial(cfg):
    """Worst relative gap of the pullback suite, trial by trial."""
    wy = catalog_entry("wy")
    dims = cfg.n_values
    worst = 0.0
    for t in range(cfg.trials):
        n = dims[t % len(dims)]
        rho_seed, a_seed, b_seed = (int(rng_from(cfg.seed, t, j).integers(2**63))
                                    for j in range(3))
        rho = random_density(n, rho_seed)
        a = random_tangent(n, a_seed)
        b = random_tangent(n, b_seed)
        gm = metric_eval(wy, rho, a, b)
        worst = max(worst, abs(pullback_metric(rho, a, b) - gm) / (1.0 + abs(gm)))
    return worst


def skew_identity_per_trial(cfg):
    """Worst relative residual of the skew-identity suite, trial by trial."""
    dims = cfg.n_values
    worst = 0.0
    for t in range(cfg.trials):
        n = dims[t % len(dims)]
        seed = int(rng_from(cfg.seed, t).integers(2**63))
        rho = random_density(n, seed)
        a = random_tangent(n, seed + 1)
        resid = skew_identity_residual(rho, a)
        worst = max(worst, resid / (1.0 + 4.0 * abs(skew_information(rho, a))))
    return worst


def hessian_per_trial(cfg):
    """Worst residual per convex g of the hessian suite, trial by trial."""
    dims = cfg.n_values
    out = []
    for gi, g in enumerate(g_catalog()):
        worst = 0.0
        for t in range(cfg.trials):
            n = dims[t % len(dims)]
            seed = int(rng_from(cfg.seed, gi, t).integers(2**63))
            rho = random_density(n, seed)
            rho = (1.0 - n * 5e-2) * rho + 5e-2 * np.eye(n)
            a = random_tangent(n, seed + 1)
            b = random_tangent(n, seed + 2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            worst = max(worst, hessian_check(g, rho, a, b).residual)
        out.append(worst)
    return out


def sampled_monotonicity_per_trial(entry, trials, n, seed, slack=1e-9):
    """(violations, worst margin) of `sampled_operator_monotonicity`, one pair at a time."""
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


def _floored_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    p = (1.0 - 1e-2) * rng.dirichlet(np.ones(n)) + 1e-2 / n
    return p / p.sum()


def classical_per_trial(cfg):
    """The four worst gaps of the classical suite, trial by trial, one vector at a time."""
    wy = catalog_entry("wy")
    dims = cfg.n_values
    worst_embed = 0.0
    worst_metric = 0.0
    worst_pull = 0.0
    worst_dual = 0.0
    for t in range(cfg.trials):
        n = dims[t % len(dims)]
        rng = rng_from(cfg.seed, t)
        p, q = _floored_dirichlet(rng, n), _floored_dirichlet(rng, n)
        worst_embed = max(worst_embed, abs(
            wy_distance_audit(np.diag(p).astype(complex), np.diag(q).astype(complex))[0]
            - classical.bhattacharyya_distance(p, q)))
        u, v = (z - z.mean() for z in (rng.standard_normal(n), rng.standard_normal(n)))
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


def dual_pair_check_alone(phi, chi, trials=200, n=3, seed=0):
    """dual_pair_check with its own monotonicity call, one pair at a time."""
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

    entry = MonotoneFunctionEntry(f"induced[{phi.name},{chi.name}]", f)
    violations = sampled_operator_monotonicity(entry, trials, n, seed).violations

    return DualPairReport(phi.name, chi.name, c_valid, normalized, symmetric,
                          violations, sym_resid, induced_f=f)


def self_duality_scan_per_exponent(p_grid, trials=200, n=3, seed=0):
    """self_duality_scan with one dual_pair_check_alone, and so one sampling, per exponent."""
    rows = []
    for p in p_grid:
        p = float(p)
        if p in (0.0, 1.0):
            raise InvariantViolation("power-exponent", f"p={p} excluded from the scan")
        phi = power_function(p)
        report = dual_pair_check_alone(phi, phi, trials=trials, n=n, seed=seed)
        rows.append({"p": p, "report": report, "passes": report.passes})
    return rows


def dual_pairs_per_exponent(cfg, grid):
    """The check values of the dual-pairs suite over exponent grid, one scan row at a time."""
    scans = [self_duality_scan_per_exponent(grid, trials=cfg.trials, n=n, seed=cfg.seed)
             for n in cfg.n_values]
    passing = [rows[0]["p"] for rows in zip(*scans) if all(row["passes"] for row in rows)]
    margins = {row["p"]: symmetry_margin(row["report"].induced_f, 10.0) for row in scans[0]}
    return [1.0 * len(passing), passing[0] if passing else np.nan, margins[-1.0], margins[2.0]]


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
