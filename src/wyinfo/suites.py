"""Seeded verification suites behind `wyinfo verify`.

Each suite reruns one family of closed-form claims on freshly generated
random inputs and reports per-check expected/actual/tolerance rows.  Reports
are deterministic functions of (suite, config).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import __version__, classical
from .curvature import scal1_shift, scalar_curvature
from .divergence import alpha_parameter, g_catalog, g_entry, hessian_check
from .errors import InvariantViolation
from .geometry import (
    CLAMP_WINDOW,
    path_length,
    pullback_metric,
    self_duality_scan,
    symmetry_margin,
    wy_distance_audit,
    wy_geodesic,
)
from .linalg import (
    BLOCK_ENTRIES,
    random_density,
    random_kraus_channel,
    random_tangent,
    rng_from,
    seeded_stack,
    trial_seeds,
)
from .monotone import (
    catalog,
    catalog_entry,
    contraction_check,
    metric_eval,
    skew_identity_residual,
    skew_information,
)


def _integer(value, invariant: str) -> int:
    """value as a Python int (numpy integers too, so reports serialize); bools and floats raise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvariantViolation(invariant, f"{value!r} is not an integer")


def _tolerance(name: str, value) -> float:
    """value as a float; bools, non-numbers, NaN, infinities and negatives raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 <= value < math.inf:
        return float(value)
    raise InvariantViolation("tolerance-value", f"{name}={value!r}: want a finite number >= 0")


@dataclass
class SuiteConfig:
    """One suite run; n_values, trials and tolerances left as None take the suite's defaults."""

    suite: str
    n_values: Optional[Sequence[int]] = None
    trials: Optional[int] = None
    seed: int = 0
    tolerances: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.suite not in SUITE_DEFAULTS:
            known = ", ".join(sorted(SUITE_DEFAULTS))
            raise InvariantViolation("suite-name", f"unknown '{self.suite}'; suites: {known}")
        defaults = SUITE_DEFAULTS[self.suite]
        self.n_values = tuple(_integer(n, "dimension") for n in
                              (defaults["n_values"] if self.n_values is None else self.n_values))
        self.trials = _integer(defaults["trials"] if self.trials is None else self.trials, "trials")
        self.seed = _integer(self.seed, "seed")
        tolerances = {} if self.tolerances is None else self.tolerances
        if not isinstance(tolerances, Mapping) or not all(isinstance(k, str) for k in tolerances):
            raise InvariantViolation("tolerance-name", f"{tolerances!r} not keyed by check names")
        self.tolerances = {name: _tolerance(name, v) for name, v in tolerances.items()}
        if self.trials < 1:
            raise InvariantViolation("trials", f"{self.trials} < 1")
        if not self.n_values or not all(2 <= n <= 16 for n in self.n_values):
            raise InvariantViolation(
                "dimension", f"n_values {list(self.n_values)}: want one or more n in [2, 16]")


@dataclass
class CheckResult:
    name: str
    expected: float
    actual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual,
                "tolerance": self.tolerance, "pass": self.passed}


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    checks: list
    wall_time: float
    config: SuiteConfig

    def as_dict(self) -> dict:
        # wall_time is left out so identical (suite, config) runs serialize
        # byte-identically.
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "version": __version__,
            "config": {
                "n_values": list(self.config.n_values),
                "trials": self.config.trials,
                "seed": self.config.seed,
                "tolerances": dict(sorted(self.config.tolerances.items())),
            },
        }


class _Checks:
    """The check rows of one suite run, with its tolerance overrides and trial seeds."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.rows: list = []
        self.names: list = []  # every check name tol() was asked for, in order

    def seeds(self, streams) -> list:
        """One seed per trial, int(rng_from(config seed, *stream).integers(2**63)) for each stream."""
        return trial_seeds([(self.cfg.seed, *stream) for stream in streams])

    def blocks(self, width: Callable[[int, int], int] = lambda t, n: 1) -> Iterator[tuple]:
        """The trial plan: (n, width, trials) blocks that cover every trial once.

        Trial t runs at n = n_values[t % len(n_values)]; trials are grouped by
        (n, width(t, n)) in order of first appearance, in blocks of at most
        BLOCK_ENTRIES // (width n^2) trials.
        """
        dims = self.cfg.n_values
        groups: Dict[tuple, list] = {}
        for t in range(self.cfg.trials):
            n = dims[t % len(dims)]
            groups.setdefault((n, width(t, n)), []).append(t)
        for (n, w), trials in groups.items():
            rows = max(1, BLOCK_ENTRIES // (w * n * n))
            for lo in range(0, len(trials), rows):
                yield n, w, trials[lo:lo + rows]

    def tol(self, name: str, default: float) -> float:
        self.names.append(name)
        return float(self.cfg.tolerances.get(name, default))

    def check_tolerance_names(self):
        """Raise if a tolerance override names no check of this run (a misspelt name)."""
        unused = sorted(set(self.cfg.tolerances) - set(self.names))
        if unused:
            raise InvariantViolation(
                "tolerance-name",
                f"no check named {', '.join(unused)}; this run's checks: {', '.join(self.names)}")

    def close(self, name: str, expected: float, actual: float, default_tol: float,
              relative: bool = False):
        tol = self.tol(name, default_tol)
        slack = tol * abs(expected) if (relative and expected != 0.0) else tol
        self.rows.append(CheckResult(name, float(expected), float(actual), tol,
                                     abs(actual - expected) <= slack))

    def below(self, name: str, actual: float, default_bound: float):
        bound = self.tol(name, default_bound)
        self.rows.append(CheckResult(name, float(bound), float(actual), bound,
                                     actual <= bound))

    def at_least(self, name: str, actual: float, default_bound: float):
        bound = self.tol(name, default_bound)
        self.rows.append(CheckResult(name, float(bound), float(actual), bound,
                                     actual >= bound))


SUITES: Dict[str, Callable[[SuiteConfig], SuiteReport]] = {}
SUITE_DEFAULTS: Dict[str, dict] = {}


def _suite(name: str, *, n_values: tuple, trials: int):
    """Register body(cfg, checks) in SUITES as a timed cfg -> SuiteReport runner.

    The default n_values and trials go into SUITE_DEFAULTS under the same name.
    """

    def wrap(body):
        @functools.wraps(body)
        def run(cfg: SuiteConfig) -> SuiteReport:
            t0 = time.perf_counter()
            checks = _Checks(cfg)
            body(cfg, checks)
            checks.check_tolerance_names()
            return SuiteReport(name, all(c.passed for c in checks.rows), checks.rows,
                               time.perf_counter() - t0, cfg)

        SUITES[name] = run
        SUITE_DEFAULTS[name] = {"n_values": n_values, "trials": trials}
        return run

    return wrap


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@_suite("wy-curvature", n_values=(2, 3, 4), trials=20)
def run_wy_curvature(cfg: SuiteConfig, checks: _Checks):
    """Generic triple-sum engine reproduces the constant wy curvature."""
    wy = catalog_entry("wy")
    for n in cfg.n_values:
        expected = scal1_shift(n)
        worst = expected
        for seed in checks.seeds((n, t) for t in range(cfg.trials)):
            rep = scalar_curvature(wy, random_density(n, seed))
            if abs(rep.scal1 - expected) > abs(worst - expected):
                worst = rep.scal1
        checks.close(f"scal1-constant-n{n}", expected, worst, 1e-6, relative=True)


@_suite("pullback", n_values=(2, 3, 4, 5), trials=100)
def run_pullback(cfg: SuiteConfig, checks: _Checks):
    """Pushed-forward Hilbert-Schmidt product equals the wy metric."""
    wy = catalog_entry("wy")
    worst = 0.0
    rho_seed, a_seed, b_seed = (checks.seeds((t, j) for t in range(cfg.trials)) for j in range(3))
    for n, _, trials in checks.blocks():
        rho = random_density(n, [rho_seed[t] for t in trials])
        a = random_tangent(n, [a_seed[t] for t in trials])
        b = random_tangent(n, [b_seed[t] for t in trials])
        gm = metric_eval(wy, rho, a, b)
        gap = np.abs(pullback_metric(rho, a, b) - gm) / (1.0 + np.abs(gm))
        worst = max(worst, float(np.max(gap)))
    checks.below("pullback-equals-wy", worst, 1e-10)


@_suite("hessian", n_values=(2, 3, 4), trials=50)
def run_hessian(cfg: SuiteConfig, checks: _Checks):
    """Finite-difference entropy Hessian matches the induced metric kernel."""
    for gi, g in enumerate(g_catalog()):
        worst = 0.0
        trial_seed = checks.seeds((gi, t) for t in range(cfg.trials))
        for n, _, trials in checks.blocks():
            seeds = [trial_seed[t] for t in trials]
            rho = (1.0 - n * 5e-2) * random_density(n, seeds) + 5e-2 * np.eye(n)
            # per-slice norms: the stacked norm differs in the last bit on some slices
            a, b = (np.stack([d / np.linalg.norm(d)
                              for d in random_tangent(n, [s + k for s in seeds])])
                    for k in (1, 2))
            worst = max(worst, float(np.max(hessian_check(g, rho, a, b).residual)))
        checks.below(f"hessian-{g.id}", worst, 1e-4)


@_suite("monotonicity", n_values=(2, 3), trials=500)
def run_monotonicity(cfg: SuiteConfig, checks: _Checks):
    """Every catalog metric contracts under random stochastic maps."""
    # Trial t has 1 + t % n^2 Kraus matrices.
    plan = list(checks.blocks(width=lambda t, n: 1 + t % (n * n)))
    for ei, entry in enumerate(catalog()):
        violations = 0
        skipped = 0
        trial_seed = checks.seeds((ei, t) for t in range(cfg.trials))
        for n, env, trials in plan:
            seeds = [trial_seed[t] for t in trials]
            res = contraction_check(entry, random_kraus_channel(n, n, env, seeds),
                                    random_density(n, [s + 1 for s in seeds]),
                                    random_tangent(n, [s + 2 for s in seeds]))
            # a skipped trial has g_after = NaN, so it never counts as a violation
            excess = res.g_after - res.g_before - 1e-9 * (1.0 + res.g_before)
            violations += int(np.count_nonzero(excess > 0))
            skipped += int(np.count_nonzero(res.skipped))
        checks.below(f"contraction-violations-{entry.id}", float(violations), 0.0)
        checks.below(f"contraction-skipped-{entry.id}", float(skipped), float(cfg.trials))


def _floored(p: np.ndarray) -> np.ndarray:
    """Dirichlet draws (..., n) mixed with the uniform vector at weight 1e-2 and renormalized."""
    p = (1.0 - 1e-2) * p + 1e-2 / p.shape[-1]
    return p / p.sum(axis=-1, keepdims=True)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """The complex diagonal matrices (..., n, n) of vectors (..., n)."""
    return np.where(np.eye(x.shape[-1], dtype=bool), x[..., None], 0.0).astype(complex)


def _random_commuting_pair(n: int, seed: int) -> np.ndarray:
    return _diagonal(_floored(rng_from(seed).dirichlet(np.ones(n), 2)))


@_suite("geodesic-length", n_values=(2, 3), trials=20)
def run_geodesic_length(cfg: SuiteConfig, checks: _Checks):
    """Integrated wy length of the closed-form geodesic equals the distance."""
    wy = catalog_entry("wy")
    worst = 0.0
    trial_seed = checks.seeds((t,) for t in range(cfg.trials))
    for n, _, trials in checks.blocks():
        for t in trials:
            seed = trial_seed[t]
            if t % 2 == 0:
                rho, sig = random_density(n, seed), random_density(n, seed + 1)
            else:
                rho, sig = _random_commuting_pair(n, seed)
            d = wy_distance_audit(rho, sig)[0]
            length = path_length(wy, wy_geodesic(rho, sig))
            worst = max(worst, abs(length - d) / d)
    checks.below("length-matches-distance", worst, 1e-4)
    # The exact velocity against central differences of the sampler (h = 1e-5).
    h, ts = 1e-5, np.array([0.25, 0.5, 0.75])
    worst = 0.0
    for t, seed in enumerate(checks.seeds((1000 + t,) for t in range(min(cfg.trials, 3)))):
        n = cfg.n_values[t % len(cfg.n_values)]
        path = wy_geodesic(random_density(n, seed), random_density(n, seed + 1))
        v = path.velocity(ts)
        diff = (path.sampler(ts + h) - path.sampler(ts - h)) / (2.0 * h)
        rel = np.linalg.norm(v - diff, axis=(-2, -1)) / np.linalg.norm(v, axis=(-2, -1))
        worst = max(worst, float(np.max(rel)))
    checks.below("velocity-matches-differences", worst, 1e-6)


DUAL_PAIR_GRID = (-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)


@_suite("dual-pairs", n_values=(3,), trials=200)
def run_dual_pairs(cfg: SuiteConfig, checks: _Checks):
    """Only the square-root power pair induces a valid symmetric metric kernel."""
    # An exponent passes only if it passes at every n; its induced f, and so
    # its margin, does not depend on n.
    scans = [self_duality_scan(DUAL_PAIR_GRID, trials=cfg.trials, n=n, seed=cfg.seed)
             for n in cfg.n_values]
    passing = [rows[0]["p"] for rows in zip(*scans) if all(row["passes"] for row in rows)]
    margins = {row["p"]: symmetry_margin(row["report"].induced_f, 10.0) for row in scans[0]}
    checks.close("passing-count", 1.0, float(len(passing)), 0.0)
    checks.close("passing-p", 0.5, passing[0] if passing else np.nan, 0.0)
    checks.at_least("symmetry-margin-p-1", margins[-1.0], 1e-2)
    checks.at_least("symmetry-margin-p2", margins[2.0], 1e-2)


@_suite("classical", n_values=(2, 3, 4), trials=50)
def run_classical(cfg: SuiteConfig, checks: _Checks):
    """Simplex geometry: diagonal embedding, sphere pull-back, transport duality."""
    wy = catalog_entry("wy")
    worst = [0.0] * 4
    for n, _, trials in checks.blocks():
        # each trial draws p, q, then the normals of u, v from its own stream: (trials, 4, n)
        z = seeded_stack([(cfg.seed, t) for t in trials], lambda rng: np.concatenate(
            [rng.dirichlet(np.ones(n), 2), rng.standard_normal((2, n))]))
        p, q = _floored(z[:, 0]), _floored(z[:, 1])
        u, v = (x - x.mean(axis=-1, keepdims=True) for x in (z[:, 2], z[:, 3]))
        fr = classical.fisher_rao_metric(p, u, v)
        du, dv = (classical.sphere_map_differential(p, x) for x in (u, v))
        s, w = (classical.score_from_tangent(x, p) for x in (u, v))
        gaps = (wy_distance_audit(_diagonal(p), _diagonal(q))[0]
                - classical.bhattacharyya_distance(p, q),
                metric_eval(wy, _diagonal(p), _diagonal(u), _diagonal(v)) - fr,
                (du[:, None, :] @ dv[:, :, None])[:, 0, 0] - fr,
                classical.score_inner(classical.mixture_transport(s, q),
                                      classical.exponential_transport(w, q))
                - classical.score_inner(s, w))
        worst = [max(old, float(np.max(np.abs(gap)))) for old, gap in zip(worst, gaps)]
    for name, value, bound in zip(("diagonal-embedding", "diagonal-metric", "sphere-pullback",
                                   "transport-duality"), worst, (1e-11, 1e-11, 1e-12, 1e-12)):
        checks.below(name, value, bound)


@_suite("skew-identity", n_values=(2, 3, 4, 5), trials=100)
def run_skew_identity(cfg: SuiteConfig, checks: _Checks):
    """Metric norm of i[rho, A] equals four times the skew information."""
    worst = 0.0
    trial_seed = checks.seeds((t,) for t in range(cfg.trials))
    for n, _, trials in checks.blocks():
        seeds = [trial_seed[t] for t in trials]
        rho = random_density(n, seeds)
        a = random_tangent(n, [s + 1 for s in seeds])
        resid = skew_identity_residual(rho, a)
        worst = max(worst, float(np.max(resid / (1.0 + 4.0 * np.abs(skew_information(rho, a))))))
    checks.below("skew-identity", worst, 1e-9)


@_suite("alpha", n_values=(2,), trials=1)
def run_alpha(cfg: SuiteConfig, checks: _Checks):
    """Connection parameters of the catalog convex functions."""
    checks.close("alpha-g_wy", 0.0, alpha_parameter(g_entry("g_wy")), 1e-12)
    checks.close("alpha-g_umegaki", -1.0, alpha_parameter(g_entry("g_umegaki")), 1e-12)


@_suite("distance-bound", n_values=(2, 3, 4, 5), trials=10_000)
def run_distance_bound(cfg: SuiteConfig, checks: _Checks):
    """wy distance is below the loose bound 2 pi (sharp: pi); clamping stays in its window."""
    worst_d = 0.0
    worst_clamp = 0.0
    clamp_events = 0
    for n, _, trials in checks.blocks():
        # seeds per block: all 10,000 at once would peak at 1.75 MB in
        # trial_seeds instead of 0.12 MB and add 0.9 MB to this suite's peak RSS;
        # one draw for both states: rho from seed s, sigma from s + 1
        seeds = checks.seeds((t,) for t in trials)
        states = random_density(n, seeds + [s + 1 for s in seeds])
        d, clamp = wy_distance_audit(states[:len(seeds)], states[len(seeds):])
        worst_d = max(worst_d, float(np.max(d)))
        worst_clamp = max(worst_clamp, float(np.max(clamp)))
        clamp_events += int(np.count_nonzero(clamp > 0.0))
    checks.below("distance-bound", worst_d, 2.0 * np.pi)
    checks.below("clamp-max", worst_clamp, CLAMP_WINDOW)
    checks.below("clamp-events", float(clamp_events), float(cfg.trials))


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    return SUITES[cfg.suite](cfg)


def default_config(suite: str, seed: int = 0, n_values=None, trials=None,
                   tolerances=None) -> SuiteConfig:
    return SuiteConfig(suite, n_values, trials, seed, tolerances)
