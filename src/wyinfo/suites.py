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
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, classical
from .curvature import scal1_shift, scalar_curvature
from .divergence import alpha_parameter, g_catalog, g_entry, hessian_check
from .errors import InvariantViolation
from .geometry import (
    path_length,
    pullback_metric,
    self_duality_scan,
    wy_distance_audit,
    wy_geodesic,
)
from .linalg import (
    BLOCK_ENTRIES,
    TrialStream,
    random_density,
    random_kraus_channel,
    random_tangent,
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
    """One suite run; n_values, trials and tolerances left as None take the suite's defaults.

    A suite that draws nothing (no default n_values or trials) refuses both;
    its n_values and trials stay None.  Every suite takes a seed in [0, 2^64).
    """

    suite: str
    n_values: Optional[Sequence[int]] = None
    trials: Optional[int] = None
    seed: int = 0
    tolerances: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.suite not in SUITE_DEFAULTS:
            known = ", ".join(sorted(SUITE_DEFAULTS))
            raise InvariantViolation("suite-name", f"unknown '{self.suite}'; suites: {known}")
        self.seed = _integer(self.seed, "seed")
        if not 0 <= self.seed < 2**64:
            raise InvariantViolation("seed", f"{self.seed} is outside [0, 2^64)")
        tolerances = {} if self.tolerances is None else self.tolerances
        if not isinstance(tolerances, Mapping) or not all(isinstance(k, str) for k in tolerances):
            raise InvariantViolation("tolerance-name", f"{tolerances!r} not keyed by check names")
        self.tolerances = {name: _tolerance(name, v) for name, v in tolerances.items()}
        defaults = SUITE_DEFAULTS[self.suite]
        if not defaults:
            if self.n_values is not None or self.trials is not None:
                raise InvariantViolation(
                    "no-draws", f"{self.suite} draws nothing: it takes no n_values or trials")
            return
        n_values = defaults["n_values"] if self.n_values is None else self.n_values
        try:
            self.n_values = tuple(_integer(n, "dimension") for n in n_values)
        except TypeError:  # not iterable, as a bare int
            raise InvariantViolation(
                "dimension", f"n_values {n_values!r} is not a sequence") from None
        self.trials = _integer(defaults["trials"] if self.trials is None else self.trials, "trials")
        if self.trials < 1:
            raise InvariantViolation("trials", f"{self.trials} < 1")
        if not self.n_values or not all(2 <= n <= 16 for n in self.n_values):
            raise InvariantViolation(
                "dimension", f"n_values {list(self.n_values)}: want one or more n in [2, 16]")
        repeated = [n for k, n in enumerate(self.n_values) if n in self.n_values[:k]]
        if repeated:
            raise InvariantViolation(
                "dimension", f"n_values {list(self.n_values)} repeat n={repeated[0]}")


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
        # byte-identically; config holds only what the run used.
        cfg = self.config
        config = {"tolerances": dict(sorted(cfg.tolerances.items()))}
        if cfg.trials is not None:
            config = {"n_values": list(cfg.n_values), "trials": cfg.trials, "seed": cfg.seed,
                      **config}
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "version": __version__,
            "config": config,
        }


class Block(NamedTuple):
    """Trials start, start + 1, ... of the (n, width) group of one suite run.

    `trials` holds their suite trial indices t.  Draw `tag` of the block reads
    the Philox key (config seed, suite tag << 48 | tag << 32 | n << 16 | width)
    at its group indices, so trial j of a group alone is
    Block(seed, suite, n, width, j, [t]).stream(tag).
    """

    seed: int
    suite: int
    n: int
    width: int
    start: int
    trials: Sequence[int]

    def stream(self, tag: int) -> TrialStream:
        word = self.suite << 48 | tag << 32 | self.n << 16 | self.width
        return TrialStream(self.seed, word, self.start, self.start + len(self.trials))


class _Checks:
    """The check rows of one suite run, with its tolerance overrides and trial blocks."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.rows: list = []
        self.names: list = []  # every check name tol() was asked for, in order

    def blocks(self, width: Callable = lambda t, n: 1,
               trials: Optional[int] = None) -> Iterator[Block]:
        """The trial plan: blocks that cover trials 0 .. trials - 1 (default cfg.trials) once.

        Trial t runs at n = n_values[t % len(n_values)]; trials are grouped by
        (n, width(t, n)) in order of first appearance.  width takes the array
        of one dimension's trial indices and returns their widths, positive
        integers (or one width for all of them).
        """
        dims = self.cfg.n_values
        stop = self.cfg.trials if trials is None else trials
        groups = []  # (first trial, n, width, trials) of each group
        for i, n in enumerate(dims):
            ts = np.arange(i, stop, len(dims))
            widths = np.broadcast_to(width(ts, n), ts.shape)
            for w in np.flatnonzero(np.bincount(widths)):
                members = ts[widths == w]
                groups.append((int(members[0]), n, int(w), members.tolist()))
        for _, n, w, ts in sorted(groups, key=operator.itemgetter(0)):
            yield from self.group(n, w, ts)

    def group(self, n: int, width: int, trials: Sequence[int]) -> Iterator[Block]:
        """These trials as the (n, width) group, in blocks of <= BLOCK_ENTRIES // (width n^2)."""
        rows = max(1, BLOCK_ENTRIES // (width * n * n))
        for lo in range(0, len(trials), rows):
            yield Block(self.cfg.seed, SUITE_TAGS[self.cfg.suite], n, width, lo,
                        trials[lo:lo + rows])

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

    def close(self, name: str, expected: float, actual: float, default_tol: float):
        """Passes if |actual - expected| <= tol |expected|, or <= tol where expected is 0."""
        tol = self.tol(name, default_tol)
        slack = tol * abs(expected) if expected != 0.0 else tol
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
SUITE_TAGS: Dict[str, int] = {}


def _suite(name: str, *, tag: int, **draws):
    """Register body(cfg, checks) in SUITES as a timed cfg -> SuiteReport runner.

    The default n_values and trials of a suite that draws (its `draws`; a
    suite that draws nothing gives none) go into SUITE_DEFAULTS under the same
    name, and the suite's stream tag (its part of every draw's key) into SUITE_TAGS.
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
        SUITE_DEFAULTS[name] = draws
        SUITE_TAGS[name] = tag
        return run

    return wrap


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@_suite("wy-curvature", tag=1, n_values=(2, 3, 4), trials=20)
def run_wy_curvature(cfg: SuiteConfig, checks: _Checks):
    """Generic triple-sum engine reproduces the constant wy curvature."""
    wy = catalog_entry("wy")
    for n in cfg.n_values:
        expected = scal1_shift(n)
        worst = expected
        # every n runs all trials: one (n, 1) group each
        for block in checks.group(n, 1, range(cfg.trials)):
            for rho in random_density(n, block.stream(0)):
                rep = scalar_curvature(wy, rho)
                if abs(rep.scal1 - expected) > abs(worst - expected):
                    worst = rep.scal1
        checks.close(f"scal1-constant-n{n}", expected, worst, 1e-6)


@_suite("pullback", tag=2, n_values=(2, 3, 4, 5), trials=100)
def run_pullback(cfg: SuiteConfig, checks: _Checks):
    """Pushed-forward Hilbert-Schmidt product equals the wy metric."""
    wy = catalog_entry("wy")
    worst = 0.0
    for block in checks.blocks():
        n = block.n
        rho = random_density(n, block.stream(0))
        a, b = (random_tangent(n, block.stream(tag)) for tag in (1, 2))
        gm = metric_eval(wy, rho, a, b)
        gap = np.abs(pullback_metric(rho, a, b) - gm) / (1.0 + np.abs(gm))
        worst = max(worst, float(np.max(gap)))
    checks.below("pullback-equals-wy", worst, 1e-10)


@_suite("hessian", tag=3, n_values=(2, 3, 4), trials=50)
def run_hessian(cfg: SuiteConfig, checks: _Checks):
    """Finite-difference entropy Hessian matches the induced metric kernel."""
    for gi, g in enumerate(g_catalog()):
        worst = 0.0
        # convex g number gi draws rho, A and B as draws 3 gi, 3 gi + 1 and 3 gi + 2
        for block in checks.blocks():
            n = block.n
            rho = (1.0 - n * 5e-2) * random_density(n, block.stream(3 * gi)) + 5e-2 * np.eye(n)
            a, b = (d / np.linalg.norm(d, axis=(-2, -1), keepdims=True)
                    for d in (random_tangent(n, block.stream(3 * gi + k)) for k in (1, 2)))
            worst = max(worst, float(np.max(hessian_check(g, rho, a, b).residual)))
        checks.below(f"hessian-{g.id}", worst, 1e-4)


@_suite("monotonicity", tag=4, n_values=(2, 3), trials=500)
def run_monotonicity(cfg: SuiteConfig, checks: _Checks):
    """Every catalog metric contracts under random stochastic maps, all on one draw per trial."""
    violations = dict.fromkeys(catalog(), 0)
    # Trial t has 1 + t % n^2 Kraus matrices.
    for block in checks.blocks(width=lambda t, n: 1 + t % (n * n)):
        n = block.n
        channel = random_kraus_channel(n, n, block.width, block.stream(0))
        rho = random_density(n, block.stream(1))
        a = random_tangent(n, block.stream(2))
        for entry, res in zip(violations, contraction_check(tuple(violations), channel, rho, a)):
            excess = res.g_after - res.g_before - 1e-9 * (1.0 + res.g_before)
            violations[entry] += int(np.count_nonzero(excess > 0))
    for entry, count in violations.items():
        checks.below(f"contraction-violations-{entry.id}", float(count), 0.0)


def _floored(p: np.ndarray) -> np.ndarray:
    """Dirichlet draws (..., n) mixed with the uniform vector at weight 1e-2 and renormalized."""
    p = (1.0 - 1e-2) * p + 1e-2 / p.shape[-1]
    return p / p.sum(axis=-1, keepdims=True)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """The complex diagonal matrices (..., n, n) of vectors (..., n)."""
    return np.where(np.eye(x.shape[-1], dtype=bool), x[..., None], 0.0).astype(complex)


@_suite("geodesic-length", tag=5, n_values=(2, 3), trials=20)
def run_geodesic_length(cfg: SuiteConfig, checks: _Checks):
    """Integrated wy length of the closed-form geodesic equals the distance."""
    wy = catalog_entry("wy")
    worst = 0.0
    # even trials (width 1): two random states, draws 0 and 1; odd trials
    # (width 2): a commuting pair from two Dirichlet vectors, draw 2
    for block in checks.blocks(width=lambda t, n: 1 + t % 2):
        n = block.n
        if block.width == 1:
            rho, sig = random_density(n, block.stream(0)), random_density(n, block.stream(1))
        else:
            rho, sig = _diagonal(_floored(block.stream(2).dirichlet((2, n)))).swapaxes(0, 1)
        d = wy_distance_audit(rho, sig)[0]
        length = path_length(wy, wy_geodesic(rho, sig))
        worst = max(worst, float(np.max(np.abs(length - d) / d)))
    checks.below("length-matches-distance", worst, 1e-4)
    # The exact velocity against central differences of the sampler (h = 1e-5),
    # on random pairs (draws 3 and 4) of the first three trials.
    h, ts = 1e-5, np.array([0.25, 0.5, 0.75])
    worst = 0.0
    for block in checks.blocks(trials=min(cfg.trials, 3)):
        n = block.n
        path = wy_geodesic(random_density(n, block.stream(3)), random_density(n, block.stream(4)))
        v = path.velocity(ts)
        ahead, behind = np.moveaxis(path.sampler(np.stack((ts + h, ts - h))), -4, 0)
        diff = (ahead - behind) / (2.0 * h)
        rel = np.linalg.norm(v - diff, axis=(-2, -1)) / np.linalg.norm(v, axis=(-2, -1))
        worst = max(worst, float(np.max(rel)))
    checks.below("velocity-matches-differences", worst, 1e-6)


DUAL_PAIR_GRID = (-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)


@_suite("dual-pairs", tag=6)
def run_dual_pairs(cfg: SuiteConfig, checks: _Checks):
    """Only the square-root power pair induces a valid symmetric metric kernel.

    Every flag, the Loewner margin included, is deterministic: nothing is drawn.
    """
    reports = self_duality_scan(DUAL_PAIR_GRID)
    passing = [p for p, report in reports.items() if report.passes]
    checks.close("passing-count", 1.0, float(len(passing)), 0.0)
    checks.close("passing-p", 0.5, passing[0] if passing else np.nan, 0.0)
    checks.at_least("symmetry-margin-p-1", reports[-1.0].symmetry_residual, 1e-2)
    checks.at_least("symmetry-margin-p2", reports[2.0].symmetry_residual, 1e-2)


@_suite("classical", tag=7, n_values=(2, 3, 4), trials=50)
def run_classical(cfg: SuiteConfig, checks: _Checks):
    """Simplex geometry: diagonal embedding, sphere pull-back, transport duality."""
    wy = catalog_entry("wy")
    worst = [0.0] * 4
    for block in checks.blocks():
        # each trial draws p and q (draw 0), then the normals of u and v (draw 1)
        pq = _floored(block.stream(0).dirichlet((2, block.n)))
        p, q = pq[:, 0], pq[:, 1]
        u, v = (x - x.mean(axis=-1, keepdims=True)
                for x in block.stream(1).normals((2, block.n)).swapaxes(0, 1))
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


@_suite("skew-identity", tag=8, n_values=(2, 3, 4, 5), trials=100)
def run_skew_identity(cfg: SuiteConfig, checks: _Checks):
    """Metric norm of i[rho, A] equals four times the skew information."""
    worst = 0.0
    for block in checks.blocks():
        rho = random_density(block.n, block.stream(0))
        a = random_tangent(block.n, block.stream(1))
        resid = skew_identity_residual(rho, a)
        worst = max(worst, float(np.max(resid / (1.0 + 4.0 * np.abs(skew_information(rho, a))))))
    checks.below("skew-identity", worst, 1e-9)


@_suite("alpha", tag=9)
def run_alpha(cfg: SuiteConfig, checks: _Checks):
    """Connection parameters of the catalog convex functions."""
    checks.close("alpha-g_wy", 0.0, alpha_parameter(g_entry("g_wy")), 1e-12)
    checks.close("alpha-g_umegaki", -1.0, alpha_parameter(g_entry("g_umegaki")), 1e-12)


@_suite("distance-bound", tag=10, n_values=(2, 3, 4, 5), trials=10_000)
def run_distance_bound(cfg: SuiteConfig, checks: _Checks):
    """wy distance is at most pi, as Tr(sqrt(rho) sqrt(sigma)) >= 0; no arccos input is clamped."""
    worst_d = 0.0
    clamp_events = 0
    for block in checks.blocks():
        d, clamp = wy_distance_audit(*(random_density(block.n, block.stream(tag))
                                       for tag in (0, 1)))
        worst_d = max(worst_d, float(np.max(d)))
        clamp_events += int(np.count_nonzero(clamp > 0.0))
    checks.below("distance-bound", worst_d, np.pi)
    checks.below("clamp-events", float(clamp_events), 0.0)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    return SUITES[cfg.suite](cfg)


def default_config(suite: str, seed: int = 0, n_values=None, trials=None,
                   tolerances=None) -> SuiteConfig:
    return SuiteConfig(suite, n_values, trials, seed, tolerances)
