"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload builds its inputs from the workload seed, exposes a fixed list
of operations (one pass), a warm-up operation, and checks.  ``check_op``
judges one operation's output; ``check_run`` judges properties that span
operations or passes.  Checks run after the timed passes and import scipy
lazily, through ``oracles``.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys

import numpy as np

import wyinfo
from wyinfo.curvature import scal1_shift
from wyinfo.linalg import rng_from
from wyinfo.suites import SUITE_DEFAULTS, default_config

CURVATURE_ENTRIES = ("wy", "sld", "bkm", "rld")
CURVATURE_NS = (2, 3, 4, 6, 8, 12, 16)
SHAPES = ("spread", "clustered", "boundary")
CLUSTER_RGAP = 1e-6
BOUNDARY_LAMBDA = 1e-4
CLI_NS = (2, 16, 64, 128)

# The suites' own tolerance for the constant wy curvature.
WY_CURVATURE_RTOL = 1e-6
# The finite-difference oracle agrees to ~1e-8 on these inputs (n = 2).
FD_CURVATURE_RTOL = 1e-4
# A clustered spectrum sits within relative 1e-6 * n of I/n; the curvature
# is a smooth symmetric function of the spectrum, so it moves by O(gap^2).
# Observed: at most 8e-10 over seeds 0-11.
CLUSTER_RTOL = 1e-7
# The sqrtm and Sylvester routes agree with wyinfo to at most 8e-13 relative
# up to n = 128 (seeds 0-2); the block-logm route for bkm to 2e-12.
ORACLE_RTOL = 1e-11
LOGM_RTOL = 1e-9
GEODESIC_ATOL = 1e-12
# arccos near 1 turns rounding of order 1e-16 into distance errors of order
# sqrt(1e-16) at the endpoint samples.
TRIANGLE_ATOL = 1e-6

# Fails today: near the cone boundary the triple sum loses accuracy
# (relative error 2.8e-3 against the 1e-6 tolerance at this spectrum).
KNOWN_FAILING_OP = "wy-boundary-1e-9"

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


def _rng(seed: int, *words: int) -> np.random.Generator:
    mask = 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng([seed & mask] + [w & mask for w in words])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rotated(lam, rng) -> np.ndarray:
    u = _haar_unitary(len(lam), rng)
    rho = (u * (np.asarray(lam) / np.sum(lam))) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def curvature_state(shape: str, n: int, seed: int) -> np.ndarray:
    """The curvature-spectra input of one (shape, n) at the workload seed."""
    k = SHAPES.index(shape)
    if shape == "spread":
        return wyinfo.random_density(n, int(_rng(seed, n, k).integers(2**62)))
    rng = _rng(seed, n, k)
    if shape == "clustered":
        steps = (np.arange(n) - 0.5 * (n - 1)) * (1.0 + 0.2 * rng.random(n))
        return _rotated((1.0 + CLUSTER_RGAP * steps) / n, rng)
    low = BOUNDARY_LAMBDA * (1.0 + 0.5 * rng.random())
    rest = 0.99 * rng.dirichlet(np.ones(n - 1)) + 0.01 / (n - 1)
    return _rotated(np.concatenate(([low], (1.0 - low) * rest)), rng)


def _degenerate_scal1(entry, n: int) -> float:
    """scal1 at I/n: every one of the n^3 - n counted triples coincides."""
    x = 1.0 / n
    return (n**3 - n) * wyinfo.scal_aux_terms(entry, x, x, x).combined + scal1_shift(n)


def _json_report(report) -> str:
    return json.dumps(report.as_dict(), separators=(", ", ": "))


# ---------------------------------------------------------------------------

class VerifySuites:
    """The ten `verify` suites at their defaults, in process, one per operation."""

    name = "verify-suites"
    in_process = True
    expected_failures = frozenset()
    DISTANCE_PAIRS = 200

    def __init__(self, seed: int, workdir: str, env: dict):
        self.configs = {s: default_config(s, seed=seed) for s in SUITE_DEFAULTS}
        self.ops = [(s, (lambda cfg=cfg: wyinfo.run_suite(cfg))) for s, cfg in self.configs.items()]
        self.seed = seed
        self.warmup_report = None

    def warmup(self):
        self.warmup_report = _json_report(wyinfo.run_suite(self.configs["pullback"]))

    def check_op(self, name, report):
        if not report.passed:
            bad = [c.name for c in report.checks if not c.passed]
            return f"suite failed checks {bad}"
        return None

    def _distance_pairs(self):
        """The distance-bound suite's own seeded pairs, for the scipy oracle."""
        dims = SUITE_DEFAULTS["distance-bound"]["n_values"]
        for t in range(self.DISTANCE_PAIRS):
            s = int(rng_from(self.seed, t).integers(2**63))
            n = dims[t % len(dims)]
            yield wyinfo.random_density(n, s), wyinfo.random_density(n, s + 1)

    def check_run(self, outputs):
        import oracles
        problems = []
        for name, reports in outputs.items():
            texts = {_json_report(r) for r in reports}
            if name == "pullback":
                texts.add(self.warmup_report)
            if len(texts) != 1:
                problems.append(f"{name}: reports differ between passes")
        worst = max(oracles.rel_err(wyinfo.wy_distance(r, s), oracles.wy_distance(r, s))
                    for r, s in self._distance_pairs())
        if worst > ORACLE_RTOL:
            problems.append(f"wy_distance vs sqrtm route: relative error {worst:.3e}")
        return problems


# ---------------------------------------------------------------------------

class CurvatureSpectra:
    """scalar_curvature over catalog x n x spectrum shape, plus one boundary case."""

    name = "curvature-spectra"
    in_process = True
    expected_failures = frozenset({KNOWN_FAILING_OP})

    def __init__(self, seed: int, workdir: str, env: dict):
        self.inputs = {}
        for shape in SHAPES:
            for n in CURVATURE_NS:
                rho = curvature_state(shape, n, seed)
                for f in CURVATURE_ENTRIES:
                    self.inputs[f"{f}-n{n}-{shape}"] = (f, rho)
        self.inputs[KNOWN_FAILING_OP] = (
            "wy", np.diag([1e-9, 1e-9, 1.0 - 2e-9]).astype(complex))
        self.ops = [(name, (lambda f=f, rho=rho: wyinfo.scalar_curvature(
            wyinfo.catalog_entry(f), rho))) for name, (f, rho) in self.inputs.items()]
        self._warm = curvature_state("spread", 4, seed + 1)
        self._verdicts = {}

    def warmup(self):
        wyinfo.scalar_curvature(wyinfo.catalog_entry("wy"), self._warm)

    def check_op(self, name, report):
        key = (name, report.scal1)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(name, report)
        return self._verdicts[key]

    def _check(self, name, report):
        f, rho = self.inputs[name]
        n = rho.shape[0]
        entry = wyinfo.catalog_entry(f)
        if not np.isfinite(report.scal1):
            return f"scal1 = {report.scal1}"
        if f == "wy":
            want = scal1_shift(n)
            err = abs(report.scal1 - want) / want
            if err > WY_CURVATURE_RTOL:
                return f"scal1 {report.scal1!r} vs {want}: relative error {err:.2e}"
        if name.endswith("-clustered"):
            want = _degenerate_scal1(entry, n)
            err = abs(report.scal1 - want) / max(1.0, abs(want))
            if err > CLUSTER_RTOL:
                return f"scal1 {report.scal1!r} vs {want!r} at I/n: relative {err:.2e}"
        if n == 2 and not name.endswith("-boundary"):
            import oracles
            want = oracles.fd_scalar_curvature(
                lambda p, a, b: wyinfo.metric_eval(entry, p, a, b), rho)
            err = abs(report.scal1 - want) / max(1.0, abs(want))
            if err > FD_CURVATURE_RTOL:
                return f"scal1 {report.scal1!r} vs finite differences {want!r}: {err:.2e}"
        return None

    def check_run(self, outputs):
        problems = []
        for name, reports in outputs.items():
            if len({r.scal1 for r in reports}) != 1:
                problems.append(f"{name}: scal1 differs between passes")
        return problems


# ---------------------------------------------------------------------------

def _write_matrix(path: str, a) -> None:
    a = np.asarray(a, dtype=complex)
    with open(path, "w") as fh:
        json.dump({"n": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}, fh)


def _read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _cli_density(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = 0.999 * rho / np.trace(rho).real + 1e-3 * np.eye(n) / n
    return 0.5 * (rho + rho.conj().T)


def _cli_tangent(n: int, rng) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (m + m.conj().T)
    h[np.diag_indices(n)] -= np.trace(h).real / n
    return h


class CliOneshot:
    """One `python -m wyinfo.cli` child per operation on JSON state files."""

    name = "cli-oneshot"
    in_process = False
    expected_failures = frozenset()

    def __init__(self, seed: int, workdir: str, env: dict):
        self.env = env
        self.workdir = workdir
        self.files = {}
        for n in CLI_NS:
            rng = _rng(seed, n)
            for key, make in (("rho", _cli_density), ("sigma", _cli_density),
                              ("a", _cli_tangent), ("b", _cli_tangent)):
                path = os.path.join(workdir, f"{key}{n}.json")
                _write_matrix(path, make(n, rng))
                self.files[key, n] = path
        self.commands = {}
        for n in CLI_NS:
            rho, sigma = self.files["rho", n], self.files["sigma", n]
            a, b = self.files["a", n], self.files["b", n]
            for metric in ("wy", "bures"):
                self.commands[f"distance-{metric}-n{n}"] = [
                    "distance", rho, sigma, "--metric", metric]
            for f in ("wy", "bkm"):
                self.commands[f"metric-eval-{f}-n{n}"] = ["metric-eval", rho, a, b, "--f", f]
            for g in ("g_wy", "g_umegaki"):
                self.commands[f"divergence-{g}-n{n}"] = ["divergence", rho, sigma, "--g", g]
            if n <= 16:
                self.commands[f"geodesic-n{n}"] = ["geodesic", rho, sigma]
        self.commands["curvature-sld-n16"] = ["curvature", self.files["rho", 16], "--f", "sld"]
        self.ops = [(name, (lambda argv=argv: self.call(argv)))
                    for name, argv in self.commands.items()]
        self.max_rss_kb = 0
        self.traced = False
        self.child_spans = []
        self._pending = []
        self._matrices = {}
        self._verdicts = {}

    def call(self, argv):
        """Run one CLI child to completion; return (exit code, stdout, stderr)."""
        if self.traced:
            path = os.path.join(self.workdir, f"child-{len(self.child_spans)}.json.gz")
            self._pending.append(path)
            cmd = [sys.executable, LAUNCHER, path, *argv]
        else:
            cmd = [sys.executable, "-m", "wyinfo.cli", *argv]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 instead of Popen.wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    def collect_child_trace(self, tracer):
        """Fold the last traced child's totals into ``tracer``; keep its spans."""
        for path in self._pending:
            if not os.path.exists(path):  # the child failed before writing it
                continue
            with gzip.open(path, "rt") as fh:
                obj = json.load(fh)
            os.remove(path)
            tracer.add_totals(obj["totals"])
            self.child_spans.append(obj["spans"])
        self._pending.clear()

    def warmup(self):
        self.call(self.commands["distance-wy-n2"])

    def _m(self, key, n):
        if (key, n) not in self._matrices:
            self._matrices[key, n] = _read_matrix(self.files[key, n])
        return self._matrices[key, n]

    def check_op(self, name, result):
        if (name, result) not in self._verdicts:
            self._verdicts[name, result] = self._check(name, *result)
        return self._verdicts[name, result]

    def _check(self, name, code, out, err):
        import oracles
        if code != 0:
            return f"exit {code}: {err.strip()}"
        argv = self.commands[name]
        n = int(name.rsplit("-n", 1)[1])
        rho, sigma = self._m("rho", n), self._m("sigma", n)
        if argv[0] == "distance":
            route = oracles.wy_distance if argv[-1] == "wy" else oracles.bures_distance
            return self._close(float(out), route(rho, sigma))
        if argv[0] == "metric-eval":
            route = oracles.wy_metric if argv[-1] == "wy" else oracles.bkm_metric
            want, scale = route(rho, self._m("a", n), self._m("b", n))
            err = abs(float(out) - want) / scale
            tol = ORACLE_RTOL if argv[-1] == "wy" else LOGM_RTOL
            return None if err <= tol else f"{out.strip()} vs {want!r}: {err:.2e} of the scale"
        if argv[0] == "divergence":
            obj = json.loads(out)
            if obj["inputs"] != {"rho": argv[1], "sigma": argv[2]}:
                return f"inputs echoed as {obj['inputs']}"
            route = oracles.g_wy_divergence if argv[-1] == "g_wy" else oracles.umegaki_divergence
            return self._close(obj["value"], route(rho, sigma))
        if argv[0] == "geodesic":
            return self._check_geodesic(json.loads(out), rho, sigma)
        obj = json.loads(out)
        want = wyinfo.scalar_curvature(wyinfo.catalog_entry("sld"), rho).scal1
        if obj["scal1"] != want:
            return f"CLI scal1 {obj['scal1']!r} vs in-process {want!r}"
        if not np.allclose(obj["spectrum"], np.linalg.eigvalsh(rho), rtol=0, atol=1e-14):
            return "spectrum differs from eigvalsh"
        return None

    @staticmethod
    def _close(actual, expected):
        import oracles
        err = oracles.rel_err(actual, expected)
        return None if err <= ORACLE_RTOL else f"{actual!r} vs {expected!r}: relative {err:.2e}"

    @staticmethod
    def _check_geodesic(obj, rho, sigma):
        import oracles
        states = [np.asarray(s["re"]) + 1j * np.asarray(s["im"]) for s in obj["states"]]
        if any(abs(np.trace(s).real - 1.0) > GEODESIC_ATOL for s in states):
            return "sample off unit trace"
        if (np.max(np.abs(states[0] - rho)) > GEODESIC_ATOL
                or np.max(np.abs(states[-1] - sigma)) > GEODESIC_ATOL):
            return "endpoints differ from the inputs"
        total = oracles.wy_distance(rho, sigma)
        for t, s in zip(obj["t"], states):
            gap = oracles.wy_distance(rho, s) + oracles.wy_distance(s, sigma) - total
            if abs(gap) > TRIANGLE_ATOL:
                return f"d(rho,g) + d(g,sigma) - d(rho,sigma) = {gap:.2e} at t={t}"
        return None

    def check_run(self, outputs):
        problems = []
        for name, results in outputs.items():
            if len({r[1] for r in results}) != 1:
                problems.append(f"{name}: output differs between calls")
        return problems


WORKLOADS = {w.name: w for w in (VerifySuites, CurvatureSpectra, CliOneshot)}
