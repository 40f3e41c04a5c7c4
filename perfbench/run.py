"""Benchmark entry point: run one workload, or all three one after another.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (worker.py) with one BLAS thread.
``--seconds`` is the measuring time of one run; it defaults to ``run_seconds``
in BENCHMARK.json.  SETUP_SAMPLES more fresh interpreters only set up (import
wyinfo, build the seeded inputs, run the warm-up operation), some before the
measuring worker and the rest after it.  This process runs the probe around
and during each of them, as for a CLI child, and ``setup_s`` is the median
set-up cost in probe units times ``probe.REFERENCE_PROBE_S``: seconds on a
host where the probe takes that long.  Every end-to-end metric is printed by
name with its unit; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the metrics are the per-layer ones from a traced run instead.
"""

from __future__ import annotations

import os

# One BLAS thread for this process's probe too, fixed before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-suites", "curvature-spectra", "cli-oneshot")
SETUP_SAMPLES = 7
END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "op_p50_ref": "ref", "peak_rss_mb": "MB"}
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    """The worker's environment: wyinfo from this checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = _env()
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def run_workload(workload: str, seed: int, seconds: float, trace: int, meter) -> dict:
    """Run one workload; return its result object (the contract's last line)."""
    def setups(count):
        """(raw set-up seconds, probe seconds) of ``count`` set-up-only interpreters."""
        out = []
        for _ in range(count):
            res, m = meter.measure(lambda: _worker(workload, seed, seconds, trace, True),
                                   in_process=False)
            out.append((res["setup_s"], m.probe_s))
        return out

    if trace:
        res = _worker(workload, seed, seconds, trace, False)
        metrics = {k: {"value": v, "unit": "count" if tracing.is_count(k) else "s"}
                   for k, v in res["layers"].items()}
    else:
        before = setups(SETUP_SAMPLES // 2)
        res = _worker(workload, seed, seconds, trace, False)
        samples = before + setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        res["setup_s"] = statistics.median(raw / p for raw, p in samples) * probe.REFERENCE_PROBE_S
        res["diagnostics"]["setup_raw_s"] = statistics.median(raw for raw, _ in samples)
        res["setup_samples"] = samples
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    for k, m in metrics.items():
        print(f"{workload}  {k} = {m['value']:.6g} {m['unit']}")
    if "diagnostics" in res:
        shown = {k: v for k, v in res["diagnostics"].items() if k != "op_costs_ref"}
        print(f"{workload}  diagnostics {json.dumps(shown)}")
    print(f"{workload}  attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all three, one after another, when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of one run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wyinfo", "__init__.py")):
        print(f"error: no wyinfo sources under {SRC}", file=sys.stderr)
        return 2
    seconds = _run_seconds() if args.seconds is None else args.seconds
    meter = probe.Meter()
    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, args.trace, meter)
    else:
        parts = {w: run_workload(w, args.seed, seconds, args.trace, meter) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{k}": m for w, p in parts.items() for k, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
