"""One workload in one fresh interpreter: set-up, timed passes, checks.

Started by run.py, never by hand.  It prints JSON lines on stdout; the last
one is its result.  Set-up time is measured from ``--t0``, the parent's
CLOCK_MONOTONIC reading taken just before this interpreter was started.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads; CLI children inherit the env
# (which run.py gave PYTHONPATH=src).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_wyinfo() -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import wyinfo
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(wyinfo.__file__))
    if where != os.path.join(SRC, "wyinfo"):
        raise SystemExit(f"wyinfo imported from {where}, not from {SRC}")
    return elapsed


def run_passes(wl, meter, budget_s: float, tracer=None, on_pass=None, min_passes=1):
    """Whole passes over wl.ops while another pass fits in budget_s (at least min_passes).

    Returns a list of passes; each pass is a list of (op name, Measurement
    or None, output or exception).
    """
    passes = []
    ops = wl.ops if tracer is None else [
        (name, tracer.spanned(f"op:{name}", fn)) for name, fn in wl.ops]
    start = time.perf_counter()
    while True:
        rows = []
        for name, fn in ops:
            try:
                out, m = meter.measure(fn, wl.in_process)
            except Exception as exc:  # an operation failing is a result, not a crash
                out, m = exc, None
            rows.append((name, m, out))
            if tracer is not None and not wl.in_process:
                wl.collect_child_trace(tracer)
        passes.append(rows)
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > budget_s:
            return passes


def pass_cost(rows) -> float:
    return sum(m.cost for _, m, _ in rows if m is not None)


def summarize(passes) -> dict:
    """End-to-end costs of untraced passes, plus ungated diagnostics."""
    by_op: dict = {}
    for rows in passes:
        for name, m, _ in rows:
            if m is not None:
                by_op.setdefault(name, []).append(m)
    costs = [m.cost for ms in by_op.values() for m in ms]
    probes = [m.probe_s for ms in by_op.values() for m in ms]
    diag = {
        "passes": len(passes),
        "samples": len(costs),
        "pass_wall_s": [round(sum(m.wall_s for _, m, _ in rows if m), 4) for rows in passes],
        "pass_cost_ref": [round(pass_cost(rows), 2) for rows in passes],
        "probe_median_s": statistics.median(probes),
        "op_costs_ref": {name: [round(m.cost, 3) for m in ms] for name, ms in by_op.items()},
    }
    if len(costs) >= 100:
        diag["op_p90_ref"] = statistics.quantiles(costs, n=10)[-1]
    return {
        "pass_ref": sum(statistics.median(m.cost for m in ms) for ms in by_op.values()),
        "op_p50_ref": statistics.median(costs),
        "diagnostics": diag,
    }


def check(wl, passes):
    """(failed operations, problems that make the run incorrect)."""
    failed = 0
    unexpected = []
    outputs: dict = {}
    for p, rows in enumerate(passes):
        for name, _, out in rows:
            if isinstance(out, Exception):
                why = f"raised {type(out).__name__}: {out}"
            else:
                outputs.setdefault(name, []).append(out)
                why = wl.check_op(name, out)
            if why is not None:
                failed += 1
                if name not in wl.expected_failures:
                    unexpected.append(f"pass {p} {name}: {why}")
                elif p == 0:
                    print(f"expected failure {name}: {why}", file=sys.stderr)
    return failed, unexpected + wl.check_run(outputs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_s = _import_wyinfo()
    sys.path.insert(0, HERE)
    import probe
    import tracing
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, dict(os.environ))
        wl.warmup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, wl, probe, tracing, setup_s, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, probe, tracing, setup_s, import_s) -> int:
    meter = probe.Meter()
    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s}
    problems = []
    if not args.trace:
        passes = run_passes(wl, meter, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(summarize(passes))
        result["peak_rss_mb"] = (rss_kb if wl.in_process else wl.max_rss_kb) / 1024.0
    else:
        passes, result["layers"], problems = _traced(args, wl, meter, tracing, import_s)
    failed, more = check(wl, passes)
    problems += more
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result.update({"attempted": sum(len(rows) for rows in passes), "failed": failed,
                   "correct": not problems})
    print(json.dumps(result))
    return 0


def _traced(args, wl, meter, tracing, import_s):
    """One untraced pass, then at least two traced passes; per-layer metrics per
    traced pass.  Two traced passes at least, so that the counts are compared."""
    untraced = run_passes(wl, meter, 0.0)
    tracer = tracing.Tracer(meter.clock)
    if not wl.in_process:
        wl.traced = True
    snapshots = [tracer.totals()]
    restore = tracing.install(tracer)
    try:
        budget = args.seconds - sum(m.wall_s for _, m, _ in untraced[0] if m)
        traced = run_passes(wl, meter, budget, tracer,
                            on_pass=lambda: snapshots.append(tracer.totals()), min_passes=2)
    finally:
        restore()
    per_pass = [tracing.layer_metrics(tracing.diff_totals(b, a))
                for a, b in zip(snapshots, snapshots[1:])]
    layers = {k: statistics.mean(p[k] for p in per_pass) for k in per_pass[0]}
    problems = []
    for k in filter(tracing.is_count, layers):
        if len({p[k] for p in per_pass}) != 1:
            problems.append(f"{k} differs between traced passes")
        layers[k] = per_pass[0][k]
    if wl.in_process:
        layers["cli.import_s"] = import_s
    probe_s = statistics.median(m.probe_s for rows in untraced + traced
                                for _, m, _ in rows if m)
    traced_cost = statistics.mean(pass_cost(rows) for rows in traced)
    layers["trace.overhead_s"] = (traced_cost - pass_cost(untraced[0])) * probe_s
    os.makedirs(OUT, exist_ok=True)
    extra = {"layers": layers, "traced_passes": len(traced),
             "children": getattr(wl, "child_spans", [])}
    tracer.dump(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json.gz"), extra)
    return untraced + traced, layers, problems


if __name__ == "__main__":
    sys.exit(main())
