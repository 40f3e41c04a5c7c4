"""Steadiness check: run one workload k times and summarise each metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 0]
                                [--save FILE] [--compare FILE]

Run i uses seed first-seed + i and lasts run_seconds from BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the max/min
ratio, next to the metric's bound from BENCHMARK.json.  ``--save`` keeps the values as JSON; ``--compare`` prints
how far each median moved from a saved set, as a share of the saved median
(positive is worse).  The failed share of every run is printed too: it has
to be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def run_set(workload: str, runs: int, first_seed: int) -> dict:
    values: dict = {}
    shares = []
    for i in range(runs):
        seed = first_seed + i
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: outputs incorrect")
        shares.append([res["failed"], res["attempted"]])
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.5g}" for k, m in
                                          res["metrics"].items())
              + f", failed {res['failed']}/{res['attempted']}", flush=True)
    return {"workload": workload, "first_seed": first_seed,
            "values": values, "failed_attempted": shares}


def summarise(data: dict, baseline=None) -> None:
    bounds = _bounds()
    print(f"{data['workload']}: {len(data['failed_attempted'])} runs")
    print(f"{'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
          f"{'max/min':>7s} {'bound':>6s}" + ("  shift" if baseline else ""))
    for k, vals in data["values"].items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        bound = bounds.get(k, {}).get("bound", float("nan"))
        line = (f"{k:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:7.4f} "
                f"{max(vals) / min(vals):7.4f} {bound:6.3f}")
        if baseline:
            base = statistics.median(baseline["values"][k])
            line += f"  {(med - base) / base:+.4f}"
        print(line)
    shares = {f / a for f, a in data["failed_attempted"]}
    print(f"failed share per run: {sorted(shares)} "
          f"({'identical' if len(shares) == 1 else 'DIFFERS'})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--save", help="write the values of this set to FILE")
    ap.add_argument("--compare", help="a file written by --save, to compare medians with")
    args = ap.parse_args(argv)
    data = run_set(args.workload, args.runs, args.first_seed)
    baseline = None
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
    summarise(data, baseline)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(data, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
