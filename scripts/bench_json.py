#!/usr/bin/env python3
"""Collect paired benchmark results of a parent and a change into one BENCH_<k>.json.

Each side's directory is the ``perfbench/out`` of its own checkout, holding
the ``result-<workload>-seed<n>-trace0.json`` files that ``perfbench/run.py``
writes.  A run of one side pairs with the run of the other side at the same
workload and seed; runs without a partner are left out.  For every workload
the file records the seeds, each pair's end-to-end metrics (the names and the
better direction come from BENCHMARK.json), each side's median and quartiles
(statistics.quantiles, n=4, as perfbench/steady.py prints them) and how many
pairs the change won.  Traced runs (``--trace 1``, ``...-trace1.json``) pair
the same way; each pair's per-layer metrics of one pass go under the
workload's ``"traced"`` list.  Standard library only.

Usage: python3 scripts/bench_json.py PARENT_OUT CHANGE_OUT BENCH_FILE --parent-commit SHA
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def _results(out_dir: Path, trace: int = 0) -> dict:
    """{(workload, seed): result object} of the runs at one --trace setting in one perfbench/out."""
    runs = {}
    for path in out_dir.iterdir():
        match = RESULT.fullmatch(path.name)
        if match and int(match["trace"]) == trace:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def _spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def collect(parent_out: Path, change_out: Path, parent_commit: str) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = _results(parent_out), _results(change_out)
    workloads = {}
    for workload, seed in sorted(parent.keys() & change.keys()):
        entry = workloads.setdefault(workload, {"seeds": [], "runs": []})
        entry["seeds"].append(seed)
        entry["runs"].append({"seed": seed, **{
            side: {**{m["name"]: res[m["name"]] for m in metrics},
                   "attempted": res["attempted"], "failed": res["failed"]}
            for side, res in (("parent", parent[workload, seed]),
                              ("change", change[workload, seed]))}})
    for entry in workloads.values():
        entry["summary"] = {}
        for m in metrics:
            sign = 1 if m["better"] == "lower" else -1
            pairs = [(r["parent"][m["name"]], r["change"][m["name"]]) for r in entry["runs"]]
            entry["summary"][m["name"]] = {
                "unit": m["unit"],
                "parent": _spread([p for p, _ in pairs]),
                "change": _spread([c for _, c in pairs]),
                "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "pairs": len(pairs),
            }
    parent, change = _results(parent_out, 1), _results(change_out, 1)
    for workload, seed in sorted(parent.keys() & change.keys()):
        workloads.setdefault(workload, {}).setdefault("traced", []).append(
            {"seed": seed, "parent": parent[workload, seed]["layers"],
             "change": change[workload, seed]["layers"]})
    return {"parent_commit": parent_commit, "workloads": workloads}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_out", type=Path, help="perfbench/out of the parent's checkout")
    parser.add_argument("change_out", type=Path, help="perfbench/out of the change's checkout")
    parser.add_argument("out", type=Path, help="the BENCH_<k>.json to write")
    parser.add_argument("--parent-commit", required=True, help="commit id of the parent")
    args = parser.parse_args()
    bench = collect(args.parent_out, args.change_out, args.parent_commit)
    if not bench["workloads"]:
        print("error: no workload and seed has a result on both sides", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for workload, entry in bench["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:18s} {name:12s} parent {s['parent']['median']:.6g} "
                  f"change {s['change']['median']:.6g} "
                  f"change won {s['change_wins']} of {s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
