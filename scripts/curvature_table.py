#!/usr/bin/env python3
"""Tabulate the trace-one scalar curvature of each catalog metric.

Samples random states per dimension and prints the observed scal1 range.
The skew-information ("wy") column collapses to the constant
(n^2-1)(n^2-2)/4; the other metrics vary with the state.

Usage: python scripts/curvature_table.py [--dims 2,3,4] [--trials N] [--seed S]
"""

import argparse

from wyinfo.curvature import scal1_shift, scalar_curvature
from wyinfo.linalg import TrialStream, random_density
from wyinfo.monotone import catalog


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="2,3,4")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dims = [int(tok) for tok in args.dims.split(",")]
    entries = catalog()
    header = f"{'n':>3} {'constant':>10}"
    for e in entries:
        header += f"  {e.id + ' [min, max]':>28}"
    print(header)
    print("-" * len(header))
    for n in dims:
        row = f"{n:>3} {scal1_shift(n):>10.3f}"
        # trial t of dimension n reads counter index t of the key (seed, n)
        states = random_density(n, TrialStream(args.seed, n, 0, args.trials))
        for e in entries:
            vals = [scalar_curvature(e, rho).scal1 for rho in states]
            row += f"  [{min(vals):>12.6f}, {max(vals):>12.6f}]"
        print(row)


if __name__ == "__main__":
    main()
