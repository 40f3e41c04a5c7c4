#!/usr/bin/env python3
"""Sweep the power-pair exponent and tabulate which ones induce a valid metric.

For each p, the pair (x^p/p, x^p/p) induces a candidate kernel as a squared
difference quotient; the table reports the normalization and symmetry flags
of the derived f, its Loewner margin (operator monotone at or above -1e-9)
and its symmetry residual max |f(x) - x f(1/x)| / (1 + |f(x)|) on the
check's log grid (symmetric at or below 1e-9).  Exactly p = 1/2 survives
every column.

Usage: python scripts/selfduality_scan.py [--points K]
"""

import argparse

import numpy as np

from wyinfo.geometry import self_duality_scan


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=13)
    args = parser.parse_args()

    grid = [p for p in np.linspace(-1.0, 2.0, args.points) if p not in (0.0, 1.0)]
    print(f"{'p':>6}  {'c>0':<5} {'f(1)=1':<7} {'symmetric':<10} "
          f"{'loewner-margin':>14} {'sym-residual':>13}  pass")
    print("-" * 78)
    for p, rep in self_duality_scan(grid).items():
        print(f"{p:>6.2f}  {str(rep.induced_c_valid):<5} {str(rep.f_normalized):<7} "
              f"{str(rep.f_symmetric):<10} {rep.loewner_margin:>14.3e} "
              f"{rep.symmetry_residual:>13.3e}  {'<-- passes' if rep.passes else ''}")


if __name__ == "__main__":
    main()
