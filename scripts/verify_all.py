#!/usr/bin/env python3
"""Run every verification suite at its default scale and print a summary table.

Each suite runs through `wyinfo verify`'s own entry point; the sha256 column
is the digest of that command's exact stdout, so two commits give the same
digest exactly when their reports are byte-identical.

Usage: python scripts/verify_all.py [--seed N]
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import time

from wyinfo import cli
from wyinfo.suites import SUITES


def allowance_used(check) -> float:
    """The share of its allowance a check row uses: 1 at its limit, above 1 past it, inf for NaN.

    A row whose expected value differs from its tolerance is a closeness
    check, |actual - expected| <= tolerance |expected| (<= tolerance where
    expected is 0), the library's one closeness rule.  Otherwise expected is a
    bound: an upper bound where the pass flag agrees with actual <= bound, a
    lower bound where it does not.
    """
    actual, expected, tol = check["actual"], check["expected"], check["tolerance"]
    if expected != tol:
        used, room = abs(actual - expected), (tol * abs(expected) if expected else tol)
    elif (actual <= tol) == check["pass"]:
        used, room = actual, tol
    else:
        used, room = tol, actual
    share = used / room if room > 0 else (0.0 if used <= 0 else math.inf)
    return share if share == share else math.inf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'suite':<18} {'status':<6} {'time':>8}  {'sha256 of stdout':<64}  worst check")
    print("-" * 140)
    all_ok = True
    for name in SUITES:
        argv = ["verify", name, "--seed", str(args.seed)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        stdout = out.getvalue()
        all_ok &= code == 0
        checks = json.loads(stdout)["checks"]
        worst = max(checks, key=lambda c: (not c["pass"], allowance_used(c)))
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        status = "ok" if code == 0 else "FAIL"
        print(f"{name:<18} {status:<6} {elapsed:>7.2f}s  {digest}  "
              f"{worst['name']}: actual={worst['actual']:.3e} tol={worst['tolerance']:.1e}")
    print("-" * 140)
    print("all suites passed" if all_ok else "FAILURES above")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
