"""Command-line front door.

Subcommands: distance, geodesic, curvature, metric-eval, divergence,
verify <suite>.  Matrix files use the JSON schema of `matio`.  Exit codes:
0 success, 1 verification failure, 2 usage/validation error.  Output is a
deterministic function of flags and seed.  Each command imports the
modules it runs when it starts, so a call loads no other part of wyinfo.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import matio
from .errors import InvariantViolation

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not _:
            raise InvariantViolation("tolerance-flag", f"expected name=value, got '{pair}'")
        try:
            out[name] = float(value)
        except ValueError:
            raise InvariantViolation("tolerance-flag", f"'{value}' is not a float")
    return out


def _dump(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def _diagonal_probabilities(mat, name: str):
    diag = np.real(np.diag(mat))
    off = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    if off > 1e-10:
        raise InvariantViolation(
            "diagonal", f"{name}: classical distance needs a diagonal matrix "
            f"(max off-diagonal {off:.3e})")
    return diag


def _load_same_n(*specs):
    """Load each (loader, path); files of different n raise shape-match naming every file."""
    mats = [load(path) for load, path in specs]
    if len({m.shape for m in mats}) > 1:
        raise InvariantViolation("shape-match", ", ".join(
            f"{path} has n = {len(m)}" for (_, path), m in zip(specs, mats)))
    return mats


def cmd_distance(args) -> int:
    if args.metric == "wy":
        from .geometry import wy_distance as distance
    elif args.metric == "bures":
        from .geometry import bures_distance as distance
    else:
        from .classical import bhattacharyya_distance

        def distance(rho, sigma):
            return bhattacharyya_distance(_diagonal_probabilities(rho, args.file_a),
                                          _diagonal_probabilities(sigma, args.file_b))
    rho, sigma = _load_same_n((matio.load_density, args.file_a), (matio.load_density, args.file_b))
    # load_density allows a trace error of TRACE_ATOL: near-coincident states
    # would read it as distance, and the simplex allows only SIMPLEX_ATOL
    rho, sigma = rho / np.trace(rho).real, sigma / np.trace(sigma).real
    value = distance(rho, sigma)
    if args.json:
        print(_dump({"metric": args.metric, "value": value}))
    else:
        print(f"{value:.15g}")
    return 0


def cmd_geodesic(args) -> int:
    from .geometry import wy_geodesic

    if args.samples < 2:
        raise InvariantViolation("samples", f"{args.samples} < 2")
    rho, sigma = _load_same_n((matio.load_density, args.file_a), (matio.load_density, args.file_b))
    path = wy_geodesic(rho, sigma)
    ts = [k / (args.samples - 1) for k in range(args.samples)]
    states = path.sampler(np.asarray(ts))
    print(_dump({"t": ts, "states": [matio.matrix_to_obj(s) for s in states]}))
    return 0


def cmd_curvature(args) -> int:
    from .curvature import scalar_curvature
    from .monotone import catalog_entry

    entry = catalog_entry(args.f)
    rho = matio.load_density(args.file)
    print(_dump(scalar_curvature(entry, rho).as_dict()))
    return 0


def cmd_metric_eval(args) -> int:
    from .monotone import catalog_entry, metric_eval

    entry = catalog_entry(args.f)
    rho, a, b = _load_same_n((matio.load_density, args.rho), (matio.load_tangent, args.a),
                             (matio.load_tangent, args.b))
    value = metric_eval(entry, rho, a, b)
    if args.json:
        print(_dump({"function_id": entry.id, "value": value}))
    else:
        print(f"{value:.15g}")
    return 0


def cmd_divergence(args) -> int:
    from .divergence import g_entry, relative_g_entropy

    g = g_entry(args.g)
    rho, sigma = _load_same_n((matio.load_density, args.rho), (matio.load_density, args.sigma))
    value = relative_g_entropy(rho, sigma, g)
    print(_dump({"g_id": g.id, "value": value,
                 "inputs": {"rho": args.rho, "sigma": args.sigma}}))
    return 0


def cmd_verify(args) -> int:
    from .suites import default_config, run_suite

    n_values = None
    if args.n is not None:
        try:
            n_values = tuple(int(tok) for tok in args.n.split(","))
        except ValueError:
            raise InvariantViolation(
                "n-flag", f"expected comma-separated integers, got '{args.n}'") from None
    cfg = default_config(args.suite, seed=args.seed, n_values=n_values,
                         trials=args.trials, tolerances=_parse_tolerances(args.tolerance))
    report = run_suite(cfg)
    print(_dump(report.as_dict()))
    print(f"wall_time: {report.wall_time:.3f}s", file=sys.stderr)
    return 0 if report.passed else VERIFY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wyinfo",
        description="Monotone metrics on density matrices: distances, geodesics, "
                    "curvature, divergences, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="geodesic/comparison distance between two states")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", choices=("wy", "bures", "bhattacharyya"), default="wy")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("geodesic", help="sample the wy geodesic between two states")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--samples", type=int, default=11)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("curvature", help="scalar curvature report at a state")
    p.add_argument("file")
    p.add_argument("--f", default="wy", help="catalog function id")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("metric-eval", help="monotone metric value <A, B> at rho")
    p.add_argument("rho")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--f", default="wy", help="catalog function id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_metric_eval)

    p = sub.add_parser("divergence", help="relative g-entropy of two states")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--g", default="g_wy", help="convex function id")
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", help="suite name; an unknown name lists them all")
    p.add_argument("--n", help="comma-separated dimensions, e.g. 2,3")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", action="append", metavar="NAME=VAL",
                   help="override a named check tolerance (repeatable)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
