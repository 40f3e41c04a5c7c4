"""The public API is what the checks use.

Every function that `wyinfo` exports must be reached by a verify suite, a CLI
command, or the benchmark's workloads (`perfbench/workloads.py`, which names
what it calls as `wyinfo.<name>`).  A function only tests reach belongs in
`tests/oracles.py`.
"""

import inspect
import re
import sys
from pathlib import Path

import numpy as np

import wyinfo
from wyinfo import cli, matio
from wyinfo.suites import SUITE_DEFAULTS, SUITES, SuiteConfig, run_suite

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _cli_runs(tmp_path) -> list:
    """One argv per CLI command, and per distance metric, on small state files."""
    files = []
    for name, m in (("a", np.diag([0.7, 0.3])), ("b", np.diag([0.4, 0.6])),
                    ("x", np.array([[0.5, 0.2], [0.2, -0.5]])),
                    ("y", np.array([[0.0, 0.3j], [-0.3j, 0.0]]))):
        files.append(str(tmp_path / f"{name}.json"))
        matio.save_matrix(files[-1], m.astype(complex))
    a, b, x, y = files
    metrics = ("wy", "bures", "bhattacharyya")
    return [*(["distance", a, b, "--metric", metric] for metric in metrics),
            ["geodesic", a, b, "--samples", "3"], ["curvature", a], ["metric-eval", a, x, y],
            ["divergence", a, b], ["verify", "alpha"]]


def test_every_public_function_is_reached(tmp_path, capsys):
    exported = {obj.__code__: name for name, obj in vars(wyinfo).items()
                if not name.startswith("_") and inspect.isfunction(obj)}
    runs = _cli_runs(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for suite in SUITES:
            small = dict(n_values=(2,), trials=2) if SUITE_DEFAULTS[suite] else {}
            assert run_suite(SuiteConfig(suite=suite, **small)).passed, suite
        for argv in runs:
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    benchmarked = set(re.findall(r"\bwyinfo\.(\w+)", WORKLOADS.read_text()))
    unreached = sorted(name for code, name in exported.items()
                       if code not in called and name not in benchmarked)
    assert unreached == [], f"exported but reached only by tests: {unreached}"
