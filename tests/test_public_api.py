"""The public API is what the checks use.

Every public function and every public method of a public class, in every
`wyinfo` module, must be reached by a verify suite, a CLI command, or the
benchmark's workloads (`perfbench/workloads.py`, which names what it calls as
`wyinfo.<name>` or imports it with `from wyinfo.<module> import <name>`).  A
function only tests reach belongs in `tests/oracles.py`.
"""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import save_matrix

import wyinfo
from wyinfo import cli
from wyinfo.suites import SUITE_DEFAULTS, SUITES, SuiteConfig, run_suite

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _public_functions() -> dict:
    """code -> (function, 'module.qualname') for every public function and public method."""
    found = {}
    for info in pkgutil.iter_modules(wyinfo.__path__):
        module = importlib.import_module(f"wyinfo.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
            for member, fn in members:
                if not member.startswith("_") and inspect.isfunction(fn):
                    body = inspect.unwrap(fn)  # a registered suite's own body, not its runner
                    found[body.__code__] = (fn, f"{info.name}.{body.__qualname__}")
    return found


def _benchmarked() -> set:
    """The ids of what perfbench/workloads.py names as wyinfo.<name> or imports from a module."""
    text = WORKLOADS.read_text()
    used = {id(getattr(wyinfo, name, None)) for name in re.findall(r"\bwyinfo\.(\w+)", text)}
    for module, names in re.findall(r"^from wyinfo\.(\w+) import (.+)$", text, re.M):
        module = importlib.import_module(f"wyinfo.{module}")
        used |= {id(getattr(module, name.strip())) for name in names.split(",")}
    return used


def _cli_runs(tmp_path) -> list:
    """One argv per CLI command, and per distance metric, on small state files."""
    files = []
    for name, m in (("a", np.diag([0.7, 0.3])), ("b", np.diag([0.4, 0.6])),
                    ("x", np.array([[0.5, 0.2], [0.2, -0.5]])),
                    ("y", np.array([[0.0, 0.3j], [-0.3j, 0.0]]))):
        files.append(str(tmp_path / f"{name}.json"))
        save_matrix(files[-1], m.astype(complex))
    a, b, x, y = files
    metrics = ("wy", "bures", "bhattacharyya")
    return [*(["distance", a, b, "--metric", metric] for metric in metrics),
            ["geodesic", a, b, "--samples", "3"], ["curvature", a], ["metric-eval", a, x, y],
            ["divergence", a, b], ["verify", "alpha"]]


def test_every_public_function_is_reached(tmp_path, capsys):
    public = _public_functions()
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
    benchmarked = _benchmarked()
    unreached = sorted(name for code, (fn, name) in public.items()
                       if code not in called and id(fn) not in benchmarked)
    assert unreached == [], f"public but reached only by tests: {unreached}"


# ---------------------------------------------------------------------------
# The lazily resolved package namespace
# ---------------------------------------------------------------------------

EXPORTED = [
    "ContractionResult", "CurvatureReport", "DomainError", "DualPairReport", "GeodesicPath",
    "HessianResult", "InvariantViolation", "KrausChannel", "MonotoneFunctionEntry",
    "OperatorConvexG", "ScoreVector", "SpectralDecomposition", "SuiteConfig", "SuiteReport",
    "alpha_parameter", "apply_channel", "apply_kernel_superop", "assert_density",
    "assert_hermitian", "assert_tangent", "bhattacharyya_distance", "bures_distance", "catalog",
    "catalog_entry", "commutator", "contraction_check", "default_config", "dual_pair_check",
    "exponential_transport", "fisher_rao_metric", "g_catalog", "g_entry", "hessian_check",
    "hs_inner", "loewner_margin", "matrix_function", "metric_eval", "mixture_transport",
    "monotone_from_convex", "path_length", "power_function", "probability_vector",
    "pullback_differential", "pullback_metric", "random_density", "random_kraus_channel",
    "random_tangent", "relative_g_entropy", "run_suite", "scal_aux_terms", "scalar_curvature",
    "score_from_tangent", "score_inner", "self_duality_scan", "skew_identity_residual",
    "skew_information", "spectral_decompose", "sphere_map_differential", "wy_distance",
    "wy_distance_audit", "wy_geodesic",
]


def test_exported_names_are_their_defining_modules_objects():
    assert sorted(wyinfo.__all__) == EXPORTED
    for name in EXPORTED:
        obj = getattr(wyinfo, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_dir_and_star_import_list_every_exported_name():
    assert set(EXPORTED) <= set(dir(wyinfo))
    namespace = {}
    exec("from wyinfo import *", namespace)
    assert all(namespace[name] is getattr(wyinfo, name) for name in EXPORTED)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        wyinfo.nope
