"""Monotone Riemannian metrics on density matrices.

Evaluates the Petz-classified family of statistically monotone metrics on
strictly positive density matrices, with the skew-information ("wy") metric
as the centerpiece: its constant scalar curvature, geodesic distance and
path through the square-root sphere embedding, relative g-entropy Hessians,
and the dual-pair characterization of pull-back metrics.

`import wyinfo` loads no submodule: each exported name is imported from its
defining module on first use (PEP 562), so a CLI call compiles only the
modules its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"  # read by suites (report "version") and pyproject.toml

_EXPORTS = {
    "classical": (
        "ScoreVector", "bhattacharyya_distance", "exponential_transport", "fisher_rao_metric",
        "mixture_transport", "probability_vector", "score_from_tangent", "score_inner",
        "sphere_map_differential"),
    "curvature": ("CurvatureReport", "scal_aux_terms", "scalar_curvature"),
    "divergence": (
        "HessianResult", "OperatorConvexG", "alpha_parameter", "g_catalog", "g_entry",
        "hessian_check", "monotone_from_convex", "relative_g_entropy"),
    "errors": ("DomainError", "InvariantViolation"),
    "geometry": (
        "DualPairReport", "GeodesicPath", "bures_distance", "dual_pair_check", "path_length",
        "power_function", "pullback_differential", "pullback_metric", "self_duality_scan",
        "wy_distance", "wy_distance_audit", "wy_geodesic"),
    "linalg": (
        "KrausChannel", "SpectralDecomposition", "apply_channel", "apply_kernel_superop",
        "assert_density", "assert_hermitian", "assert_tangent", "commutator", "hs_inner",
        "matrix_function", "random_density", "random_kraus_channel", "random_tangent",
        "spectral_decompose"),
    "monotone": (
        "ContractionResult", "MonotoneFunctionEntry", "catalog", "catalog_entry",
        "contraction_check", "loewner_margin", "metric_eval", "skew_identity_residual",
        "skew_information"),
    "suites": ("SuiteConfig", "SuiteReport", "default_config", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, so wyinfo.<module> works after a bare `import wyinfo`
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
