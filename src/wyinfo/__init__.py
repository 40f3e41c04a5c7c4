"""Monotone Riemannian metrics on density matrices.

Evaluates the Petz-classified family of statistically monotone metrics on
strictly positive density matrices, with the skew-information ("wy") metric
as the centerpiece: its constant scalar curvature, geodesic distance and
path through the square-root sphere embedding, relative g-entropy Hessians,
and the dual-pair characterization of pull-back metrics.
"""

__version__ = "0.1.0"  # read by suites (report "version") and pyproject.toml

from .classical import (
    ScoreVector,
    bhattacharyya_distance,
    exponential_transport,
    fisher_rao_metric,
    mixture_transport,
    probability_vector,
    score_from_tangent,
    score_inner,
    sphere_map_differential,
)
from .curvature import CurvatureReport, scal_aux_terms, scalar_curvature
from .divergence import (
    HessianResult,
    OperatorConvexG,
    alpha_parameter,
    bures_distance,
    g_catalog,
    g_entry,
    hessian_check,
    monotone_from_convex,
    relative_g_entropy,
)
from .errors import DomainError, InvariantViolation, StepTooLargeError
from .geometry import (
    C1Function,
    DualPairReport,
    GeodesicPath,
    dual_pair_check,
    path_length,
    power_function,
    pullback_differential,
    pullback_metric,
    self_duality_scan,
    symmetry_margin,
    wy_distance,
    wy_distance_audit,
    wy_geodesic,
)
from .linalg import (
    KrausChannel,
    SpectralDecomposition,
    apply_channel,
    apply_kernel_superop,
    assert_density,
    assert_hermitian,
    assert_tangent,
    commutator,
    hs_inner,
    matrix_function,
    random_density,
    random_kraus_channel,
    random_tangent,
    spectral_decompose,
)
from .monotone import (
    ContractionResult,
    MonotoneFunctionEntry,
    catalog,
    catalog_entry,
    contraction_check,
    loewner_margin,
    metric_eval,
    skew_identity_residual,
    skew_information,
)
from .suites import SuiteConfig, SuiteReport, default_config, run_suite
