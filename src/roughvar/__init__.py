"""Pathwise variation toolkit on dyadic grids.

Core objects: sample paths on dyadic grids (:class:`~roughvar.grid.Path`),
p-th variation and scaled quadratic variation profiles
(:mod:`roughvar.variation`), limit classification across refinement levels,
critical-index search (:mod:`roughvar.roughness`), and numerical
verification of the pathwise isometry, chain rule, and smooth-perturbation
invariance (:mod:`roughvar.isometry`).  Test paths — Takagi-type
expansions, fractional Brownian motion, and the oscillating
quadratic-variation counterexample — live in :mod:`roughvar.pathgen` and
:mod:`roughvar.schauder`.
"""

from .errors import (
    BracketError,
    EvaluationError,
    FormatError,
    InconclusiveError,
    NumericalError,
    ResolutionError,
    RoughvarError,
    SourceError,
    ValidationError,
)
from .grid import (
    Partition,
    Path,
    dyadic_partition,
    grid_times,
    read_path_csv,
    read_path_json,
    write_path_csv,
    write_path_json,
)
from .schauder import (
    SchauderCoefficients,
    counterexample_burst_levels,
    counterexample_coefficients,
    level_qv_identity,
    read_coefficients_json,
    schauder_eval,
    takagi_coefficients,
    write_coefficients_json,
)
from .pathgen import (
    GeneratorSpec,
    counterexample_path,
    fbm_path,
    generate,
    smooth_perturbation,
    takagi_path,
)
from .variation import (
    LimitReport,
    PVarSource,
    VariationProfile,
    accurate_cumsum,
    classical_scaled_qv,
    limit_diagnostics,
    pth_variation,
    read_profile_csv,
    scaled_qv,
    write_profile_csv,
)
from .roughness import (
    ProbeRecord,
    RoughnessReport,
    classification_sweep,
    classify_index,
    critical_index_search,
    default_levels,
)
from .isometry import (
    IsometryReport,
    SmoothMap,
    affine_map,
    builtin_map,
    chain_rule_check,
    compose_path,
    exp_clamped_map,
    holder_proxy,
    identity_map,
    invariance_check,
    isometry_check,
    sin_map,
    square_plus_one_map,
    tabulated_map,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RoughvarError", "ValidationError", "ResolutionError", "SourceError",
    "NumericalError", "BracketError", "InconclusiveError", "EvaluationError",
    "FormatError",
    # grid
    "Path", "Partition", "grid_times", "dyadic_partition",
    "read_path_csv", "write_path_csv", "read_path_json", "write_path_json",
    # schauder
    "SchauderCoefficients", "schauder_eval",
    "takagi_coefficients", "counterexample_coefficients",
    "counterexample_burst_levels", "level_qv_identity",
    "read_coefficients_json", "write_coefficients_json",
    # pathgen
    "GeneratorSpec", "generate", "fbm_path", "takagi_path",
    "counterexample_path", "smooth_perturbation",
    # variation
    "VariationProfile", "PVarSource", "accurate_cumsum", "pth_variation",
    "scaled_qv", "classical_scaled_qv", "LimitReport",
    "limit_diagnostics", "read_profile_csv", "write_profile_csv",
    # roughness
    "ProbeRecord", "RoughnessReport", "default_levels", "classify_index",
    "classification_sweep", "critical_index_search",
    # isometry
    "SmoothMap", "IsometryReport", "identity_map", "affine_map",
    "square_plus_one_map", "sin_map", "exp_clamped_map", "tabulated_map",
    "builtin_map", "compose_path", "holder_proxy",
    "isometry_check", "chain_rule_check", "invariance_check",
    "write_report_csv",
]
