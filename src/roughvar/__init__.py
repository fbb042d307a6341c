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

``import roughvar`` imports no submodule, and so no numpy: each public name
and each submodule below is imported on first use (PEP 562), which lets
``roughvar.cli`` choose numpy's BLAS threads before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_PUBLIC = {
    "errors": (
        "RoughvarError", "ValidationError", "ResolutionError", "SourceError",
        "NumericalError", "BracketError", "InconclusiveError", "EvaluationError",
        "FormatError"),
    "grid": (
        "Path", "Partition", "grid_times", "dyadic_partition",
        "read_path_csv", "write_path_csv", "read_path_json", "write_path_json"),
    "schauder": (
        "SchauderCoefficients", "schauder_eval",
        "takagi_coefficients", "counterexample_coefficients",
        "counterexample_burst_levels", "level_qv_identity",
        "read_coefficients_json", "write_coefficients_json"),
    "pathgen": (
        "GeneratorSpec", "generate", "fbm_path", "takagi_path",
        "counterexample_path", "smooth_perturbation"),
    "variation": (
        "VariationProfile", "PVarSource", "accurate_cumsum", "pth_variation",
        "scaled_qv", "classical_scaled_qv", "LimitReport", "default_levels",
        "limit_diagnostics", "read_profile_csv", "write_profile_csv"),
    "roughness": (
        "ProbeRecord", "RoughnessReport", "classify_index",
        "classification_sweep", "critical_index_search"),
    "isometry": (
        "SmoothMap", "IsometryReport", "identity_map", "affine_map",
        "square_plus_one_map", "sin_map", "exp_clamped_map", "tabulated_map",
        "builtin_map", "holder_proxy",
        "isometry_check", "chain_rule_check", "invariance_check",
        "write_report_csv"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name, name if name in _PUBLIC else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if module == name else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
