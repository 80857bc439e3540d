"""Optimization-free covariance estimation for random-effect varying-coefficient models.

The package estimates the functional coefficients of a longitudinal
varying-coefficient model by local-linear smoothing under working
independence, then recovers the noise variance and the within-cluster
random-effect covariance in closed form from the smoother residuals.  It
also ships plug-in asymptotic diagnostics, spline-based coefficient
refinement weighted by the estimated covariance, a restricted-likelihood
baseline, and a seeded Monte-Carlo harness.

Importing the package loads none of its modules: each public name is
imported from its owning module on first access (PEP 562), so a command
pays only for the modules, and the scipy submodules, that it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public API: owning module -> the names it exports.  The stage functions
# (`bias_terms` ... `squared_noise_variance`, the `estimate_*` family) stay
# public because perfbench's replay imports them from here.
_EXPORTS = {
    "asymptotics": (
        "AsymptoticDiagnostics", "bias_terms", "compute_diagnostics", "curvature_curve",
        "effect_cov_inference", "leverage_constants", "noise_variance_inference",
        "squared_noise_variance",
    ),
    "data": ("Cluster", "CsvSchema", "LongitudinalDataset", "load_dataset", "validate",
             "write_dataset"),
    "errors": (
        "CsvParseError", "DataValidationError", "DegenerateKernelError", "EmptyWindowError",
        "NumericalError", "RankError", "SchemaError", "SingularWindowError", "VcreError",
    ),
    "kernels": (
        "KernelMoments", "KernelSpec", "bandwidth_rule", "kernel_moments",
        "tabulated_profile",
    ),
    "reml": ("fit_reml",),
    "simulate": (
        "ScenarioConfig", "coefficient_curvature", "coefficient_values", "generate",
        "run_imp_study", "run_mse_study",
    ),
    "smoother": ("CoefficientCurve", "ResidualSet", "fit_curve", "residuals", "write_curve_csv"),
    "splines": ("SplineFit", "SplineSpec", "fit_wi", "fit_wls", "imp", "mise"),
    "symmat": ("SymMatrix",),
    "varcomp": (
        "PipelineFit", "VarianceComponents", "cluster_projections",
        "estimate_effect_covariance", "estimate_effects", "estimate_noise_variance",
        "fit_pipeline", "write_effects_csv",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
