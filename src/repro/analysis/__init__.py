"""Analysis toolkit: response surfaces, shape taxonomy, tuning, PCA."""

from .attribution import AttributionReport, attribute
from .curvature import LocalCurvature, hessian, local_curvature
from .regression import (
    IndicatorDelta,
    RegressionReport,
    detect_regressions,
)
from .pareto import ParetoFrontier, ParetoPoint, pareto_frontier
from .measured import SurfaceAgreement, measure_surface, surface_agreement
from .pca import PCA, subset_benchmarks
from .report import CharacterizationReport, characterize
from .plots import render_series, render_surface, series_to_csv, surface_to_csv
from .sobol import SobolIndices, sobol_indices
from .sensitivity import (
    ParameterSensitivity,
    SensitivityReport,
    sensitivity_analysis,
)
from .surface import ResponseSurface, sweep
from .topology import (
    SurfaceClassification,
    SurfaceKind,
    classify_profile,
    classify_surface,
)
from .tuning import ConfigurationAdvisor, Recommendation, ScoringFunction

__all__ = [
    "ResponseSurface",
    "sweep",
    "SurfaceKind",
    "SurfaceClassification",
    "classify_profile",
    "classify_surface",
    "ParameterSensitivity",
    "SensitivityReport",
    "sensitivity_analysis",
    "ScoringFunction",
    "Recommendation",
    "ConfigurationAdvisor",
    "PCA",
    "subset_benchmarks",
    "attribute",
    "AttributionReport",
    "local_curvature",
    "hessian",
    "LocalCurvature",
    "detect_regressions",
    "RegressionReport",
    "IndicatorDelta",
    "measure_surface",
    "surface_agreement",
    "SurfaceAgreement",
    "sobol_indices",
    "SobolIndices",
    "pareto_frontier",
    "ParetoFrontier",
    "ParetoPoint",
    "characterize",
    "CharacterizationReport",
    "render_surface",
    "render_series",
    "surface_to_csv",
    "series_to_csv",
]
