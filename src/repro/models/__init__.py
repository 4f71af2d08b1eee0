"""Workload characterization models: the paper's neural model and baselines."""

from .base import WorkloadModel
from .doe import (
    DOEWorkloadModel,
    FactorLevels,
    central_composite,
    two_level_fractional_factorial,
    two_level_full_factorial,
)
from .ensemble import EnsemblePrediction, NeuralEnsemble
from .linear import LinearWorkloadModel
from .loglinear import LogLinearWorkloadModel
from .neural import NeuralWorkloadModel
from .persistence import (
    decode_model,
    load_model,
    load_model_document,
    model_document_from_bytes,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .polynomial import PolynomialWorkloadModel, monomial_exponents
from .quantile import QuantileWorkloadModel, tail_targets
from .rbf import RBFWorkloadModel

__all__ = [
    "WorkloadModel",
    "NeuralWorkloadModel",
    "NeuralEnsemble",
    "EnsemblePrediction",
    "LinearWorkloadModel",
    "PolynomialWorkloadModel",
    "monomial_exponents",
    "LogLinearWorkloadModel",
    "QuantileWorkloadModel",
    "tail_targets",
    "save_model",
    "load_model",
    "load_model_document",
    "model_document_from_bytes",
    "decode_model",
    "model_to_dict",
    "model_from_dict",
    "RBFWorkloadModel",
    "FactorLevels",
    "two_level_full_factorial",
    "two_level_fractional_factorial",
    "central_composite",
    "DOEWorkloadModel",
]
