"""Model validation: the paper's error metric, k-fold CV, and grid search."""

from .bootstrap import BootstrapReport, ErrorInterval, bootstrap_cv_errors
from .cross_validation import (
    CrossValidationReport,
    TrialResult,
    cross_validate,
)
from .learning_curve import LearningCurve, LearningCurvePoint, learning_curve
from .metrics import (
    harmonic_mean,
    harmonic_mean_relative_error,
    max_absolute_error,
    mean_absolute_error,
    mean_relative_error,
    prediction_accuracy,
    r_squared,
    relative_errors,
    root_mean_squared_error,
)
from .search import GridSearch, GridSearchResult
from .split import Fold, KFold, train_test_split

__all__ = [
    "relative_errors",
    "harmonic_mean",
    "harmonic_mean_relative_error",
    "mean_relative_error",
    "prediction_accuracy",
    "mean_absolute_error",
    "root_mean_squared_error",
    "max_absolute_error",
    "r_squared",
    "Fold",
    "KFold",
    "train_test_split",
    "TrialResult",
    "CrossValidationReport",
    "cross_validate",
    "GridSearch",
    "GridSearchResult",
    "bootstrap_cv_errors",
    "BootstrapReport",
    "ErrorInterval",
    "learning_curve",
    "LearningCurve",
    "LearningCurvePoint",
]
