"""Figures 5 and 6: actual vs predicted values, training and validation sets.

The paper plots, for one of the five cross-validation trials, the actual
('o') and predicted ('x') value of each indicator per sample index — Figure
5 on the training fold (showing the deliberate loose fit) and Figure 6 on
the validation fold (showing generalization).  We regenerate both series
from the same trial of the same 5-fold run that produces Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ..analysis.plots import render_series, series_to_csv
from ..model_selection.cross_validation import TrialResult, cross_validate
from . import config as C
from .data import table2_dataset
from .modeling import tuned_model

__all__ = ["SeriesFigure", "run_figure5", "run_figure6"]


@dataclass
class SeriesFigure:
    """One regenerated actual-vs-predicted figure."""

    name: str
    #: Which CV trial the series comes from.
    trial: int
    actual: np.ndarray  # (n_samples, 5)
    predicted: np.ndarray  # (n_samples, 5)

    @property
    def n_samples(self) -> int:
        """Points per indicator panel."""
        return self.actual.shape[0]

    def panel(self, indicator_index: int) -> str:
        """Text rendering of one indicator's panel."""
        return render_series(
            self.actual[:, indicator_index],
            self.predicted[:, indicator_index],
            title=f"{self.name}: {C.INDICATOR_LABELS[indicator_index]}",
        )

    def to_text(self) -> str:
        """All five panels, stacked like the paper's figure."""
        return "\n\n".join(
            self.panel(j) for j in range(self.actual.shape[1])
        )

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Machine-readable dump of all panels."""
        return series_to_csv(
            self.actual, self.predicted, path, labels=C.INDICATOR_LABELS
        )

    def mean_relative_errors(self) -> np.ndarray:
        """Per-indicator mean |error|/|actual| of the plotted series."""
        return np.mean(
            np.abs(self.predicted - self.actual) / np.abs(self.actual), axis=0
        )


def _trial_result(trial: int, refresh: bool) -> TrialResult:
    dataset = table2_dataset(refresh=refresh)
    report = cross_validate(
        tuned_model,
        dataset.x,
        dataset.y,
        k=5,
        seed=C.MASTER_SEED,
        output_names=C.INDICATOR_LABELS,
    )
    if not 0 <= trial < report.k:
        raise ValueError(f"trial must lie in [0, {report.k}), got {trial}")
    return report.trials[trial]


def run_figure5(trial: int = 0, refresh: bool = False) -> SeriesFigure:
    """Training-fold series: the loose fit of Section 3.3 made visible."""
    result = _trial_result(trial, refresh)
    return SeriesFigure(
        name="Figure 5 (training set)",
        trial=trial,
        actual=result.train_actual,
        predicted=result.train_predicted,
    )


def run_figure6(trial: int = 0, refresh: bool = False) -> SeriesFigure:
    """Validation-fold series: generalization to unseen configurations."""
    result = _trial_result(trial, refresh)
    return SeriesFigure(
        name="Figure 6 (validation set)",
        trial=trial,
        actual=result.validation_actual,
        predicted=result.validation_predicted,
    )
