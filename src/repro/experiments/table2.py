"""Table 2: average prediction error of 5-fold cross validation.

Reproduces the paper's headline table — per-trial, per-indicator
harmonic-mean relative error on the validation folds, with the column
averages and the overall prediction accuracy.  Paper values for comparison:

=======  =====  =========  ========  ========  =========
Trial     Mfg   Purchase    Manage    Browse    Eff. TPS
=======  =====  =========  ========  ========  =========
1         3.3%     10.1%      5.7%      9.5%      0.1%
2         1.5%      7.3%      2.7%      4.2%      0.3%
3         4.5%      8.9%      3.3%      5.0%      0.2%
4         4.0%     12.6%     12.6%     11.3%      0.1%
5         1.4%     11.3%     10.7%      6.4%      0.2%
Average   3.0%     10.0%      7.0%      7.3%      0.2%
=======  =====  =========  ========  ========  =========

Overall accuracy: 95 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model_selection.cross_validation import (
    CrossValidationReport,
    cross_validate,
)
from . import config as C
from .data import table2_dataset
from .modeling import tuned_model

__all__ = ["PAPER_TABLE2", "Table2Result", "run_table2"]

#: The paper's Table 2 (fractions, rows = trials, cols = indicators).
PAPER_TABLE2 = np.array(
    [
        [0.033, 0.101, 0.057, 0.095, 0.001],
        [0.015, 0.073, 0.027, 0.042, 0.003],
        [0.045, 0.089, 0.033, 0.050, 0.002],
        [0.040, 0.126, 0.126, 0.113, 0.001],
        [0.014, 0.113, 0.107, 0.064, 0.002],
    ]
)


@dataclass
class Table2Result:
    """Measured CV report plus the paper's numbers for side-by-side."""

    report: CrossValidationReport
    paper: np.ndarray

    @property
    def measured_average(self) -> np.ndarray:
        """Per-indicator error averaged over trials (our run)."""
        return self.report.average_errors

    @property
    def paper_average(self) -> np.ndarray:
        """Per-indicator error averaged over trials (the paper)."""
        return self.paper.mean(axis=0)

    def to_text(self) -> str:
        """The measured table followed by a paper-vs-measured summary."""
        lines = [
            "Table 2 (reproduced): average prediction error, 5-fold CV",
            self.report.to_table(),
            "",
            "paper vs measured (column averages):",
        ]
        for name, paper_value, measured in zip(
            C.INDICATOR_LABELS, self.paper_average, self.measured_average
        ):
            lines.append(
                f"  {name:36s} paper {100 * paper_value:5.1f} %   "
                f"measured {100 * measured:5.1f} %"
            )
        lines.append(
            f"  {'Overall accuracy':36s} paper  95.0 %   "
            f"measured {100 * self.report.overall_accuracy:5.1f} %"
        )
        return "\n".join(lines)


def run_table2(refresh: bool = False) -> Table2Result:
    """Collect (or load) the samples and run the 5-fold cross validation."""
    dataset = table2_dataset(refresh=refresh)
    report = cross_validate(
        tuned_model,
        dataset.x,
        dataset.y,
        k=5,
        seed=C.MASTER_SEED,
        output_names=C.INDICATOR_LABELS,
    )
    return Table2Result(report=report, paper=PAPER_TABLE2.copy())
