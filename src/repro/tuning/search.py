"""The search strategy: Sobol/grid seeding, then coordinate refinement.

The paper reads its response surfaces by hand — find the valley, walk its
trough.  :class:`SearchStrategy` automates the read against a *served*
model: a low-discrepancy seed sweep (:func:`~repro.analysis.sobol.sobol_design`
plus the corner grid, predicted in one batch and scored by
:meth:`~repro.tuning.objectives.Objective.score_rows`) brackets the
promising region in one vectorized evaluation, and coordinate descent
with step halving then refines the best seed — each round again a single
batched evaluation, so an entire budget-256 search costs a handful of
``predict`` calls rather than 256 round trips.

Everything is deterministic under ``(seed, budget)``: Sobol scrambling is
seeded, candidate sets are deduplicated in generation order, and score
ties break by configuration tuple order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.sobol import sobol_design
from ..reliability.policies import Deadline
from ..workload.sampler import ConfigSpace, full_factorial
from ..workload.service import INPUT_NAMES, OUTPUT_NAMES
from .objectives import Objective

__all__ = ["SearchResult", "SearchStrategy"]


@dataclass
class SearchResult:
    """Outcome of one configuration search."""

    #: Best configuration found, in :data:`INPUT_NAMES` order.
    vector: np.ndarray
    #: Predicted indicators at :attr:`vector`, in OUTPUT_NAMES order.
    outputs: np.ndarray
    #: Objective score of the best configuration.
    score: float
    #: Whether every constraint holds at the best configuration.
    feasible: bool
    #: Total model evaluations spent (seed + refinement).
    evals: int
    #: Model evaluations spent in the seed sweep.
    seed_evals: int
    #: Coordinate-descent rounds run.
    refine_rounds: int
    #: Score of the best *seed*, before refinement (for rationale).
    seed_score: float = 0.0

    def indicators(self) -> Dict[str, float]:
        """The predicted outputs as ``{indicator: value}``."""
        return {
            name: float(v) for name, v in zip(OUTPUT_NAMES, self.outputs)
        }


class _CountingPredictor:
    """Wrap a batch-evaluate callable as a ``predict(matrix)`` model.

    Counts rows evaluated (the search budget's currency) and memoizes by
    quantized configuration so a revisited point never re-spends budget.
    """

    def __init__(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        deadline: Optional[Deadline] = None,
    ):
        self._evaluate = evaluate
        self._deadline = deadline
        self.evals = 0
        self._memo: Dict[Tuple, np.ndarray] = {}

    @staticmethod
    def _key(row: np.ndarray) -> Tuple:
        return tuple(round(float(v), 9) for v in row)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        out = np.empty((matrix.shape[0], len(OUTPUT_NAMES)))
        keys = [self._key(row) for row in matrix]
        miss = [i for i, k in enumerate(keys) if k not in self._memo]
        if miss:
            if self._deadline is not None:
                self._deadline.check("tuning search")
            fresh = np.asarray(
                self._evaluate(matrix[miss]), dtype=float
            )
            self.evals += len(miss)
            for i, row in zip(miss, fresh):
                self._memo[keys[i]] = row
        for i, k in enumerate(keys):
            out[i] = self._memo[k]
        return out


class SearchStrategy:
    """Sobol + grid seeding followed by coordinate-descent refinement.

    Parameters
    ----------
    space:
        The configuration region to search (the default brackets the
        paper's figures).
    seed_fraction:
        Share of the evaluation budget spent on the seed sweep; the rest
        funds refinement rounds.
    grid_levels:
        Corner-grid levels mixed into the seeds (``2`` = the 16 corners
        of the 4-D box; ``0`` disables the grid component).
    min_step:
        Refinement stops once every parameter's step falls below this
        (in parameter units; integer parameters floor at 1).
    """

    def __init__(
        self,
        space: Optional[ConfigSpace] = None,
        seed_fraction: float = 0.5,
        grid_levels: int = 2,
        min_step: float = 0.5,
    ):
        if not 0.0 < seed_fraction <= 1.0:
            raise ValueError(
                f"seed_fraction must be in (0, 1], got {seed_fraction}"
            )
        if grid_levels < 0:
            raise ValueError(f"grid_levels must be >= 0, got {grid_levels}")
        self.space = space if space is not None else ConfigSpace()
        self.seed_fraction = float(seed_fraction)
        self.grid_levels = int(grid_levels)
        self.min_step = float(min_step)

    # ------------------------------------------------------------------

    def _seed_candidates(self, n: int, seed: int) -> np.ndarray:
        """Sobol points plus the corner grid, deduplicated, ``<= n`` rows."""
        candidates: List[np.ndarray] = []
        seen = set()

        def add(vector: np.ndarray) -> None:
            key = tuple(vector)
            if key not in seen:
                seen.add(key)
                candidates.append(vector)

        if self.grid_levels:
            for config in full_factorial(self.space, self.grid_levels):
                add(self.space.clip(config.as_vector()))
        for config in sobol_design(self.space, n, seed=seed):
            add(config.as_vector())
        return np.vstack(candidates[:n])

    def run(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        objective: Objective,
        budget: int = 256,
        seed: int = 0,
        deadline: Optional[Deadline] = None,
        on_phase: Optional[Callable[[str, dict], None]] = None,
    ) -> SearchResult:
        """Search ``space`` for the best configuration under ``objective``.

        ``evaluate`` takes an ``(n, 4)`` configuration matrix and returns
        the ``(n, 5)`` predicted indicators — typically one
        :meth:`ServingEngine.predict` call, so the whole sweep rides the
        micro-batcher.  ``on_phase`` (used for tracing) is called as
        ``on_phase("seed" | "refine", details)`` after each phase.
        """
        if budget < 4:
            raise ValueError(f"budget must be >= 4, got {budget}")
        predictor = _CountingPredictor(evaluate, deadline=deadline)

        # ---- seed sweep: one vectorized scoring pass over the region --
        n_seed = max(2, int(budget * self.seed_fraction))
        vectors = self._seed_candidates(n_seed, seed)
        outputs = predictor.predict(vectors)
        scores = objective.score_rows(outputs, vectors)
        best_i = min(
            range(len(vectors)),
            key=lambda i: (-scores[i], tuple(vectors[i])),
        )
        best_vector = vectors[best_i].copy()
        best_outputs = outputs[best_i].copy()
        best_score = float(scores[best_i])
        seed_evals = predictor.evals
        seed_score = best_score
        if on_phase is not None:
            on_phase("seed", {"evals": seed_evals, "score": best_score})

        # ---- refinement: coordinate descent with step halving ---------
        steps = np.array(
            [max((r.high - r.low) / 8.0, self.min_step)
             for r in self.space.ranges]
        )
        integer = np.array([r.integer for r in self.space.ranges])
        steps[integer] = np.maximum(np.round(steps[integer]), 1.0)
        rounds = 0
        while predictor.evals < budget:
            if deadline is not None:
                deadline.check("tuning refinement")
            proposals = []
            for j in range(len(INPUT_NAMES)):
                for direction in (-1.0, 1.0):
                    candidate = best_vector.copy()
                    candidate[j] += direction * steps[j]
                    candidate = self.space.clip(candidate)
                    if not np.array_equal(candidate, best_vector):
                        proposals.append(candidate)
            if not proposals:
                break
            matrix = np.vstack(proposals)
            remaining = budget - predictor.evals
            matrix = matrix[:remaining]
            outputs_m = predictor.predict(matrix)
            scores_m = objective.score_rows(outputs_m, matrix)
            top = min(
                range(matrix.shape[0]),
                key=lambda i: (-scores_m[i], tuple(matrix[i])),
            )
            rounds += 1
            if scores_m[top] > best_score:
                best_score = float(scores_m[top])
                best_vector = matrix[top].copy()
                best_outputs = outputs_m[top].copy()
            else:
                # No proposal improved: tighten every step.  A dimension
                # whose step fell below resolution (1 for integers,
                # min_step otherwise) stops proposing; the search ends
                # when all of them have.
                steps = steps / 2.0
                steps[integer] = np.floor(steps[integer])
                converged = np.where(
                    integer, steps < 1.0, steps < self.min_step
                )
                if converged.all():
                    break
                steps[converged] = 0.0
        if on_phase is not None:
            on_phase(
                "refine",
                {
                    "rounds": rounds,
                    "evals": predictor.evals - seed_evals,
                    "score": best_score,
                },
            )

        indicators = dict(zip(OUTPUT_NAMES, (float(v) for v in best_outputs)))
        return SearchResult(
            vector=best_vector,
            outputs=best_outputs,
            score=best_score,
            feasible=objective.satisfied(indicators),
            evals=predictor.evals,
            seed_evals=seed_evals,
            refine_rounds=rounds,
            seed_score=seed_score,
        )
