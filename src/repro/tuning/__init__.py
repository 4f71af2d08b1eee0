"""Online autotuning: the paper's closing loop, served.

The IISWC'06 paper ends where most users want to begin: "we can further
build a system that recommends the best configuration according to a
scoring function" (Section 5.3).  This package is that system, wired
into the serving and lifecycle stacks that the rest of the repo built:

* :mod:`~repro.tuning.objectives` — what "best" means, as validated,
  serializable data (:class:`Objective` / :class:`Constraint`);
* :mod:`~repro.tuning.search` — Sobol + corner-grid seeding followed by
  coordinate-descent refinement, all through batched model evaluations
  (:class:`SearchStrategy` / :class:`SearchResult`);
* :mod:`~repro.tuning.engine` — the cached, traced, load-shed-aware
  :class:`RecommendationEngine` behind ``POST /recommend`` and the
  lifecycle promote hook;
* :mod:`~repro.tuning.cli` — the ``repro tune`` command.
"""

from .engine import RecommendationEngine
from .objectives import OBJECTIVE_KINDS, Constraint, Objective
from .search import SearchResult, SearchStrategy

__all__ = [
    "Constraint",
    "Objective",
    "OBJECTIVE_KINDS",
    "RecommendationEngine",
    "SearchResult",
    "SearchStrategy",
]
