"""The online recommendation engine behind ``POST /recommend``.

:class:`RecommendationEngine` productizes the paper's closing loop — use
the learned model to *pick configurations* — against the live serving
stack:

* searches run through :meth:`ServingEngine.predict`, so every sweep is
  one micro-batched vectorized pass that shares the prediction cache,
  circuit breakers, and deadline machinery with ordinary traffic;
* results are cached in an LRU keyed on ``(model, artifact version,
  objective, budget, seed)`` — a promoted or rolled-back artifact changes
  the version component, so a stale recommendation can never be served
  for a new model, and :meth:`on_model_updated` additionally drops the
  old entries and re-tunes *standing objectives* so ``GET /lifecycle``
  can report whether the recommended config shifted;
* every stage is traced (``tuning.cache`` / ``tuning.search`` /
  ``tuning.refine`` spans) and counted
  (``recommendations_total`` / ``recommendation_cache_hits_total`` /
  ``recommendation_search_evals_total``);
* recommendations are the lowest-priority tier: while the serving engine
  is draining or soft-overloaded, searches shed immediately with
  :class:`~repro.reliability.degradation.OverloadedError` rather than
  compete with live ``/predict`` traffic.

Payloads are deterministic: the search is a pure function of ``(artifact,
objective, budget, seed)`` and every float is rounded to 6 decimals on
the way out, so identical requests serialize byte-identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.curvature import local_curvature
from ..observability.trace import NOOP_SPAN
from ..reliability.degradation import OverloadedError
from ..reliability.policies import Deadline
from ..workload.sampler import ConfigSpace
from ..workload.service import INPUT_NAMES
from .objectives import Objective
from .search import SearchStrategy

__all__ = ["RecommendationEngine"]

#: Decimals every outgoing float is rounded to — recommendations must
#: serialize byte-identically across repeats, and micro-batch composition
#: can jitter a BLAS result in the last bits.
_WIRE_DECIMALS = 6

#: The Hessian pair the surface-class rationale is computed over — the
#: paper's Figure 7/8 plane (default vs web queue threads).
_RATIONALE_PARAMS = ("default_threads", "web_threads")


def _round_floats(value):
    """Recursively round floats for a byte-stable wire form."""
    if isinstance(value, float):
        return round(value, _WIRE_DECIMALS)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


class RecommendationEngine:
    """Serve configuration recommendations from the live model registry.

    Parameters
    ----------
    serving:
        The :class:`~repro.serving.engine.ServingEngine` searches run
        through (its metrics and tracer are reused).
    space:
        Configuration region to search; defaults to the paper's bracket.
    default_budget:
        Model evaluations per search when the request names none.
    cache_size:
        LRU bound on cached recommendations (``0`` disables caching).
    history_size:
        Recent recommendations kept for ``GET /recommendations``.
    max_budget:
        Hard per-request ceiling (a request cannot buy an unbounded
        sweep on a shared server).
    """

    def __init__(
        self,
        serving,
        space: Optional[ConfigSpace] = None,
        default_budget: int = 256,
        cache_size: int = 64,
        history_size: int = 64,
        max_budget: int = 4096,
        strategy: Optional[SearchStrategy] = None,
    ):
        if default_budget < 4:
            raise ValueError(
                f"default_budget must be >= 4, got {default_budget}"
            )
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.serving = serving
        self.space = space if space is not None else ConfigSpace()
        self.default_budget = int(default_budget)
        self.cache_size = int(cache_size)
        self.max_budget = int(max_budget)
        self.strategy = strategy or SearchStrategy(self.space)
        self.metrics = serving.metrics
        self.tracer = serving.tracer
        self._cache: "OrderedDict[Tuple, dict]" = OrderedDict()
        self._history: deque = deque(maxlen=int(history_size))
        #: Standing objectives re-tuned on every promote/rollback:
        #: ``{(model, canonical): {"objective", "budget", "seed", "last",
        #: "shifted", "retunes"}}``.
        self._standing: Dict[Tuple[str, str], dict] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------

    def recommend(
        self,
        model: str,
        objective: Objective,
        budget: Optional[int] = None,
        seed: int = 0,
        deadline: Optional[Deadline] = None,
        use_cache: bool = True,
    ) -> dict:
        """One recommendation: search, rationale, cache, history.

        Raises :class:`KeyError` for an unknown model,
        :class:`OverloadedError` when the serving engine is draining or
        soft-overloaded (recommendations are the first tier shed), and
        :class:`~repro.reliability.policies.DeadlineExceeded` when the
        caller's budget lapses mid-search.
        """
        if budget is None:
            budget = self.default_budget
        budget = int(budget)
        if not 4 <= budget <= self.max_budget:
            raise ValueError(
                f"budget must be in [4, {self.max_budget}], got {budget}"
            )
        seed = int(seed)
        self._check_admission()
        entry = self.serving.registry.get_entry(model)  # KeyError if unknown
        key = (model, entry.mtime_ns, objective.canonical(), budget, seed)

        cache_span = (
            self.tracer.start_span("tuning.cache", attributes={"model": model})
            if self.tracer is not None and self.cache_size > 0
            else NOOP_SPAN
        )
        with cache_span:
            cached = self._cache_get(key) if use_cache else None
            if cache_span is not NOOP_SPAN:
                cache_span.set_attribute("hit", cached is not None)
        if cached is not None:
            self.metrics.count(
                recommendations_total=1, recommendation_cache_hits_total=1
            )
            self._remember(cached, cached_hit=True)
            return dict(cached)

        search_span = (
            self.tracer.start_span(
                "tuning.search",
                attributes={
                    "model": model,
                    "objective": objective.kind,
                    "budget": budget,
                    "seed": seed,
                },
            )
            if self.tracer is not None
            else NOOP_SPAN
        )
        with search_span:
            result = self.strategy.run(
                lambda matrix: self.serving.predict(
                    model, matrix, deadline=deadline
                ),
                objective,
                budget=budget,
                seed=seed,
                deadline=deadline,
                on_phase=self._phase_hook(search_span),
            )
            if search_span is not NOOP_SPAN:
                search_span.set_attribute("evals", result.evals)
                search_span.set_attribute("score", round(result.score, 6))

        rationale = self._rationale(model, objective, result)
        payload = _round_floats(
            {
                "model": model,
                "objective": objective.to_dict(),
                "budget": budget,
                "seed": seed,
                "config": {
                    name: float(v)
                    for name, v in zip(INPUT_NAMES, result.vector)
                },
                "predicted": result.indicators(),
                "score": float(result.score),
                "feasible": bool(result.feasible),
                "evals": int(result.evals),
                "seed_evals": int(result.seed_evals),
                "refine_rounds": int(result.refine_rounds),
                "rationale": rationale,
                "artifact_mtime_ns": int(entry.mtime_ns),
            }
        )
        self.metrics.count(
            recommendations_total=1,
            recommendation_search_evals_total=result.evals,
        )
        self._cache_put(key, payload)
        self._remember(payload, cached_hit=False)
        return dict(payload)

    def _phase_hook(self, parent):
        """Record one ``tuning.refine`` child span after refinement."""
        if self.tracer is None:
            return None

        def on_phase(phase: str, details: dict) -> None:
            if phase == "refine":
                self.tracer.record_span(
                    "tuning.refine",
                    duration_s=0.0,
                    parent=None if parent is NOOP_SPAN else parent,
                    attributes={
                        "rounds": int(details.get("rounds", 0)),
                        "evals": int(details.get("evals", 0)),
                    },
                )

        return on_phase

    def _check_admission(self) -> None:
        """Shed the search before it starts when serving is under pressure."""
        serving = self.serving
        if serving.draining:
            raise OverloadedError(
                retry_after=serving.retry_after_s,
                message="tuning shed: serving engine is draining",
            )
        if (
            serving.max_inflight is not None
            and serving.inflight >= serving.max_inflight
        ):
            self.metrics.count(shed_requests_total=1)
            raise OverloadedError(
                retry_after=serving.retry_after_s,
                message=(
                    "tuning shed: serving engine is at its soft admission "
                    "bound; recommendations yield to live traffic"
                ),
            )

    # ------------------------------------------------------------------
    # rationale
    # ------------------------------------------------------------------

    def _rationale(
        self, model_name: str, objective: Objective, result
    ) -> dict:
        """Surface-class reading at the recommended point.

        The local Hessian of the objective's target indicator over the
        paper's (default, web) thread plane classifies the geometry —
        bowl (valley), dome (hill), saddle, flat — and its least-curved
        eigenvector is the "adjust two parameters concurrently" direction
        Section 5.2 recommends.  Non-joint or unfitted artifacts cannot
        be differentiated; the rationale degrades to ``unavailable``
        rather than failing the recommendation.
        """
        try:
            artifact = self.serving.registry.get(model_name)
            curvature = local_curvature(
                artifact,
                result.vector,
                objective.target,
                params=_RATIONALE_PARAMS,
            )
        except Exception as exc:  # noqa: BLE001 - rationale is best-effort
            return {
                "surface_class": "unavailable",
                "reason": f"{type(exc).__name__}: {exc}",
            }
        direction = curvature.trough_direction
        kind = curvature.kind
        advice = {
            "bowl": "recommended point sits in a valley; move along the "
                    "trough direction to trade parameters without losing "
                    "the optimum",
            "dome": "recommended point sits on a hill crest; both "
                    "parameters degrade the target when moved "
                    "independently",
            "saddle": "saddle geometry: the paired direction matters more "
                      "than either parameter alone",
            "flat": "locally flat: nearby configurations predict "
                    "near-identical indicators",
        }[kind]
        return {
            "surface_class": kind,
            "indicator": objective.target,
            "params": list(_RATIONALE_PARAMS),
            "eigenvalues": [float(v) for v in curvature.eigenvalues],
            "trough_direction": {
                _RATIONALE_PARAMS[0]: float(direction[0]),
                _RATIONALE_PARAMS[1]: float(direction[1]),
            },
            "gradient": [float(g) for g in curvature.gradient],
            "note": advice,
            "improvement_over_seed": float(
                result.score - result.seed_score
            ),
        }

    # ------------------------------------------------------------------
    # cache / history
    # ------------------------------------------------------------------

    def _cache_get(self, key: Tuple) -> Optional[dict]:
        with self._lock:
            payload = self._cache.get(key)
            if payload is not None:
                self._cache.move_to_end(key)
        return payload

    def _cache_put(self, key: Tuple, payload: dict) -> None:
        if self.cache_size == 0:
            return
        with self._lock:
            self._cache[key] = payload
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def invalidate_model(self, model: str) -> int:
        """Drop every cached recommendation for ``model``; returns count."""
        with self._lock:
            stale = [k for k in self._cache if k[0] == model]
            for k in stale:
                del self._cache[k]
            return len(stale)

    def _remember(self, payload: dict, cached_hit: bool) -> None:
        record = dict(payload)
        record["cached"] = bool(cached_hit)
        with self._lock:
            self._history.append(record)

    def recent(self, limit: int = 20) -> List[dict]:
        """Most recent recommendations, newest first."""
        with self._lock:
            records = list(self._history)
        return [dict(r) for r in reversed(records[-max(0, int(limit)):])]

    # ------------------------------------------------------------------
    # standing objectives (the lifecycle promote hook)
    # ------------------------------------------------------------------

    def register_standing(
        self,
        model: str,
        objective: Objective,
        budget: Optional[int] = None,
        seed: int = 0,
    ) -> dict:
        """Keep ``objective`` tuned across promotes; returns the baseline.

        The initial recommendation is computed immediately so a later
        re-tune has something to diff against.
        """
        payload = self.recommend(
            model, objective, budget=budget, seed=seed
        )
        with self._lock:
            self._standing[(model, objective.canonical())] = {
                "objective": objective,
                "budget": budget,
                "seed": int(seed),
                "last": payload,
                "shifted": False,
                "retunes": 0,
                "error": None,
            }
        return payload

    def on_model_updated(self, model: str) -> List[dict]:
        """Promote/rollback hook: invalidate, then re-tune standing goals.

        Returns one record per standing objective of ``model`` with the
        fresh recommendation and whether the recommended configuration
        *shifted* relative to the previous artifact — the signal surfaced
        under ``GET /lifecycle``.
        """
        invalidated = self.invalidate_model(model)
        with self._lock:
            standing = [
                (key, dict(state))
                for key, state in self._standing.items()
                if key[0] == model
            ]
        results = []
        for key, state in standing:
            record = {
                "model": model,
                "objective": state["objective"].to_dict(),
                "invalidated": invalidated,
            }
            previous = state["last"].get("config") if state["last"] else None
            try:
                fresh = self.recommend(
                    model,
                    state["objective"],
                    budget=state["budget"],
                    seed=state["seed"],
                )
            except Exception as exc:  # noqa: BLE001 - promote must survive
                record["error"] = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    if key in self._standing:
                        self._standing[key]["error"] = record["error"]
                results.append(record)
                continue
            shifted = previous is not None and fresh["config"] != previous
            record.update(
                {
                    "previous_config": previous,
                    "config": fresh["config"],
                    "predicted": fresh["predicted"],
                    "score": fresh["score"],
                    "shifted": shifted,
                }
            )
            with self._lock:
                if key in self._standing:
                    state = self._standing[key]
                    state["last"] = fresh
                    state["shifted"] = shifted
                    state["retunes"] += 1
                    state["error"] = None
            results.append(record)
        return results

    def standing_status(self) -> dict:
        """JSON-serializable standing-objective state for ``/lifecycle``."""
        with self._lock:
            items = [
                (key, dict(state)) for key, state in self._standing.items()
            ]
        per_model: Dict[str, list] = {}
        for (model, _), state in items:
            per_model.setdefault(model, []).append(
                {
                    "objective": state["objective"].to_dict(),
                    "config": (
                        state["last"].get("config") if state["last"] else None
                    ),
                    "score": (
                        state["last"].get("score") if state["last"] else None
                    ),
                    "shifted": bool(state["shifted"]),
                    "retunes": int(state["retunes"]),
                    "error": state["error"],
                }
            )
        return per_model

    def stats(self) -> dict:
        """Cache/standing counters for ``GET /recommendations``."""
        with self._lock:
            return {
                "cache_entries": len(self._cache),
                "cache_size": self.cache_size,
                "standing_objectives": len(self._standing),
                "history": len(self._history),
                "default_budget": self.default_budget,
                "max_budget": self.max_budget,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecommendationEngine(cache={len(self._cache)}/"
            f"{self.cache_size}, standing={len(self._standing)})"
        )
