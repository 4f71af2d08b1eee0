"""Autotuning demo: serve → recommend under an SLO → promote → re-tune.

The paper's closing loop (Section 5.3) end to end, and what the CI
tuning smoke runs:

1. train a baseline characterization model and serve it with the
   recommendation engine attached;
2. ``POST /recommend`` with a response-time SLO objective — the search
   seeds with a scrambled Sobol sweep, refines by coordinate descent,
   and returns the best configuration with a surface-class rationale;
3. repeat the identical request — it must come back byte-identical and
   from the recommendation cache;
4. register the objective as *standing*, promote a retrained candidate
   through the versioned store, and assert the promote hook re-tuned
   the objective against the new artifact (the cache is invalidated, a
   fresh search runs, and ``GET /lifecycle`` reports the outcome).

Usage::

    python examples/tuning_demo.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.lifecycle import (
    LifecycleOrchestrator,
    ObservationLog,
    VersionedModelStore,
)
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.serving import ServingClient, ServingEngine
from repro.serving.server import create_server
from repro.tuning import Constraint, Objective, RecommendationEngine
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.sampler import ConfigSpace, SampleCollector, latin_hypercube


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAILED: expected {what}")
        sys.exit(1)


def train(seed: int, scale: float = 1.0) -> NeuralWorkloadModel:
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(ConfigSpace(), 24, seed=seed)
    )
    dataset.y = np.maximum(dataset.y * scale, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(10,), error_threshold=0.02, max_epochs=2000, seed=seed
    )
    return model.fit(dataset.x, dataset.y)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "registry"
        registry.mkdir()
        print("Training and deploying the baseline model ...")
        save_model(train(seed=7), registry / "paper.json")

        engine = ServingEngine(registry, max_wait_ms=1.0)
        tuner = RecommendationEngine(engine, default_budget=96)
        store = VersionedModelStore(Path(tmp) / "store")
        store.adopt(
            "paper", registry / "paper.json", metadata={"status": "baseline"}
        )
        orchestrator = LifecycleOrchestrator(
            registry,
            store,
            ObservationLog(),
            metrics=engine.metrics,
            tracer=engine.tracer,
            tuner=tuner,
        )
        server = create_server(
            engine, port=0, tuner=tuner, lifecycle=orchestrator
        )
        server.serve_background()
        client = ServingClient(server.url)
        print(f"Serving at {server.url}\n")

        objective = Objective(
            kind="slo",
            constraints=(Constraint("dealer_browse_rt", 0.5),),
        ).to_dict()
        print("POST /recommend (p99-style SLO: dealer_browse_rt <= 0.5s)")
        first = client.recommend("paper", objective=objective, seed=0)
        config = "  ".join(
            f"{k}={v:g}" for k, v in first["config"].items()
        )
        print(f"  -> {config}")
        print(
            f"  score {first['score']:g}, feasible {first['feasible']}, "
            f"{first['evals']} evals, "
            f"surface {first['rationale']['surface_class']}"
        )
        expect(first["feasible"], "the SLO recommendation to be feasible")

        repeat = client.recommend("paper", objective=objective, seed=0)
        expect(
            json.dumps(first, sort_keys=True)
            == json.dumps(repeat, sort_keys=True),
            "the identical request to return a byte-identical body",
        )
        expect(
            engine.metrics.counters["recommendation_cache_hits_total"] == 1,
            "the repeat to hit the recommendation cache",
        )
        print("  repeat request: byte-identical, served from cache\n")

        print("Registering the SLO as a standing objective ...")
        tuner.register_standing(
            "paper",
            Objective(
                kind="slo",
                constraints=(Constraint("dealer_browse_rt", 0.5),),
            ),
        )

        print("Promoting a retrained candidate (shifted indicators) ...")
        searches_before = (
            engine.metrics.counters["recommendations_total"]
            - engine.metrics.counters["recommendation_cache_hits_total"]
        )
        version = store.save_version(
            "paper", train(seed=11, scale=1.25), {"status": "accepted"}
        )
        orchestrator.promote("paper", version)

        standing = tuner.standing_status()["paper"][0]
        expect(
            standing["retunes"] == 1,
            "the promote hook to re-tune the standing objective",
        )
        searches_after = (
            engine.metrics.counters["recommendations_total"]
            - engine.metrics.counters["recommendation_cache_hits_total"]
        )
        expect(
            searches_after > searches_before,
            "the re-tune to run a fresh (uncached) search",
        )
        retune = orchestrator.last_retune["paper"][0]
        print(
            f"  re-tune fired: invalidated {retune['invalidated']} cache "
            f"entr{'y' if retune['invalidated'] == 1 else 'ies'}, "
            f"config {'SHIFTED' if retune['shifted'] else 'stable'}"
        )

        lifecycle_payload = client._get_json("/lifecycle")
        expect(
            lifecycle_payload["tuning"]["paper"][0]["retunes"] == 1,
            "GET /lifecycle to surface the re-tune",
        )

        fresh = client.recommend("paper", objective=objective, seed=0)
        expect(
            fresh["artifact_mtime_ns"] != first["artifact_mtime_ns"],
            "post-promote recommendations to carry the new artifact version",
        )
        print("  stale recommendation can no longer be served\n")

        server.shutdown()
        server.server_close()
        print(
            "Tuning loop complete: SLO recommendation served and cached, "
            "promote invalidated the cache and re-tuned the standing "
            "objective."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
