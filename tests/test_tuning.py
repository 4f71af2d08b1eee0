"""The autotuning subsystem: objectives, search, engine, HTTP, lifecycle.

Covers the closed loop the paper motivates in Section 5.3 — "a system
that recommends the best configuration according to a scoring function" —
as deployed: deterministic searches against the served model,
byte-identical repeat responses, cache invalidation on promote, standing
objectives re-tuned by the lifecycle orchestrator, and the load-shed
tier that keeps recommendations from competing with live traffic.
"""

import json

import numpy as np
import pytest

from repro.analysis.sobol import SOBOL_MAX_DIMS, sobol_design, sobol_sequence
from repro.analysis.tuning import ConfigurationAdvisor, ScoringFunction
from repro.lifecycle import (
    LifecycleOrchestrator,
    ObservationLog,
    VersionedModelStore,
)
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.reliability.degradation import OverloadedError
from repro.serving import ServingClient, ServingEngine, ServingError
from repro.serving.metrics import ServingMetrics
from repro.serving.server import create_server
from repro.tuning import (
    Constraint,
    Objective,
    RecommendationEngine,
    SearchStrategy,
)
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.sampler import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    full_factorial,
    latin_hypercube,
)
from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES, WorkloadConfig


@pytest.fixture(scope="module")
def fitted():
    """A joint model fitted on a tiny simulated sample set."""
    space = ConfigSpace()
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(space, 20, seed=5)
    )
    dataset.y = np.maximum(dataset.y, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=800, seed=0
    )
    return model.fit(dataset.x, dataset.y)


@pytest.fixture(scope="module")
def alternative():
    """A second, differently-seeded model (the 'promoted candidate')."""
    space = ConfigSpace()
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(space, 20, seed=9)
    )
    dataset.y = np.maximum(dataset.y * 1.3, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=800, seed=3
    )
    return model.fit(dataset.x, dataset.y)


@pytest.fixture()
def engine(fitted, tmp_path):
    save_model(fitted, tmp_path / "paper.json")
    engine = ServingEngine(tmp_path, batching=False)
    yield engine
    engine.close()


SLO = Objective(
    kind="slo", constraints=(Constraint("dealer_browse_rt", 0.5),)
)


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------


class TestObjective:
    def test_wire_round_trip(self):
        objective = Objective(
            kind="cost",
            target="effective_tps",
            constraints=(
                Constraint("dealer_browse_rt", 0.5),
                Constraint("manufacturing_rt", 1.2),
            ),
            penalty_weight=5.0,
            thread_cost=0.1,
        )
        assert Objective.from_dict(objective.to_dict()) == objective

    def test_canonical_is_order_independent(self):
        a = Objective(
            kind="slo",
            constraints=(
                Constraint("dealer_browse_rt", 0.5),
                Constraint("manufacturing_rt", 1.2),
            ),
        )
        b = Objective(
            kind="slo",
            constraints=(
                Constraint("manufacturing_rt", 1.2),
                Constraint("dealer_browse_rt", 0.5),
            ),
        )
        assert a.canonical() == b.canonical()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"kind": "bogus"}, "unknown objective kind"),
            ({"target": "nope"}, "unknown target"),
            ({"kind": "slo"}, "at least one constraint"),
            ({"thread_cost": 0.5}, "applies only to 'cost'"),
            ({"penalty_weight": -1.0}, "non-negative"),
            ({"frobnicate": 1}, "unknown field"),
            ({"penalty_weight": "x"}, "must be a number"),
            (
                {
                    "kind": "slo",
                    "constraints": [
                        {"indicator": "dealer_browse_rt", "max_value": 0.5},
                        {"indicator": "dealer_browse_rt", "max_value": 0.6},
                    ],
                },
                "duplicate constraint",
            ),
            (
                {"constraints": [{"indicator": "nope", "max_value": 1.0}]},
                "unknown indicator",
            ),
            (
                {
                    "constraints": [
                        {"indicator": "dealer_browse_rt", "max_value": -1}
                    ]
                },
                "positive finite",
            ),
        ],
    )
    def test_validation(self, payload, match):
        with pytest.raises(ValueError, match=match):
            Objective.from_dict(payload)

    def test_score_rows_matches_scalar_score(self):
        objective = Objective(
            kind="cost",
            constraints=(Constraint("dealer_browse_rt", 0.3),),
            thread_cost=0.2,
        )
        rng = np.random.default_rng(0)
        outputs = rng.uniform(0.1, 2.0, size=(6, len(OUTPUT_NAMES)))
        vectors = rng.uniform(2.0, 20.0, size=(6, len(INPUT_NAMES)))
        rows = objective.score_rows(outputs, vectors)
        for i in range(6):
            indicators = dict(zip(OUTPUT_NAMES, outputs[i]))
            assert rows[i] == pytest.approx(
                objective.score(indicators, vectors[i])
            )

    def test_slo_penalty_keeps_feasible_ahead(self):
        objective = SLO
        j = OUTPUT_NAMES.index("dealer_browse_rt")
        tps = OUTPUT_NAMES.index("effective_tps")
        good = np.full(len(OUTPUT_NAMES), 0.2)
        good[tps] = 100.0
        bad = good.copy()
        bad[j] = 2.0  # violates the 0.5 SLO
        bad[tps] = 120.0  # even with more throughput...
        scores = objective.score_rows(
            np.vstack([good, bad]), np.zeros((2, len(INPUT_NAMES)))
        )
        assert scores[0] > scores[1]


# ----------------------------------------------------------------------
# sobol sequence edge cases (satellite c)
# ----------------------------------------------------------------------


class TestSobolSequence:
    def test_empty_sequence(self):
        points = sobol_sequence(0, 4, seed=1)
        assert points.shape == (0, 4)

    def test_single_point(self):
        points = sobol_sequence(1, 3, seed=1)
        assert points.shape == (1, 3)
        assert np.all((points >= 0.0) & (points < 1.0))

    def test_dims_bounds(self):
        with pytest.raises(ValueError):
            sobol_sequence(4, 0)
        with pytest.raises(ValueError):
            sobol_sequence(4, SOBOL_MAX_DIMS + 1)
        with pytest.raises(ValueError):
            sobol_sequence(-1, 2)

    def test_scramble_reproducible_under_seed(self):
        a = sobol_sequence(64, 4, seed=7)
        b = sobol_sequence(64, 4, seed=7)
        c = sobol_sequence(64, 4, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unscrambled_is_the_plain_sequence(self):
        a = sobol_sequence(16, 2, scramble=False)
        b = sobol_sequence(16, 2, seed=123, scramble=False)
        np.testing.assert_array_equal(a, b)
        # First dimension of the unscrambled sequence starts 0, 1/2, ...
        assert a[0, 0] == 0.0
        assert a[1, 0] == pytest.approx(0.5)

    def test_range_and_low_discrepancy(self):
        points = sobol_sequence(256, 4, seed=0)
        assert np.all((points >= 0.0) & (points < 1.0))
        # Each dimension's mean should be near 1/2 — far tighter than
        # the same bound would be for 256 uniform-random points.
        assert np.all(np.abs(points.mean(axis=0) - 0.5) < 0.05)

    def test_design_respects_degenerate_bounds(self):
        space = ConfigSpace(
            [
                ParameterRange("injection_rate", 500.0, 500.0, integer=False),
                ParameterRange("default_threads", 2, 22),
                ParameterRange("mfg_threads", 8, 8),
                ParameterRange("web_threads", 14, 24),
            ]
        )
        configs = sobol_design(space, 16, seed=3)
        assert len(configs) == 16
        for config in configs:
            vector = config.as_vector()
            assert vector[0] == 500.0
            assert vector[2] == 8.0
            assert 2 <= vector[1] <= 22
            assert 14 <= vector[3] <= 24

    def test_design_empty(self):
        assert sobol_design(ConfigSpace(), 0, seed=0) == []


# ----------------------------------------------------------------------
# advisor determinism + clamping (satellite a)
# ----------------------------------------------------------------------


class _ConstantModel:
    """Predicts the same indicators everywhere — every score ties."""

    def predict(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        return np.tile(
            np.array([0.1, 0.1, 0.1, 0.1, 100.0]), (matrix.shape[0], 1)
        )


class TestAdvisorDeterminism:
    def test_tie_break_by_config_tuple(self):
        advisor = ConfigurationAdvisor(_ConstantModel())
        space = ConfigSpace()
        configs = full_factorial(space, 2)
        ranked = advisor.evaluate(configs)
        shuffled = list(configs)
        np.random.default_rng(1).shuffle(shuffled)
        reranked = advisor.evaluate(shuffled)
        first = [tuple(r.config.as_vector()) for r in ranked]
        second = [tuple(r.config.as_vector()) for r in reranked]
        assert first == second
        assert first == sorted(first)  # ties resolve in tuple order

    def test_recommend_is_repeatable(self):
        advisor = ConfigurationAdvisor(_ConstantModel())
        space = ConfigSpace()
        a = advisor.recommend(space, levels=3, top_k=4)
        b = advisor.recommend(space, levels=3, top_k=4)
        assert [tuple(r.config.as_vector()) for r in a] == [
            tuple(r.config.as_vector()) for r in b
        ]

    def test_candidates_clamped_to_fractional_bounds(self):
        # Integer grid generation rounds 2.6 down to 2; the advisor must
        # clamp candidates back inside the declared bounds.
        space = ConfigSpace(
            [
                ParameterRange("injection_rate", 400, 600, integer=False),
                ParameterRange("default_threads", 2.6, 21.4),
                ParameterRange("mfg_threads", 8, 24),
                ParameterRange("web_threads", 14, 24),
            ]
        )
        advisor = ConfigurationAdvisor(_ConstantModel())
        for rec in advisor.recommend(space, levels=3, top_k=10):
            vector = rec.config.as_vector()
            assert 2.6 <= vector[1] <= 21.4

    def test_plan_experiments_stays_in_bounds(self):
        space = ConfigSpace(
            [
                ParameterRange("injection_rate", 400, 600, integer=False),
                ParameterRange("default_threads", 2.6, 21.4),
                ParameterRange("mfg_threads", 8, 24),
                ParameterRange("web_threads", 14, 24),
            ]
        )
        advisor = ConfigurationAdvisor(_ConstantModel())
        chosen = advisor.plan_experiments(space, budget=3, levels=3)
        assert chosen
        for rec in chosen:
            assert 2.6 <= rec.config.as_vector()[1] <= 21.4


# ----------------------------------------------------------------------
# search strategy
# ----------------------------------------------------------------------


class TestSearchStrategy:
    def test_deterministic_and_budgeted(self, fitted):
        strategy = SearchStrategy()
        results = [
            strategy.run(fitted.predict, SLO, budget=64, seed=2)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(results[0].vector, results[1].vector)
        assert results[0].score == results[1].score
        assert results[0].evals <= 64
        assert results[0].seed_evals >= 2

    def test_refinement_never_regresses(self, fitted):
        result = SearchStrategy().run(fitted.predict, SLO, budget=96, seed=0)
        assert result.score >= result.seed_score

    def test_different_seeds_may_differ_but_stay_in_space(self, fitted):
        space = ConfigSpace()
        for seed in range(3):
            result = SearchStrategy(space).run(
                fitted.predict, SLO, budget=32, seed=seed
            )
            for value, prange in zip(result.vector, space.ranges):
                assert prange.low <= value <= prange.high

    def test_budget_too_small(self, fitted):
        with pytest.raises(ValueError, match="budget"):
            SearchStrategy().run(fitted.predict, SLO, budget=3)


# ----------------------------------------------------------------------
# recommendation engine
# ----------------------------------------------------------------------


class TestRecommendationEngine:
    def test_cache_hit_skips_search(self, engine):
        tuner = RecommendationEngine(engine, default_budget=32)
        first = tuner.recommend("paper", SLO)
        counters = engine.metrics.counters
        evals_after_first = counters["recommendation_search_evals_total"]
        second = tuner.recommend("paper", SLO)
        assert first == second
        assert counters["recommendation_cache_hits_total"] == 1
        assert (
            counters["recommendation_search_evals_total"] == evals_after_first
        )

    def test_identical_requests_byte_identical(self, engine):
        tuner = RecommendationEngine(engine, default_budget=32, cache_size=0)
        a = tuner.recommend("paper", SLO, seed=1)
        b = tuner.recommend("paper", SLO, seed=1)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unknown_model(self, engine):
        tuner = RecommendationEngine(engine)
        with pytest.raises(KeyError):
            tuner.recommend("nope", SLO)

    def test_budget_validation(self, engine):
        tuner = RecommendationEngine(engine, max_budget=128)
        with pytest.raises(ValueError):
            tuner.recommend("paper", SLO, budget=2)
        with pytest.raises(ValueError):
            tuner.recommend("paper", SLO, budget=4096)

    def test_draining_sheds(self, engine):
        tuner = RecommendationEngine(engine)
        engine.drain()
        with pytest.raises(OverloadedError):
            tuner.recommend("paper", SLO)

    def test_rationale_present(self, engine):
        tuner = RecommendationEngine(engine, default_budget=32)
        payload = tuner.recommend("paper", SLO)
        rationale = payload["rationale"]
        assert rationale["surface_class"] in (
            "bowl", "dome", "saddle", "flat", "unavailable",
        )
        if rationale["surface_class"] != "unavailable":
            assert rationale["indicator"] == "effective_tps"
            assert set(rationale["trough_direction"]) == {
                "default_threads", "web_threads",
            }

    def test_promote_invalidates_cache(self, fitted, alternative, tmp_path):
        """The acceptance path: a stale recommendation is never served."""
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(fitted, registry / "paper.json")
        engine = ServingEngine(registry, batching=False)
        try:
            store = VersionedModelStore(tmp_path / "store")
            store.adopt(
                engine_name := "paper", registry / "paper.json",
                metadata={"status": "baseline"},
            )
            tuner = RecommendationEngine(engine, default_budget=32)
            stale = tuner.recommend(engine_name, SLO)
            assert tuner.stats()["cache_entries"] == 1

            version = store.save_version(engine_name, alternative, {})
            store.promote(engine_name, version, registry)
            dropped = tuner.invalidate_model(engine_name)
            assert dropped == 1

            fresh = tuner.recommend(engine_name, SLO)
            # New artifact version — even an un-invalidated cache could
            # not have served the stale entry, because the key carries
            # the artifact mtime.
            assert (
                fresh["artifact_mtime_ns"] != stale["artifact_mtime_ns"]
            )
            assert fresh["predicted"] != stale["predicted"]
            hits = engine.metrics.counters["recommendation_cache_hits_total"]
            assert hits == 0
        finally:
            engine.close()

    def test_on_model_updated_retunes_standing(
        self, fitted, alternative, tmp_path
    ):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(fitted, registry / "paper.json")
        engine = ServingEngine(registry, batching=False)
        try:
            tuner = RecommendationEngine(engine, default_budget=32)
            tuner.register_standing("paper", SLO)
            baseline = tuner.standing_status()["paper"][0]
            assert baseline["retunes"] == 0

            save_model(alternative, registry / "paper.json")
            records = tuner.on_model_updated("paper")
            assert len(records) == 1
            assert records[0]["invalidated"] >= 1
            status = tuner.standing_status()["paper"][0]
            assert status["retunes"] == 1
            assert status["error"] is None
            # shifted reflects whether the new artifact moved the config
            assert records[0]["shifted"] == status["shifted"]
        finally:
            engine.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(fitted, tmp_path_factory):
    directory = tmp_path_factory.mktemp("models")
    save_model(fitted, directory / "paper.json")
    engine = ServingEngine(directory, max_wait_ms=1.0)
    tuner = RecommendationEngine(engine, default_budget=48)
    server = create_server(engine, port=0, tuner=tuner)
    server.serve_background()
    yield ServingClient(server.url), engine
    server.shutdown()
    server.server_close()


class TestRecommendHTTP:
    def test_byte_identical_and_cache_counter(self, served):
        client, engine = served
        objective = SLO.to_dict()
        counters = engine.metrics.counters
        hits_before = counters["recommendation_cache_hits_total"]
        a = client.recommend("paper", objective=objective, budget=48, seed=0)
        b = client.recommend("paper", objective=objective, budget=48, seed=0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert counters["recommendation_cache_hits_total"] == hits_before + 1
        assert set(a) >= {
            "config", "predicted", "score", "feasible", "rationale",
            "evals", "artifact_mtime_ns",
        }
        assert set(a["config"]) == set(INPUT_NAMES)

    def test_default_objective(self, served):
        client, _ = served
        body = client.recommend("paper", budget=32)
        assert body["objective"]["kind"] == "max_throughput"

    def test_unknown_model_404(self, served):
        client, _ = served
        with pytest.raises(ServingError) as excinfo:
            client.recommend("nope", budget=32)
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "body",
        [
            {"model": "paper", "objective": {"kind": "bogus"}},
            {"model": "paper", "budget": 1},
            {"model": "paper", "budget": "lots"},
            {"model": "paper", "seed": "x"},
            {"model": "paper", "frobnicate": 1},
            {"model": ""},
        ],
    )
    def test_bad_requests_400(self, served, body):
        client, _ = served
        with pytest.raises(ServingError) as excinfo:
            client._post_json("/recommend", body, None)
        assert excinfo.value.status == 400

    def test_tiny_deadline_504(self, served):
        # Send the deadline header directly (the client would clamp its
        # own socket timeout to the budget and time out before reading
        # the response).
        import urllib.error
        import urllib.request

        client, _ = served
        request = urllib.request.Request(
            client.base_url + "/recommend",
            data=json.dumps({"model": "paper", "budget": 64}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Deadline-Ms": "0.001",
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 504

    def test_tuning_spans_recorded(self, served):
        client, engine = served
        client.recommend("paper", budget=32, seed=5)
        names = set()
        for trace in engine.tracer.buffer.traces(limit=100):
            for span in trace["spans"]:
                names.add(span["name"])
        assert {"tuning.cache", "tuning.search", "tuning.refine"} <= names

    def test_metrics_exposition(self, served):
        client, _ = served
        text = client.metrics_text()
        assert "repro_serving_recommendations_total" in text
        assert "repro_serving_recommendation_cache_hits_total" in text
        assert "repro_serving_recommendation_search_evals_total" in text
        snapshot = client.metrics()
        assert snapshot["recommendations_total"] >= 1

    def test_recommendations_listing(self, served):
        client, _ = served
        client.recommend("paper", budget=32, seed=7)
        payload = client.recommendations(limit=5)
        assert payload["recent"]
        assert payload["recent"][0]["model"] == "paper"
        assert "cached" in payload["recent"][0]
        assert payload["stats"]["cache_entries"] >= 1

    def test_tuning_disabled_404(self, fitted, tmp_path):
        save_model(fitted, tmp_path / "paper.json")
        engine = ServingEngine(tmp_path, batching=False)
        server = create_server(engine, port=0)  # no tuner
        server.serve_background()
        try:
            client = ServingClient(server.url)
            with pytest.raises(ServingError) as excinfo:
                client.recommend("paper", budget=32)
            assert excinfo.value.status == 404
            with pytest.raises(ServingError) as excinfo:
                client.recommendations()
            assert excinfo.value.status == 404
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# lifecycle promote hook
# ----------------------------------------------------------------------


class TestLifecycleRetune:
    def test_promote_triggers_retune(self, fitted, alternative, tmp_path):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(fitted, registry / "paper.json")
        engine = ServingEngine(registry, batching=False)
        try:
            store = VersionedModelStore(tmp_path / "store")
            store.adopt(
                "paper", registry / "paper.json",
                metadata={"status": "baseline"},
            )
            tuner = RecommendationEngine(engine, default_budget=32)
            orchestrator = LifecycleOrchestrator(
                registry,
                store,
                ObservationLog(),
                metrics=engine.metrics,
                tuner=tuner,
            )
            tuner.register_standing("paper", SLO)
            version = store.save_version("paper", alternative, {})
            orchestrator.promote("paper", version)

            status = tuner.standing_status()["paper"][0]
            assert status["retunes"] == 1
            assert orchestrator.last_retune["paper"]
            payload = orchestrator.status()
            assert payload["tuning"]["paper"][0]["retunes"] == 1
            assert (
                payload["models"]["paper"]["last_retune"] is not None
            )

            orchestrator.rollback("paper")
            assert tuner.standing_status()["paper"][0]["retunes"] == 2
        finally:
            engine.close()

    def test_retune_failure_never_blocks_promote(
        self, fitted, alternative, tmp_path
    ):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(fitted, registry / "paper.json")
        engine = ServingEngine(registry, batching=False)
        try:
            store = VersionedModelStore(tmp_path / "store")
            store.adopt("paper", registry / "paper.json", metadata={})

            class ExplodingTuner:
                def on_model_updated(self, name):
                    raise RuntimeError("search backend down")

                def standing_status(self):
                    return {}

            orchestrator = LifecycleOrchestrator(
                registry,
                store,
                ObservationLog(),
                tuner=ExplodingTuner(),
            )
            version = store.save_version("paper", alternative, {})
            orchestrator.promote("paper", version)  # must not raise
            assert "error" in orchestrator.last_retune["paper"][0]
        finally:
            engine.close()


# ----------------------------------------------------------------------
# repro tune CLI
# ----------------------------------------------------------------------


class TestTuneCLI:
    def test_recommend_and_watch(self, served, capsys):
        client, _ = served
        from repro.tuning.cli import main as tune_main

        rc = tune_main(
            [
                "--url", client.base_url,
                "recommend",
                "--model", "paper",
                "--objective", "slo",
                "--limit", "dealer_browse_rt=0.5",
                "--budget", "32",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "recommended configuration" in out
        assert "effective_tps" in out

        rc = tune_main(["--url", client.base_url, "watch", "--iterations", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache" in out

    def test_sweep_reports_stability(self, served, capsys):
        client, _ = served
        from repro.tuning.cli import main as tune_main

        rc = tune_main(
            [
                "--url", client.base_url,
                "sweep",
                "--model", "paper",
                "--budget", "16",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "distinct configuration" in out

    def test_json_output(self, served, capsys):
        client, _ = served
        from repro.tuning.cli import main as tune_main

        rc = tune_main(
            [
                "--url", client.base_url,
                "recommend", "--model", "paper", "--budget", "16", "--json",
            ]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body["config"]) == set(INPUT_NAMES)

    def test_bad_limit_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["tune", "recommend", "--model", "paper", "--limit",
                 "nope=0.5"]
            )
            == 1
        )
        assert capsys.readouterr().err.startswith(
            "error: --limit 'nope': unknown indicator"
        )
        assert main(["tune", "recommend", "--limit", "dealer_browse_rt"]) == 1
        assert capsys.readouterr().err == (
            "error: --limit needs indicator=value, got 'dealer_browse_rt'\n"
        )

    def test_server_error_exit_code(self, served, capsys):
        client, _ = served
        from repro.cli import main

        rc = main(
            ["tune", "--url", client.base_url, "recommend", "--model", "ghost"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err
