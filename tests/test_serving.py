"""The serving subsystem: registry, cache, micro-batcher, metrics, engine."""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.serving import (
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    ServingEngine,
    ServingMetrics,
)
from repro.serving.metrics import COUNTERS, GAUGES
from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES


def fit_tiny_model(seed=0, scale=1.0):
    """A fast-fitting 4-in/5-out model; ``scale`` shifts its predictions."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 8.0, size=(40, 4))
    y = scale * np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=500, seed=seed
    )
    return model.fit(x, y), x


@pytest.fixture(scope="module")
def tiny_model():
    return fit_tiny_model()


@pytest.fixture()
def model_dir(tiny_model, tmp_path):
    model, _ = tiny_model
    save_model(model, tmp_path / "paper.json")
    return tmp_path


def bump_mtime(path):
    """Force a visibly newer mtime regardless of filesystem granularity."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))


class TestRegistry:
    def test_lists_artifacts_without_loading(self, model_dir):
        registry = ModelRegistry(model_dir)
        assert registry.list_models() == ["paper"]
        assert registry.loaded_models() == []
        assert "paper" in registry
        assert len(registry) == 1

    def test_lazy_get_materializes_and_predicts(self, model_dir, tiny_model):
        model, x = tiny_model
        registry = ModelRegistry(model_dir)
        loaded = registry.get("paper")
        assert registry.loaded_models() == ["paper"]
        np.testing.assert_allclose(loaded.predict(x), model.predict(x))

    def test_entry_key_includes_format_version(self, model_dir):
        entry = ModelRegistry(model_dir).get_entry("paper")
        assert entry.key == "paper@v1"
        assert entry.format_version == 1

    def test_unknown_model_raises_keyerror(self, model_dir):
        with pytest.raises(KeyError, match="unknown"):
            ModelRegistry(model_dir).get("nope")

    def test_path_traversal_rejected(self, model_dir):
        registry = ModelRegistry(model_dir)
        for name in ("../paper", "a/b", ".hidden", ""):
            with pytest.raises(KeyError):
                registry.get(name)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ModelRegistry(tmp_path / "absent")

    def test_hot_reload_on_mtime_change(self, model_dir, tiny_model):
        model, x = tiny_model
        registry = ModelRegistry(model_dir)
        before = registry.get("paper").predict(x[:3])
        # Drop a different artifact over the same name.
        retrained, _ = fit_tiny_model(seed=1, scale=2.0)
        save_model(retrained, model_dir / "paper.json")
        bump_mtime(model_dir / "paper.json")
        after = registry.get("paper").predict(x[:3])
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, retrained.predict(x[:3]))

    def test_unchanged_file_is_not_reparsed(self, model_dir):
        registry = ModelRegistry(model_dir)
        first = registry.get("paper")
        assert registry.get("paper") is first

    def test_forced_reload_swaps_instance(self, model_dir):
        registry = ModelRegistry(model_dir)
        first = registry.get("paper")
        assert registry.reload("paper").model is not first

    def test_evict_and_clear(self, model_dir):
        registry = ModelRegistry(model_dir)
        registry.get("paper")
        assert registry.evict("paper")
        assert not registry.evict("paper")
        registry.get("paper")
        registry.clear()
        assert registry.loaded_models() == []

    def test_corrupt_artifact_names_file(self, model_dir):
        (model_dir / "broken.json").write_text('{"format_version": 1')
        with pytest.raises(ValueError, match="broken.json"):
            ModelRegistry(model_dir).get("broken")

    def test_deleted_artifact_becomes_unknown(self, model_dir):
        registry = ModelRegistry(model_dir)
        registry.get("paper")
        (model_dir / "paper.json").unlink()
        with pytest.raises(KeyError):
            registry.get("paper")


class TestPredictionCache:
    def test_miss_then_hit(self):
        cache = PredictionCache(max_entries=4)
        key = cache.key("m", [1.0, 2.0, 3.0, 4.0])
        assert cache.get(key) is None
        cache.put(key, np.arange(5.0))
        np.testing.assert_array_equal(cache.get(key), np.arange(5.0))
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_quantization_absorbs_float_noise(self):
        cache = PredictionCache(decimals=6)
        a = cache.key("m", [0.1 + 0.2, 1, 2, 3])
        b = cache.key("m", [0.3, 1.0, 2.0, 3.0])
        assert a == b

    def test_lru_eviction_order(self):
        cache = PredictionCache(max_entries=2)
        k1, k2, k3 = (cache.key("m", [i, 0, 0, 0]) for i in range(3))
        cache.put(k1, np.zeros(5))
        cache.put(k2, np.ones(5))
        cache.get(k1)  # k1 is now most recently used
        cache.put(k3, np.full(5, 2.0))
        assert k1 in cache and k3 in cache
        assert k2 not in cache  # least recently used got evicted
        assert cache.evictions == 1

    def test_returned_array_is_a_copy(self):
        cache = PredictionCache()
        key = cache.key("m", [1, 2, 3, 4])
        cache.put(key, np.zeros(5))
        cache.get(key)[0] = 99.0
        assert cache.get(key)[0] == 0.0

    def test_invalidate_model_is_selective(self):
        cache = PredictionCache()
        cache.put(cache.key("a", [1, 2, 3, 4]), np.zeros(5))
        cache.put(cache.key("b", [1, 2, 3, 4]), np.ones(5))
        assert cache.invalidate_model("a") == 1
        assert len(cache) == 1

    def test_zero_capacity_disables_caching(self):
        cache = PredictionCache(max_entries=0)
        key = cache.key("m", [1, 2, 3, 4])
        cache.put(key, np.zeros(5))
        assert cache.get(key) is None
        assert len(cache) == 0


class TestMicroBatcher:
    def test_vectorized_results_routed_to_callers(self):
        calls = []

        def predict(batch):
            calls.append(batch.shape[0])
            return batch * 2.0

        with MicroBatcher(predict, max_batch_size=8, max_wait_ms=20.0) as mb:
            futures = [mb.submit([float(i)] * 4) for i in range(8)]
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(
                    future.result(5.0), [2.0 * i] * 4
                )
        assert mb.items_run == 8
        # Everything was queued before the worker's wait lapsed, so the
        # work ran in far fewer forward passes than queries.
        assert mb.batches_run <= len(calls) <= 2

    def test_single_straggler_flushes_on_max_wait(self):
        with MicroBatcher(
            lambda b: b, max_batch_size=64, max_wait_ms=10.0
        ) as mb:
            start = time.perf_counter()
            result = mb.predict([1.0, 2.0, 3.0, 4.0], timeout=5.0)
            elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(result, [1.0, 2.0, 3.0, 4.0])
        assert elapsed < 2.0  # flushed by the wait budget, not the timeout
        assert mb.batches_run == 1 and mb.mean_batch_size == 1.0

    def test_full_batch_flushes_without_waiting(self):
        sizes = []
        with MicroBatcher(
            lambda b: b,
            max_batch_size=4,
            max_wait_ms=10_000.0,  # only the size trigger can flush
            on_batch=sizes.append,
        ) as mb:
            futures = [mb.submit([float(i), 0, 0, 0]) for i in range(4)]
            for future in futures:
                future.result(5.0)
        assert sizes == [4]

    def test_predict_errors_propagate_to_every_caller(self):
        def explode(batch):
            raise RuntimeError("model on fire")

        with MicroBatcher(explode, max_wait_ms=5.0) as mb:
            f1, f2 = mb.submit([1, 2, 3, 4]), mb.submit([5, 6, 7, 8])
            for future in (f1, f2):
                with pytest.raises(RuntimeError, match="on fire"):
                    future.result(5.0)

    def test_submit_after_close_rejected(self):
        mb = MicroBatcher(lambda b: b)
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit([1, 2, 3, 4])

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: b, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: b, max_wait_ms=-1.0)

    def test_close_drain_vs_concurrent_submit_strands_nothing(self):
        """Hammer the close(drain=True) admission window.

        Submitter threads race close(): every submit must either be
        admitted (its future completes with a real result, because drain
        mode runs everything already queued) or be rejected with
        BatcherClosedError at the submit call — never accepted and then
        stranded behind the shutdown sentinel to time out.
        """
        from repro.serving import BatcherClosedError

        for round_no in range(20):
            mb = MicroBatcher(
                lambda b: b * 2.0, max_batch_size=4, max_wait_ms=1.0
            )
            admitted = []
            rejected = []
            start = threading.Barrier(5)

            def submitter():
                start.wait()
                for i in range(25):
                    try:
                        admitted.append(mb.submit([1.0, 2.0, 3.0, 4.0]))
                    except BatcherClosedError:
                        rejected.append(i)
                        return

            threads = [
                threading.Thread(target=submitter) for _ in range(4)
            ]
            for t in threads:
                t.start()

            def closer():
                start.wait()
                # Land the close mid-hammer, at a different phase each
                # round so the race window moves around.
                time.sleep(0.0005 * (round_no % 5))
                mb.close(drain=True)

            close_thread = threading.Thread(target=closer)
            close_thread.start()
            for t in threads:
                t.join(10.0)
            close_thread.join(10.0)
            # Every admitted future resolves with its computed result —
            # a short timeout here is the stranding detector.
            for future in admitted:
                np.testing.assert_allclose(
                    future.result(5.0), [2.0, 4.0, 6.0, 8.0]
                )
            assert len(admitted) + len(rejected) > 0


class TestServingMetrics:
    def test_counters_and_occupancy(self):
        metrics = ServingMetrics()
        metrics.record_request(3, 0.010)
        metrics.record_request(1, 0.020)
        metrics.record_batch(4)
        metrics.count(errors_total=1)
        snapshot = metrics.to_dict()
        assert snapshot["requests_total"] == 2
        assert snapshot["predictions_total"] == 4
        assert snapshot["errors_total"] == 1
        assert snapshot["mean_batch_occupancy"] == 4.0

    def test_latency_quantiles_ordering(self):
        metrics = ServingMetrics()
        for ms in range(1, 101):
            metrics.record_request(1, ms / 1000.0)
        q = metrics.latency_quantiles()
        assert q["p50"] <= q["p95"] <= q["p99"]
        assert q["p50"] == pytest.approx(0.0505, abs=0.002)

    def test_ring_buffer_bounds_memory(self):
        metrics = ServingMetrics(window=10)
        for _ in range(100):
            metrics.record_request(1, 1.0)
        metrics.record_request(1, 0.0)
        # Window keeps only the latest 10 samples, so p50 is still 1.0.
        assert metrics.latency_quantiles()["p50"] == 1.0

    def test_prometheus_exposition_shape(self):
        cache = PredictionCache()
        cache.get(cache.key("m", [1, 2, 3, 4]))  # one miss
        metrics = ServingMetrics(cache=cache)
        metrics.record_request(1, 0.005)
        text = metrics.to_prometheus()
        assert "# TYPE repro_serving_requests_total counter" in text
        assert "repro_serving_requests_total 1" in text
        assert "repro_serving_cache_misses_total 1" in text
        assert 'request_latency_seconds{quantile="0.5"}' in text
        assert text.endswith("\n")

    def test_every_table_row_is_exposed(self):
        metrics = ServingMetrics()
        text = metrics.to_prometheus()
        for name, *_ in GAUGES:
            assert f"repro_serving_{name}" not in text  # empty: left out
        for i, (name, _) in enumerate(COUNTERS):
            metrics.count(**{name: i + 1})
        for name, _, _, encoding in GAUGES:
            value = list(encoding)[-1] if isinstance(encoding, dict) else 7
            metrics.set_gauge(name, "k", value)
        text = metrics.to_prometheus()
        snapshot = metrics.to_dict()
        for i, (name, help_text) in enumerate(COUNTERS):
            assert snapshot[name] == metrics.counters[name] == i + 1
            family = (
                f"# HELP repro_serving_{name} {help_text}\n"
                f"# TYPE repro_serving_{name} counter\n"
                f"repro_serving_{name} {i + 1}\n"
            )
            if help_text is None:  # dict-only counter
                assert f"repro_serving_{name}" not in text
            else:
                assert family in text
        for name, label, help_text, encoding in GAUGES:
            value = metrics.gauge(name)["k"]
            assert snapshot[f"{name}s"] == {"k": value}
            exposed = encoding[value] if isinstance(encoding, dict) else value
            assert (
                f"# HELP repro_serving_{name} {help_text}\n"
                f"# TYPE repro_serving_{name} gauge\n"
                f'repro_serving_{name}{{{label}="k"}} {exposed}\n'
            ) in text
        assert len({name for name, _ in COUNTERS}) == len(COUNTERS)
        assert len({name for name, *_ in GAUGES}) == len(GAUGES)

    def test_unknown_counter_and_state_are_rejected(self):
        metrics = ServingMetrics()
        with pytest.raises(KeyError):
            metrics.count(bogus_total=1)
        with pytest.raises(ValueError, match="unknown breaker state 'ajar'"):
            metrics.set_gauge("breaker_state", "paper", "ajar")
        with pytest.raises(ValueError, match="unknown worker state"):
            metrics.set_gauge("worker_state", "0", "asleep")
        assert metrics.gauge("breaker_state") == {}


class TestServingEngine:
    def test_matches_direct_model_predictions(self, model_dir, tiny_model):
        model, x = tiny_model
        with ServingEngine(model_dir, max_wait_ms=1.0) as engine:
            out = engine.predict("paper", x[:5])
        np.testing.assert_allclose(out, model.predict(x[:5]), rtol=1e-10)

    def test_repeat_query_hits_cache(self, model_dir):
        config = [4.0, 4.0, 4.0, 5.0]
        with ServingEngine(model_dir, max_wait_ms=1.0) as engine:
            first = engine.predict_one("paper", config)
            second = engine.predict_one("paper", config)
            np.testing.assert_array_equal(first, second)
            assert engine.cache.hits == 1
            assert engine.metrics.to_dict()["cache"]["hit_rate"] > 0

    def test_unbatched_mode_runs_inline(self, model_dir, tiny_model):
        model, x = tiny_model
        with ServingEngine(model_dir, batching=False) as engine:
            out = engine.predict("paper", x[:4])
            assert engine.metrics.counters["batches_total"] == 0
        np.testing.assert_allclose(out, model.predict(x[:4]), rtol=1e-10)

    def test_hot_reload_swaps_predictions_and_cache(self, model_dir):
        config = [4.0, 4.0, 4.0, 5.0]
        with ServingEngine(model_dir, max_wait_ms=1.0) as engine:
            before = engine.predict_one("paper", config)
            retrained, _ = fit_tiny_model(seed=1, scale=2.0)
            save_model(retrained, model_dir / "paper.json")
            bump_mtime(model_dir / "paper.json")
            after = engine.predict_one("paper", config)
            assert not np.allclose(before, after)
            np.testing.assert_allclose(
                after, retrained.predict([config])[0], rtol=1e-10
            )

    def test_duplicate_rows_in_one_request_predict_once(self, model_dir):
        with ServingEngine(model_dir, batching=False) as engine:
            out = engine.predict(
                "paper",
                [[4, 4, 4, 5], [4, 4, 4, 5], [2, 3, 4, 5]],
            )
            np.testing.assert_array_equal(out[0], out[1])
            assert len(engine.cache) == 2  # only unique configs ran

    def test_unknown_model_and_bad_shapes(self, model_dir):
        with ServingEngine(model_dir, max_wait_ms=1.0) as engine:
            with pytest.raises(KeyError):
                engine.predict("absent", [[1, 2, 3, 4]])
            with pytest.raises(ValueError, match="shape"):
                engine.predict("paper", [[1, 2, 3]])
            with pytest.raises(ValueError, match="finite"):
                engine.predict("paper", [[1, 2, 3, float("nan")]])

    def test_concurrent_queries_coalesce_into_batches(self, model_dir):
        with ServingEngine(
            model_dir, max_batch_size=16, max_wait_ms=20.0, cache_size=0
        ) as engine:
            results = [None] * 16
            rng = np.random.default_rng(3)
            configs = rng.uniform(1.0, 8.0, size=(16, 4))

            def worker(i):
                results[i] = engine.predict_one("paper", configs[i])

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r is not None and r.shape == (5,) for r in results)
            assert engine.metrics.mean_batch_occupancy > 1.0
