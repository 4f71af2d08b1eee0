"""The lifecycle subsystem: capture, drift, versioned store, orchestrator.

Includes the end-to-end acceptance path: serve → shift the workload
distribution → drift trips → gated retrain → hot-reload promotion →
rollback, deterministic under fixed seeds and free of wall-clock sleeps.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.lifecycle import (
    DriftDetector,
    DriftThresholds,
    GateThresholds,
    LifecycleOrchestrator,
    Observation,
    ObservationLog,
    VersionedModelStore,
    config_drift_scores,
    residual_errors,
    serving_tap,
)
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import load_model, save_model
from repro.serving import ModelRegistry, PredictionCache, ServingEngine
from repro.serving.metrics import ServingMetrics


def truth(x, scale=1.0):
    """Deterministic synthetic ground truth: 4 configs -> 5 indicators."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )
    return scale * y


def fit_baseline(seed=0):
    """A model fitted on the in-distribution window (configs in [1, 8])."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 8.0, size=(48, 4))
    model = NeuralWorkloadModel(
        hidden=(10,), error_threshold=0.005, max_epochs=4000, seed=seed
    )
    return model.fit(x, truth(x)), x


@pytest.fixture(scope="module")
def baseline():
    return fit_baseline()


@pytest.fixture()
def registry_dir(baseline, tmp_path):
    model, _ = baseline
    registry = tmp_path / "registry"
    registry.mkdir()
    save_model(model, registry / "paper.json")
    return registry


def record_window(log, model, rng, n, low, high, scale=1.0, name="paper"):
    """Paired (config, prediction, measurement) driver traffic."""
    configs = rng.uniform(low, high, size=(n, 4))
    predicted = model.predict(configs)
    measured = truth(configs, scale=scale)
    log.record_batch(
        name, configs, predicted=predicted, measured=measured, source="driver"
    )
    return configs


class TestObservationLog:
    def test_record_and_snapshot_roundtrip(self):
        log = ObservationLog(capacity=8)
        assert log.record("m", [1, 2, 3, 4], measured=[1, 2, 3, 4, 5])
        (obs,) = log.snapshot("m")
        assert obs.config == (1.0, 2.0, 3.0, 4.0)
        assert obs.measured == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert obs.predicted is None and not obs.is_paired
        assert obs.seq == 1

    def test_ring_buffer_drops_oldest(self):
        log = ObservationLog(capacity=3)
        for i in range(5):
            log.record("m", [float(i)] * 4)
        assert len(log) == 3
        assert log.observations_total == 5
        assert [o.config[0] for o in log.snapshot()] == [2.0, 3.0, 4.0]

    def test_sampling_rate_zero_drops_everything(self):
        log = ObservationLog(sampling_rate=0.0)
        assert not log.record("m", [1, 2, 3, 4])
        assert len(log) == 0 and log.sampled_out_total == 1

    def test_sampling_is_deterministic_under_seed(self):
        def kept(seed):
            log = ObservationLog(sampling_rate=0.5, seed=seed)
            return [log.record("m", [i, 0, 0, 0]) for i in range(50)]

        assert kept(3) == kept(3)
        count = sum(kept(3))
        assert 10 < count < 40  # roughly half, never all or none

    def test_paired_and_training_data_filters(self):
        log = ObservationLog()
        log.record("m", [1, 1, 1, 1])  # config only
        log.record("m", [2, 2, 2, 2], predicted=[1] * 5)  # serving tap
        log.record("m", [3, 3, 3, 3], measured=[2] * 5)  # driver only
        log.record("m", [4, 4, 4, 4], predicted=[1] * 5, measured=[2] * 5)
        log.record("other", [9, 9, 9, 9], predicted=[1] * 5, measured=[2] * 5)
        assert log.configs("m").shape == (4, 4)
        configs, predicted, measured = log.paired("m")
        assert configs.shape == (1, 4)
        assert predicted.shape == measured.shape == (1, 5)
        x, y = log.training_data("m")
        assert x.shape == (2, 4) and y.shape == (2, 5)

    def test_journal_and_replay(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with ObservationLog(journal_dir=journal_dir) as log:
            log.record("m", [1, 2, 3, 4], measured=[5] * 5, source="driver")
            log.record("m", [5, 6, 7, 8])
        with ObservationLog.replay_journal(journal_dir) as replayed:
            assert replayed.observations_total == 2
            assert replayed.snapshot("m")[0].measured == (5.0,) * 5
            # Replay continues the sequence rather than reusing it, and
            # (resume) keeps journaling to the same directory.
            replayed.record("m", [9, 9, 9, 9])
            assert replayed.snapshot()[-1].seq == 3
        final = ObservationLog.replay_journal(journal_dir, resume=False)
        assert [obs.seq for obs in final.snapshot()] == [1, 2, 3]

    def test_observation_json_roundtrip(self):
        obs = Observation(
            model="m",
            config=(1.0, 2.0),
            predicted=None,
            measured=(3.0,),
            source="driver",
            seq=7,
        )
        assert Observation.from_json(obs.to_json()) == obs

    def test_concurrent_recording_is_lossless(self):
        log = ObservationLog(capacity=4096)

        def worker(k):
            for i in range(100):
                log.record("m", [k, i, 0, 0])

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.observations_total == 800
        assert len({o.seq for o in log.snapshot()}) == 800

    def test_metrics_counter_mirrors_accepts(self):
        metrics = ServingMetrics()
        log = ObservationLog(sampling_rate=0.0, metrics=metrics)
        log.record("m", [1, 2, 3, 4])
        assert metrics.counters["observations_total"] == 0
        log = ObservationLog(metrics=metrics)
        log.record("m", [1, 2, 3, 4])
        assert metrics.counters["observations_total"] == 1

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ObservationLog(capacity=0)
        with pytest.raises(ValueError):
            ObservationLog(sampling_rate=1.5)


class TestDrift:
    def test_in_distribution_scores_near_zero(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(3.0, 2.0, size=(2000, 4))
        mean, scale = reference.mean(axis=0), reference.std(axis=0)
        live = rng.normal(3.0, 2.0, size=(500, 4))
        assert config_drift_scores(live, mean, scale).max() < 0.2

    def test_shifted_mean_scores_high(self):
        mean, scale = np.zeros(4), np.ones(4)
        live = np.random.default_rng(0).normal(2.0, 1.0, size=(200, 4))
        scores = config_drift_scores(live, mean, scale)
        assert scores.min() > 1.5

    def test_residual_errors_skip_vanishing_indicators(self):
        predicted = np.column_stack([np.full(10, 2.0), np.full(10, 0.5)])
        measured = np.column_stack([np.full(10, 1.0), np.full(10, 1e-12)])
        errors = residual_errors(predicted, measured)
        assert errors[0] == pytest.approx(1.0)
        assert np.isnan(errors[1])  # saturated column renders no verdict

    def test_detector_insufficient_observations(self, baseline):
        model, _ = baseline
        log = ObservationLog()
        log.record("paper", [1, 2, 3, 4])
        report = DriftDetector().check(log, "paper", model)
        assert report.insufficient and not report.drifted
        assert "insufficient" in report.reasons[0]

    def test_detector_quiet_on_in_distribution_traffic(self, baseline):
        model, _ = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 40, 1.0, 8.0)
        report = DriftDetector().check(log, "paper", model)
        assert not report.drifted
        assert report.config_score is not None

    def test_detector_trips_on_config_shift(self, baseline):
        model, _ = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 40, 6.0, 13.0)
        report = DriftDetector().check(log, "paper", model)
        assert report.drifted
        assert any("configuration drift" in r for r in report.reasons)

    def test_detector_trips_on_residual_shift(self, baseline):
        model, _ = baseline
        log = ObservationLog()
        # Same configuration window, but the system now behaves differently.
        record_window(
            log, model, np.random.default_rng(1), 40, 1.0, 8.0, scale=1.4
        )
        report = DriftDetector(
            DriftThresholds(config_score=50.0)  # isolate the residual signal
        ).check(log, "paper", model)
        assert report.drifted
        assert any("residual drift" in r for r in report.reasons)
        assert report.residual_overall > 0.1
        assert report.to_dict()["drifted"]

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            DriftThresholds(config_score=0.0)
        with pytest.raises(ValueError):
            DriftThresholds(min_observations=0)


class TestVersionedModelStore:
    def test_save_load_roundtrip_and_numbering(self, baseline, tmp_path):
        model, x = baseline
        store = VersionedModelStore(tmp_path / "store")
        assert store.latest_version("paper") is None
        v1 = store.save_version("paper", model, {"note": "first"})
        v2 = store.save_version("paper", model)
        assert (v1, v2) == (1, 2)
        loaded = store.load_version("paper", 1)
        np.testing.assert_allclose(loaded.predict(x[:3]), model.predict(x[:3]))
        assert store.list_versions("paper")[0]["metadata"] == {"note": "first"}

    def test_promote_deploys_with_strictly_newer_mtime(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        store = VersionedModelStore(tmp_path / "store")
        version = store.save_version("paper", model)
        target = registry_dir / "paper.json"
        before = os.stat(target).st_mtime_ns
        store.promote("paper", version, registry_dir)
        assert os.stat(target).st_mtime_ns > before
        assert store.promoted_version("paper") == version

    def test_rollback_toggles_between_versions(
        self, baseline, registry_dir, tmp_path
    ):
        model, x = baseline
        other, _ = fit_baseline(seed=5)
        store = VersionedModelStore(tmp_path / "store")
        store.save_version("paper", model)
        store.save_version("paper", other)
        store.promote("paper", 1, registry_dir)
        store.promote("paper", 2, registry_dir)
        assert store.rollback("paper", registry_dir) == 1
        np.testing.assert_allclose(
            load_model(registry_dir / "paper.json").predict(x[:2]),
            model.predict(x[:2]),
        )
        # Rolling "forward" again is one more rollback.
        assert store.rollback("paper", registry_dir) == 2

    def test_rollback_without_history_raises(self, registry_dir, tmp_path):
        store = VersionedModelStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="no previous version"):
            store.rollback("paper", registry_dir)

    def test_retention_prunes_but_pins_promoted(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        store = VersionedModelStore(tmp_path / "store", retention=2)
        store.save_version("paper", model)
        store.promote("paper", 1, registry_dir)
        for _ in range(4):
            store.save_version("paper", model)
        versions = [v["version"] for v in store.list_versions("paper")]
        assert 1 in versions  # promoted survives retention
        assert versions[-2:] == [4, 5]
        assert not (tmp_path / "store" / "paper" / "v0002.json").exists()

    def test_adopt_brings_deployment_under_management(
        self, baseline, registry_dir, tmp_path
    ):
        model, x = baseline
        store = VersionedModelStore(tmp_path / "store")
        version = store.adopt("paper", registry_dir / "paper.json")
        assert version == 1
        assert store.promoted_version("paper") == 1
        np.testing.assert_allclose(
            store.load_version("paper", 1).predict(x[:2]),
            model.predict(x[:2]),
        )

    def test_invalid_names_rejected(self, tmp_path):
        store = VersionedModelStore(tmp_path / "store")
        for name in ("", "../x", "a/b", ".hidden"):
            with pytest.raises(KeyError):
                store.save_version(
                    name, NeuralWorkloadModel(hidden=(4,), max_epochs=1)
                )
        with pytest.raises(ValueError):
            VersionedModelStore(tmp_path / "s2", retention=1)


class TestWarmStart:
    def test_warm_retrain_reaches_threshold_in_fewer_epochs(self, baseline):
        base, _ = baseline
        rng = np.random.default_rng(10)
        x = rng.uniform(2.0, 9.0, size=(48, 4))
        y = truth(x, scale=1.15)

        def clone():
            return NeuralWorkloadModel(
                hidden=(10,), error_threshold=0.005, max_epochs=4000, seed=1
            )

        warm = clone().fit(x, y, warm_start_from=base)
        cold = clone().fit(x, y)
        assert warm.total_epochs_ < cold.total_epochs_

    def test_warm_start_requires_fitted_source(self):
        source = NeuralWorkloadModel(hidden=(10,))
        target = NeuralWorkloadModel(hidden=(10,), max_epochs=5)
        x = np.random.default_rng(0).uniform(1, 8, size=(20, 4))
        with pytest.raises(ValueError, match="not fitted"):
            target.fit(x, truth(x), warm_start_from=source)

    def test_warm_start_requires_identical_architecture(self, baseline):
        base, _ = baseline
        target = NeuralWorkloadModel(hidden=(6,), max_epochs=5)
        x = np.random.default_rng(0).uniform(1, 8, size=(20, 4))
        with pytest.raises(ValueError, match="identical architecture"):
            target.fit(x, truth(x), warm_start_from=base)

    def test_trainer_rejects_mismatched_initial_params(self):
        from repro.nn.mlp import MLP
        from repro.nn.training import Trainer

        trainer = Trainer(MLP([4, 8, 5], seed=0))
        x = np.zeros((4, 4))
        y = np.zeros((4, 5))
        with pytest.raises(ValueError, match="initial_params"):
            trainer.fit(x, y, max_epochs=1, initial_params=np.zeros(3))


class TestCacheInvalidation:
    def test_other_models_survive_invalidation(self):
        cache = PredictionCache(max_entries=64)
        for i in range(10):
            cache.put(cache.key("a", [i, 0, 0, 0]), np.full(5, float(i)))
            cache.put(cache.key("b", [i, 0, 0, 0]), np.full(5, float(-i)))
        assert cache.invalidate_model("a") == 10
        assert len(cache) == 10
        for i in range(10):
            assert cache.get(cache.key("a", [i, 0, 0, 0])) is None
            np.testing.assert_array_equal(
                cache.get(cache.key("b", [i, 0, 0, 0])), np.full(5, float(-i))
            )

    def test_index_tracks_lru_evictions(self):
        cache = PredictionCache(max_entries=4)
        for i in range(8):  # first four entries get LRU-evicted
            cache.put(cache.key("m", [i, 0, 0, 0]), np.zeros(5))
        assert cache.invalidate_model("m") == 4
        assert len(cache) == 0
        assert cache.invalidate_model("m") == 0

    def test_clear_resets_index(self):
        cache = PredictionCache()
        cache.put(cache.key("m", [1, 2, 3, 4]), np.zeros(5))
        cache.clear()
        assert cache.invalidate_model("m") == 0


class TestRegistryConcurrency:
    def test_reload_racing_evict_stays_consistent(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        errors = []

        def hammer(op):
            try:
                for _ in range(50):
                    op("paper")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(op,))
            for op in (registry.reload, registry.evict, registry.get)
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert registry.get("paper") is not None

    def test_parallel_loads_keep_newer_mtime(self, registry_dir, baseline):
        """A slow stale load must not clobber a newer artifact's entry."""
        model, x = baseline
        registry = ModelRegistry(registry_dir)
        path = registry_dir / "paper.json"
        old_mtime = os.stat(path).st_mtime_ns

        stale_load_started = threading.Event()
        release_stale_load = threading.Event()
        original_load = registry._load

        def gated_load(name, artifact_path, mtime_ns):
            entry = original_load(name, artifact_path, mtime_ns)
            if mtime_ns == old_mtime:
                stale_load_started.set()
                assert release_stale_load.wait(10.0)
            return entry

        registry._load = gated_load
        result = {}

        def stale_reader():
            result["entry"] = registry.get_entry("paper")

        thread = threading.Thread(target=stale_reader)
        thread.start()
        assert stale_load_started.wait(10.0)

        # While the stale load is stuck, deploy and load a newer artifact.
        retrained, _ = fit_baseline(seed=5)
        save_model(retrained, path)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, old_mtime + 1_000_000_000))
        new_entry = registry.get_entry("paper")
        assert new_entry.mtime_ns > old_mtime

        release_stale_load.set()
        thread.join(10.0)
        assert not thread.is_alive()
        # The stale loader observed the merge and returned the newer entry.
        assert result["entry"].mtime_ns == new_entry.mtime_ns
        np.testing.assert_allclose(
            registry.get("paper").predict(x[:2]), retrained.predict(x[:2])
        )


class TestOrchestrator:
    def make(self, registry_dir, tmp_path, log, **kwargs):
        return LifecycleOrchestrator(
            registry_dir,
            VersionedModelStore(tmp_path / "store"),
            log,
            seed=2,
            **kwargs,
        )

    def test_quiet_traffic_skips_retraining(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 40, 1.0, 8.0)
        orch = self.make(registry_dir, tmp_path, log)
        report = orch.run_cycle("paper")
        assert not report.drift.drifted and not report.retrained
        assert report.version is None and not report.promoted

    def test_gate_rejection_archives_but_never_promotes(
        self, baseline, registry_dir, tmp_path
    ):
        model, x = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 60, 1.0, 8.0)
        orch = self.make(
            registry_dir,
            tmp_path,
            log,
            gate=GateThresholds(max_error=1e-9),  # unpassable
        )
        before = load_model(registry_dir / "paper.json").predict(x[:2])
        report = orch.run_cycle("paper", force=True)
        assert report.retrained and not report.gate.passed
        assert not report.promoted
        stored = orch.store.list_versions("paper")
        assert stored[-1]["metadata"]["status"] == "rejected"
        # Baseline was adopted, candidate archived, deployment untouched.
        assert orch.store.promoted_version("paper") == 1
        np.testing.assert_array_equal(
            load_model(registry_dir / "paper.json").predict(x[:2]), before
        )

    def test_status_payload_is_json_serializable(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 40, 1.0, 8.0)
        metrics = ServingMetrics()
        orch = self.make(registry_dir, tmp_path, log, metrics=metrics)
        orch.check_drift("paper")
        payload = json.loads(json.dumps(orch.status()))
        assert payload["models"]["paper"]["last_drift"] is not None
        assert payload["observations"]["total"] == 40
        assert payload["counters"]["retrains_total"] == 0

    def test_kfold_cycle_reports_cv_error(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        log = ObservationLog()
        record_window(log, model, np.random.default_rng(1), 60, 1.0, 8.0)
        orch = self.make(registry_dir, tmp_path, log, kfold=3)
        report = orch.run_cycle("paper", force=True, promote=False)
        assert report.retrained
        assert report.cv_error is not None and report.cv_error >= 0.0


READ_ONLY_COMMANDS = ["check-drift", "retrain", "status"]


class TestCLI:
    @pytest.fixture()
    def analytic_deployment(self, tmp_path):
        """A registry artifact trained on the analytic backend's window."""
        from repro.workload.analytic import AnalyticWorkloadModel
        from repro.workload.service import WorkloadConfig

        rng = np.random.default_rng(7)
        backend = AnalyticWorkloadModel()
        xs, ys = [], []
        for _ in range(64):
            config = WorkloadConfig(
                injection_rate=float(rng.uniform(150, 400)),
                default_threads=int(rng.integers(12, 28)),
                mfg_threads=int(rng.integers(12, 28)),
                web_threads=int(rng.integers(12, 28)),
            )
            xs.append(config.as_vector())
            ys.append(backend.evaluate_vector(config))
        model = NeuralWorkloadModel(
            hidden=(12,), error_threshold=0.002, max_epochs=8000, seed=7
        )
        model.fit(np.array(xs), np.array(ys))
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(model, registry / "paper.json")
        return registry

    def test_record_drift_retrain_rollback_loop(
        self, analytic_deployment, tmp_path, capsys
    ):
        from repro.lifecycle.cli import main

        registry = str(analytic_deployment)
        store = str(tmp_path / "store")
        journal = str(tmp_path / "journal")

        def run(*argv):
            code = main(list(argv))
            return code, json.loads(capsys.readouterr().out)

        code, out = run(
            "record", "--models-dir", registry, "--journal-dir", journal,
            "--samples", "96", "--seed", "1",
            "--rate-min", "150", "--rate-max", "400", "--rate-shift", "150",
            "--threads-min", "12", "--threads-max", "27",
            "--indicator-scale", "1.2",
        )
        assert code == 0 and out["recorded"] == 96
        assert out["journal_dir"] == journal

        code, out = run(
            "check-drift", "--models-dir", registry, "--journal-dir", journal
        )
        assert code == 0 and out["drifted"]
        assert out["n_observations"] == 96

        code, out = run(
            "retrain", "--models-dir", registry, "--store-dir", store,
            "--journal-dir", journal, "--seed", "3", "--promote",
        )
        assert code == 0
        assert out["retrained"] and out["gate"]["passed"] and out["promoted"]
        assert out["version"] == 2  # v1 = adopted pre-existing deployment

        code, out = run(
            "rollback", "--models-dir", registry, "--store-dir", store
        )
        assert code == 0 and out["restored_version"] == 1

        code, out = run(
            "status", "--models-dir", registry, "--store-dir", store,
            "--journal-dir", journal,
        )
        assert code == 0
        assert out["models"]["paper"]["promoted_version"] == 1
        assert out["models"]["paper"]["previous_version"] == 2

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "registry").mkdir()
        code = main(
            [
                "lifecycle", "rollback",
                "--models-dir", str(tmp_path / "registry"),
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 1
        assert "no previous version" in capsys.readouterr().err

    def test_record_validates_arguments_before_writing(
        self, registry_dir, tmp_path, capsys
    ):
        from repro.cli import main

        journal = tmp_path / "journal"
        code = main(
            [
                "lifecycle", "record", "--models-dir", str(registry_dir),
                "--journal-dir", str(journal),
                "--threads-min", "20", "--threads-max", "10",
            ]
        )
        assert code == 1
        assert "--threads-min 20" in capsys.readouterr().err
        assert not journal.exists()

    @pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
    def test_read_only_commands_require_existing_journal_dir(
        self, command, registry_dir, tmp_path, capsys
    ):
        from repro.cli import main

        missing = tmp_path / "no-such-journal"
        code = main(
            [
                "lifecycle", command, "--models-dir", str(registry_dir),
                "--journal-dir", str(missing),
                *self._store_args(command, tmp_path),
            ]
        )
        assert code == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
    def test_read_only_commands_leave_torn_tail_byte_identical(
        self, command, registry_dir, tmp_path, capsys
    ):
        from repro.lifecycle.cli import main

        journal = tmp_path / "journal"
        rng = np.random.default_rng(5)
        with ObservationLog(journal_dir=journal, journal_sync="flush") as log:
            for row in rng.uniform(1.0, 8.0, size=(6, 4)):
                log.record("paper", row, measured=truth(row)[0])
        (segment,) = journal.glob("seg-*.wal")
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size - 7)
        torn = segment.read_bytes()
        code = main(
            [
                command, "--models-dir", str(registry_dir),
                "--journal-dir", str(journal),
                *self._store_args(command, tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert segment.read_bytes() == torn
        assert list(journal.iterdir()) == [segment]

    @staticmethod
    def _store_args(command, tmp_path):
        if command == "check-drift":
            return []
        return ["--store-dir", str(tmp_path / "store")]

    def test_served_traffic_reaches_check_drift(
        self, registry_dir, tmp_path, capsys
    ):
        """What ``repro serve --journal-dir`` journals, the CLI reads."""
        from repro.lifecycle.cli import main

        journal = tmp_path / "journal"
        n = 30
        rng = np.random.default_rng(2)
        log = ObservationLog(journal_dir=journal)
        with ServingEngine(
            registry_dir, batching=False, observer=serving_tap(log)
        ) as engine:
            for row in rng.uniform(1.0, 8.0, size=(n, 4)):
                engine.predict_one("paper", row)
            log.flush()
            code = main(
                [
                    "check-drift", "--models-dir", str(registry_dir),
                    "--journal-dir", str(journal),
                ]
            )
        log.close()
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["n_observations"] == n


class TestEndToEndLifecycle:
    def test_serve_drift_retrain_promote_rollback(
        self, baseline, registry_dir, tmp_path
    ):
        model, _ = baseline
        probe = [[6.0, 6.0, 6.0, 6.0]]
        log = ObservationLog(seed=0)
        with ServingEngine(
            registry_dir, batching=False, observer=serving_tap(log)
        ) as engine:
            metrics = engine.metrics
            orch = LifecycleOrchestrator(
                registry_dir,
                VersionedModelStore(tmp_path / "store"),
                log,
                gate=GateThresholds(max_error=0.15),
                metrics=metrics,
                seed=2,
            )

            # Phase 1 — in-distribution traffic: serve, measure, no drift.
            rng = np.random.default_rng(1)
            configs = rng.uniform(1.0, 8.0, size=(30, 4))
            for row in configs:
                predicted = engine.predict_one("paper", row)
                log.record(
                    "paper",
                    row,
                    predicted=predicted,
                    measured=truth(row)[0],
                    source="driver",
                )
            # The log is not wired to the metrics.
            assert metrics.counters["observations_total"] == 0
            quiet = orch.run_cycle("paper")
            assert not quiet.drift.drifted and not quiet.retrained

            baseline_probe = engine.predict_one("paper", probe[0])

            # Phase 2 — the workload walks away: new configuration window
            # and the system responds differently (ground truth rescaled).
            log.clear()
            shifted = rng.uniform(5.0, 12.0, size=(48, 4))
            for row in shifted:
                predicted = engine.predict_one("paper", row)
                log.record(
                    "paper",
                    row,
                    predicted=predicted,
                    measured=truth(row, scale=1.3)[0],
                    source="driver",
                )

            # Phase 3 — drift trips both signals and the cycle promotes.
            report = orch.run_cycle("paper")
            assert report.drift.drifted
            assert report.retrained and report.gate.passed
            assert report.version == 2  # v1 = adopted baseline
            assert report.promoted
            assert metrics.counters["retrains_total"] == 1
            assert metrics.counters["promotions_total"] == 1
            assert metrics.gauge("drift_score")["paper"] > 0.5

            # Phase 4 — the hot-reload registry serves the new version.
            candidate = orch.store.load_version("paper", 2)
            np.testing.assert_allclose(
                engine.predict_one("paper", probe[0]),
                candidate.predict(probe)[0],
                rtol=1e-10,
            )
            assert not np.allclose(
                engine.predict_one("paper", probe[0]), baseline_probe
            )

            # Phase 5 — rollback restores the prior artifact in one call.
            assert orch.rollback("paper") == 1
            assert metrics.counters["rollbacks_total"] == 1
            np.testing.assert_allclose(
                engine.predict_one("paper", probe[0]),
                baseline_probe,
                rtol=1e-10,
            )
        assert "repro_serving_retrains_total 1" in metrics.to_prometheus()
