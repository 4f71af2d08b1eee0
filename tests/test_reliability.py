"""The reliability layer: retries, breakers, deadlines, faults, degradation.

Includes the chaos acceptance test: under an injected ``FaultPlan`` that
corrupts the active artifact and spikes micro-batcher latency, the HTTP
server keeps answering ``/predict`` (2xx, ``"degraded": true``) from the
linear surrogate, ``/healthz`` reports ``degraded``, and full recovery
(breaker half-open → closed) happens once the faults clear.  Everything is
deterministic — fake clocks for breaker timing, recorded sleeps for
backoff — and no injected latency exceeds 0.5 s.
"""

import json
import math
import os
import threading
import time

import numpy as np
import pytest

from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import load_model, save_model
from repro.nn.mlp import MLP
from repro.nn.optimizers import get_optimizer
from repro.nn.training import Trainer, TrainingDivergedError
from repro.reliability import (
    CLOSED,
    DEGRADED,
    HALF_OPEN,
    HEALTHY,
    OPEN,
    SITE_BATCHER_FLUSH,
    SITE_DRIVER_INJECT,
    SITE_REGISTRY_STAT,
    UNHEALTHY,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    HealthMonitor,
    InjectedFault,
    OverloadedError,
    RetryPolicy,
    fit_linear_surrogate,
)
from repro.serving import (
    BatcherClosedError,
    MicroBatcher,
    ModelRegistry,
    ServingClient,
    ServingEngine,
    ServingError,
)
from repro.serving.server import create_server
from repro.workload.service import INPUT_NAMES, ThreeTierWorkload, WorkloadConfig


class FakeClock:
    """A hand-cranked monotonic clock for deterministic breaker timing."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


def fit_tiny_model(seed=0):
    """A fast-fitting 4-in/5-out workload model plus its training inputs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 8.0, size=(40, 4))
    y = np.column_stack(
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


def bump_mtime(path, seconds=2):
    """Force a visibly newer mtime regardless of filesystem granularity."""
    stat = os.stat(path)
    os.utime(
        path, ns=(stat.st_atime_ns, stat.st_mtime_ns + seconds * 1_000_000_000)
    )


@pytest.fixture(scope="module")
def tiny_model():
    return fit_tiny_model()


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        clock.advance(0.5)
        assert deadline.expired

    def test_check_raises_once_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.1, clock=clock)
        deadline.check("thing")
        clock.advance(0.2)
        with pytest.raises(DeadlineExceeded, match="thing"):
            deadline.check("thing")

    def test_clamp_bounds_timeouts(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(0.5)
        assert deadline.clamp(0.2) == pytest.approx(0.2)
        assert deadline.clamp() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.clamp(10.0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Deadline(-1.0)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_jitter_bounds_all_sleeps_within_base_cap(self):
        policy = RetryPolicy(
            max_attempts=8, base=0.05, cap=0.4, seed=1234, sleep=lambda s: None
        )
        for _ in range(50):
            delays = list(policy.delays())
            assert len(delays) == 7
            for delay in delays:
                assert 0.05 <= delay <= 0.4

    def test_monotone_attempt_count_and_final_raise(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=4, base=0.01, cap=0.05, seed=0, sleep=sleeps.append
        )
        attempts = []

        def always_fails():
            attempts.append(len(attempts) + 1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.call(always_fails)
        assert attempts == [1, 2, 3, 4]
        assert len(sleeps) == 3
        assert all(0.01 <= s <= 0.05 for s in sleeps)

    def test_succeeds_mid_sequence(self):
        policy = RetryPolicy(max_attempts=5, base=0.0, cap=0.0, sleep=lambda s: None)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert calls["n"] == 3

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(
            max_attempts=5, retry_on=ConnectionError, sleep=lambda s: None
        )
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.call(boom)
        assert calls["n"] == 1

    def test_retry_after_hint_raises_delay_capped(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=2, base=0.01, cap=0.3, seed=0, sleep=sleeps.append
        )

        class Hinted(RuntimeError):
            retry_after = 0.2

        with pytest.raises(Hinted):
            policy.call(lambda: (_ for _ in ()).throw(Hinted()))
        assert len(sleeps) == 1
        assert 0.2 <= sleeps[0] <= 0.3

    def test_deadline_stops_retrying_without_sleeping(self):
        clock = FakeClock()
        deadline = Deadline(0.005, clock=clock)
        sleeps = []
        policy = RetryPolicy(
            max_attempts=5, base=0.05, cap=0.1, seed=0, sleep=sleeps.append
        )
        calls = {"n": 0}

        def fails():
            calls["n"] += 1
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.call(fails, deadline=deadline)
        assert calls["n"] == 1  # first backoff would outlive the budget
        assert sleeps == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base"):
            RetryPolicy(base=0.5, cap=0.1)


# ----------------------------------------------------------------------
# CircuitBreaker — the full state-transition table
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        events = []
        defaults = dict(
            window=4,
            failure_threshold=0.5,
            min_samples=4,
            reset_timeout=1.0,
            clock=clock,
            on_state_change=lambda old, new: events.append((old, new)),
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), events

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make(FakeClock())
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_stays_closed_below_volume_floor(self):
        breaker, events = self.make(FakeClock())
        for _ in range(3):  # min_samples=4: three failures are not enough
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert events == []

    def test_trips_open_at_failure_rate(self):
        breaker, events = self.make(FakeClock())
        for outcome in (True, False, True, False):
            (breaker.record_success if outcome else breaker.record_failure)()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(1.0)
        assert events == [(CLOSED, OPEN)]

    def test_open_half_opens_after_reset_timeout(self):
        clock = FakeClock()
        breaker, events = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # reserves the single probe
        assert not breaker.allow()  # probe budget spent
        assert events == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]

    def test_half_open_probe_success_closes_and_clears_window(self):
        clock = FakeClock()
        breaker, events = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0
        assert events[-1] == (HALF_OPEN, CLOSED)

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker, events = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(1.0)
        assert events == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, OPEN),
        ]

    def test_multiple_probes_required_when_configured(self):
        clock = FakeClock()
        breaker, _ = self.make(clock, half_open_probes=2)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one success is not enough
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_cancel_returns_probe_slot(self):
        clock = FakeClock()
        breaker, _ = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.cancel()
        assert breaker.allow()  # slot was returned

    def test_call_wrapper_guards_and_records(self):
        clock = FakeClock()
        breaker, _ = self.make(clock)
        for _ in range(4):
            with pytest.raises(RuntimeError, match="down"):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("down")))
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "unreachable")
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.1)
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED

    def test_reset_forces_closed(self):
        breaker, _ = self.make(FakeClock())
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_after_and_count_slice_hits_deterministically(self):
        sleeps = []
        plan = FaultPlan(sleep=sleeps.append)
        plan.add("site", "latency", after=1, count=2, latency_s=0.01)
        for _ in range(5):
            plan.fire("site")
        assert sleeps == [0.01, 0.01]  # hits 1 and 2 only
        assert plan.hits("site") == 5

    def test_error_rule_raises_injected_fault(self):
        plan = FaultPlan()
        plan.add("x", "error", message="kaboom")
        with pytest.raises(InjectedFault, match="kaboom") as excinfo:
            plan.fire("x")
        assert excinfo.value.site == "x"

    def test_disabled_plan_is_inert_but_counts_hits(self):
        plan = FaultPlan()
        plan.add("x", "error")
        plan.enabled = False
        plan.fire("x")
        assert plan.hits("x") == 1

    def test_clear_disarms_rules(self):
        plan = FaultPlan()
        plan.add("x", "error")
        plan.clear()
        plan.fire("x")  # no raise

    def test_probability_stream_is_seeded(self):
        def outcomes(seed):
            plan = FaultPlan(seed=seed)
            plan.add("x", "error", probability=0.5)
            fired = []
            for _ in range(20):
                try:
                    plan.fire("x")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_corrupt_artifact_truncates_and_bumps_mtime(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text(json.dumps({"a": list(range(50))}))
        before = os.stat(target).st_mtime_ns
        plan = FaultPlan()
        plan.add(SITE_REGISTRY_STAT, "corrupt_artifact", count=1)
        plan.fire(SITE_REGISTRY_STAT, path=target)
        with pytest.raises(json.JSONDecodeError):
            json.loads(target.read_text())
        assert os.stat(target).st_mtime_ns > before

    def test_clock_skew_shifts_mtime_only(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("{}")
        before = os.stat(target).st_mtime_ns
        plan = FaultPlan()
        plan.add("s", "clock_skew", skew_s=100.0, count=1)
        plan.fire("s", path=target)
        assert target.read_text() == "{}"
        assert os.stat(target).st_mtime_ns == before + 100 * 1_000_000_000

    def test_file_fault_without_path_is_an_error(self):
        plan = FaultPlan()
        plan.add("s", "corrupt_artifact")
        with pytest.raises(ValueError, match="path"):
            plan.fire("s")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(site="s", kind="meteor_strike")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="s", kind="latency", probability=1.5)

    def test_hook_fires_site(self):
        plan = FaultPlan()
        hook = plan.hook("driver.inject")
        hook()
        assert plan.hits("driver.inject") == 1


# ----------------------------------------------------------------------
# Satellite: atomic save_model
# ----------------------------------------------------------------------


class TestAtomicSave:
    def test_no_temp_files_left_behind(self, tiny_model, tmp_path):
        model, _ = tiny_model
        save_model(model, tmp_path / "m.json")
        # The artifact plus its sha256 sidecar — nothing else (no .tmp).
        leftovers = [
            p
            for p in tmp_path.iterdir()
            if p.name not in ("m.json", "m.json.sha256")
        ]
        assert leftovers == []

    def test_failed_save_cleans_up_and_keeps_old_artifact(
        self, tiny_model, tmp_path
    ):
        model, _ = tiny_model
        path = tmp_path / "m.json"
        save_model(model, path)
        good = path.read_text()
        with pytest.raises(ValueError, match="fitted"):
            save_model(NeuralWorkloadModel(), path)  # unfitted → refuses
        assert path.read_text() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json",
            "m.json.sha256",
        ]

    def test_concurrent_saves_never_expose_truncated_artifact(
        self, tiny_model, tmp_path
    ):
        """The regression: save + hot-reload get() must never see torn JSON."""
        model, x = tiny_model
        path = tmp_path / "m.json"
        save_model(model, path)
        registry = ModelRegistry(tmp_path)
        stop = threading.Event()
        writer_error = []

        def writer():
            while not stop.is_set():
                try:
                    save_model(model, path)
                    bump_mtime(path, seconds=1)
                except Exception as exc:  # noqa: BLE001 - reported below
                    writer_error.append(exc)
                    return

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 1.5
            reads = 0
            while time.monotonic() < deadline:
                entry = registry.get_entry("m")  # raises on a torn artifact
                assert entry.model.predict(x[:1]).shape == (1, 5)
                reads += 1
        finally:
            stop.set()
            thread.join(5.0)
        assert not writer_error
        assert reads > 0
        load_model(path)  # final artifact is whole


# ----------------------------------------------------------------------
# Satellite: MicroBatcher close semantics
# ----------------------------------------------------------------------


class TestBatcherClose:
    def test_queued_futures_fail_fast_instead_of_blocking(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_predict(batch):
            entered.set()
            release.wait(2.0)
            return np.zeros((batch.shape[0], 5))

        mb = MicroBatcher(slow_predict, max_batch_size=1, max_wait_ms=0.0)
        first = mb.submit([1.0, 2.0, 3.0, 4.0])
        assert entered.wait(2.0)  # worker is inside predict_fn with batch=[first]
        queued = [mb.submit([float(i), 0.0, 0.0, 0.0]) for i in range(3)]
        started = time.monotonic()
        mb.close(timeout=0.05)  # worker is wedged; close must still drain
        for future in queued:
            with pytest.raises(BatcherClosedError):
                future.result(timeout=0.2)
        assert time.monotonic() - started < 1.0  # failed fast, no 2 s waits
        release.set()
        assert first.result(timeout=2.0).shape == (5,)  # in-flight batch completes

    def test_submit_after_close_raises_batcher_closed(self):
        mb = MicroBatcher(lambda b: np.zeros((b.shape[0], 5)))
        mb.close()
        with pytest.raises(BatcherClosedError, match="closed"):
            mb.submit([1.0, 2.0, 3.0, 4.0])

    def test_close_is_idempotent(self):
        mb = MicroBatcher(lambda b: np.zeros((b.shape[0], 5)))
        mb.close()
        mb.close()

    def test_latency_fault_at_flush_site(self):
        sleeps = []
        plan = FaultPlan(sleep=sleeps.append)
        plan.add(SITE_BATCHER_FLUSH, "latency", latency_s=0.05, count=1)
        with MicroBatcher(
            lambda b: np.zeros((b.shape[0], 5)), max_wait_ms=0.5, faults=plan
        ) as mb:
            mb.predict([1.0, 2.0, 3.0, 4.0], timeout=2.0)
        assert sleeps == [0.05]

    def test_error_fault_at_flush_site_fails_the_batch(self):
        plan = FaultPlan()
        plan.add(SITE_BATCHER_FLUSH, "error", count=1)
        with MicroBatcher(
            lambda b: np.zeros((b.shape[0], 5)), max_wait_ms=0.5, faults=plan
        ) as mb:
            with pytest.raises(InjectedFault):
                mb.predict([1.0, 2.0, 3.0, 4.0], timeout=2.0)
            # next batch is clean again
            assert mb.predict([1.0, 2.0, 3.0, 4.0], timeout=2.0).shape == (5,)


# ----------------------------------------------------------------------
# Satellite: training divergence guard
# ----------------------------------------------------------------------


class TestTrainingDivergence:
    def diverging_trainer(self, **kwargs):
        net = MLP([2, 6, 1], seed=0)
        return Trainer(
            net,
            optimizer=get_optimizer("sgd", learning_rate=1e12),
            seed=0,
            **kwargs,
        )

    def data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(24, 2))
        return x, x[:, :1] + 0.5 * x[:, 1:2]

    def test_nan_guard_raises_naming_the_epoch(self):
        trainer = self.diverging_trainer()
        x, y = self.data()
        with pytest.raises(TrainingDivergedError, match="epoch") as excinfo:
            trainer.fit(x, y, max_epochs=50)
        assert excinfo.value.epoch >= 0
        assert not math.isfinite(excinfo.value.loss)

    def test_nan_guard_off_preserves_old_behavior(self):
        trainer = self.diverging_trainer(nan_guard=False)
        x, y = self.data()
        result = trainer.fit(x, y, max_epochs=50)
        assert any(not math.isfinite(v) for v in result.history.train_loss)

    def test_healthy_training_is_untouched(self):
        net = MLP([2, 6, 1], seed=0)
        trainer = Trainer(net, optimizer=get_optimizer("sgd", learning_rate=0.05))
        x, y = self.data()
        result = trainer.fit(x, y, max_epochs=20)
        assert all(math.isfinite(v) for v in result.history.train_loss)


# ----------------------------------------------------------------------
# Degradation building blocks
# ----------------------------------------------------------------------


class TestSurrogateAndFallback:
    def test_surrogate_is_deterministic_and_well_shaped(self, tiny_model):
        model, x = tiny_model
        surrogate = fit_linear_surrogate(model, seed=3)
        again = fit_linear_surrogate(model, seed=3)
        np.testing.assert_allclose(surrogate.coefficients_, again.coefficients_)
        out = surrogate.predict(x[:7])
        assert out.shape == (7, 5)
        assert np.all(np.isfinite(out))

    def test_surrogate_tracks_the_mlp_roughly(self, tiny_model):
        """A linear distillation cannot match the MLP, but it must correlate."""
        model, x = tiny_model
        surrogate = fit_linear_surrogate(model)
        mlp_out = model.predict(x)
        sur_out = surrogate.predict(x)
        # Throughput (column 4) spans hundreds of units; the surrogate
        # should explain the bulk of its variance over the training region.
        corr = np.corrcoef(mlp_out[:, 4], sur_out[:, 4])[0, 1]
        assert corr > 0.6

    def test_health_monitor_state_machine(self):
        monitor = HealthMonitor()
        assert monitor.status == HEALTHY
        assert monitor.update({"m": "open"}) == DEGRADED
        assert monitor.update({"m": "half_open"}) == DEGRADED
        assert monitor.update({}, servable=False) == UNHEALTHY
        assert monitor.update({"m": "closed"}) == HEALTHY
        moves = [(old, new) for old, new, _ in monitor.transitions]
        assert moves == [
            (HEALTHY, DEGRADED), (DEGRADED, UNHEALTHY), (UNHEALTHY, HEALTHY),
        ]

    def test_health_monitor_shedding_is_degraded(self):
        monitor = HealthMonitor()
        assert monitor.update({}, shedding=True) == DEGRADED


# ----------------------------------------------------------------------
# Engine-level degradation (no HTTP)
# ----------------------------------------------------------------------


@pytest.fixture()
def chaos_engine(tiny_model, tmp_path):
    model, x = tiny_model
    save_model(model, tmp_path / "paper.json")
    clock = FakeClock()
    plan = FaultPlan()
    engine = ServingEngine(
        tmp_path,
        faults=plan,
        clock=clock,
        breaker_min_samples=2,
        breaker_window=4,
        breaker_reset_timeout=1.0,
        max_wait_ms=0.5,
    )
    yield engine, plan, clock, model, x, tmp_path
    engine.close()


class TestEngineDegradation:
    def test_corrupt_artifact_degrades_then_recovers(self, chaos_engine):
        engine, plan, clock, model, x, tmp_path = chaos_engine
        result = engine.predict_detailed("paper", x[:3])
        assert not result.degraded and result.source == "mlp"
        assert engine.health()["status"] == HEALTHY

        plan.add(SITE_REGISTRY_STAT, "corrupt_artifact", count=1)
        for i in range(3):
            result = engine.predict_detailed("paper", x[i : i + 1])
            assert result.degraded
            assert result.source == "surrogate:linear"
            assert result.outputs.shape == (1, 5)
        health = engine.health()
        assert health["status"] == DEGRADED
        assert health["breakers"]["paper"] == OPEN
        assert engine.metrics.counters["degraded_requests_total"] >= 3
        assert engine.metrics.gauge("breaker_state")["paper"] == OPEN

        # faults clear, a good artifact is redeployed, the reset timeout
        # lapses: the half-open probe must close the breaker again.
        plan.clear()
        save_model(model, tmp_path / "paper.json")
        bump_mtime(tmp_path / "paper.json")
        clock.advance(5.0)
        result = engine.predict_detailed("paper", x[:3])
        assert not result.degraded and result.source == "mlp"
        assert engine.health()["status"] == HEALTHY
        assert engine.metrics.gauge("breaker_state")["paper"] == CLOSED

    def test_without_fallback_breaker_opens_and_refuses(
        self, tiny_model, tmp_path
    ):
        model, x = tiny_model
        save_model(model, tmp_path / "paper.json")
        clock = FakeClock()
        with ServingEngine(
            tmp_path,
            fallback=False,
            clock=clock,
            breaker_min_samples=2,
            breaker_reset_timeout=1.0,
            batching=False,
        ) as engine:
            engine.predict("paper", x[:1])
            (tmp_path / "paper.json").write_text("{torn")
            bump_mtime(tmp_path / "paper.json")
            # one success + one failure fills the min_samples=2 window at a
            # 50% failure rate, so a single torn load trips the breaker
            with pytest.raises(ValueError):
                engine.predict("paper", x[:1])
            with pytest.raises(CircuitOpenError) as excinfo:
                engine.predict("paper", x[:1])
            assert excinfo.value.retry_after > 0

    def test_hard_bound_sheds_with_retry_after(self, chaos_engine):
        engine, _, _, _, x, _ = chaos_engine
        engine.predict("paper", x[:1])
        engine.shed_inflight = 0  # every request is now over the bound
        with pytest.raises(OverloadedError) as excinfo:
            engine.predict("paper", x[:1])
        assert excinfo.value.retry_after > 0
        assert engine.metrics.counters["shed_requests_total"] == 1
        engine.shed_inflight = None
        assert engine.predict("paper", x[:1]).shape == (1, 5)

    def test_soft_bound_answers_from_surrogate(self, chaos_engine):
        engine, _, _, _, x, _ = chaos_engine
        engine.predict("paper", x[:1])  # registers the surrogate
        engine.max_inflight = 0
        result = engine.predict_detailed("paper", x[1:2])
        assert result.degraded
        assert result.source == "surrogate:linear"
        engine.max_inflight = None

    def test_expired_deadline_raises(self, chaos_engine):
        engine, _, _, _, x, _ = chaos_engine
        engine.predict("paper", x[:1])
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            engine.predict("paper", x[1:2], deadline=deadline)

    def test_unknown_model_is_still_a_key_error(self, chaos_engine):
        engine, _, _, _, x, _ = chaos_engine
        for _ in range(4):
            with pytest.raises(KeyError):
                engine.predict("nope", x[:1])
        # caller errors must not trip the breaker for that name
        assert engine.health()["breakers"]["nope"] == CLOSED


# ----------------------------------------------------------------------
# Satellite: driver fault hook
# ----------------------------------------------------------------------


class TestDriverFaultInjection:
    def test_driver_site_is_hit_per_transaction(self):
        plan = FaultPlan()
        workload = ThreeTierWorkload(
            warmup=0.2, duration=1.0, seed=7,
            fault_hook=plan.hook(SITE_DRIVER_INJECT),
        )
        config = WorkloadConfig(
            injection_rate=200, default_threads=8, mfg_threads=8, web_threads=8
        )
        metrics = workload.run(config)
        assert plan.hits(SITE_DRIVER_INJECT) == metrics.injected
        assert metrics.injected > 0

    def test_error_fault_crashes_the_injection_tier(self):
        plan = FaultPlan()
        plan.add(SITE_DRIVER_INJECT, "error", after=20)
        workload = ThreeTierWorkload(
            warmup=0.2, duration=1.0, seed=7,
            fault_hook=plan.hook(SITE_DRIVER_INJECT),
        )
        config = WorkloadConfig(
            injection_rate=200, default_threads=8, mfg_threads=8, web_threads=8
        )
        with pytest.raises(InjectedFault):
            workload.run(config)


# ----------------------------------------------------------------------
# The chaos acceptance test: HTTP server under an injected FaultPlan
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_server(tiny_model, tmp_path_factory):
    model, x = tiny_model
    directory = tmp_path_factory.mktemp("chaos-models")
    save_model(model, directory / "paper.json")
    clock = FakeClock()
    plan = FaultPlan()
    engine = ServingEngine(
        directory,
        faults=plan,
        clock=clock,
        breaker_min_samples=2,
        breaker_window=4,
        breaker_reset_timeout=1.0,
        max_wait_ms=0.5,
    )
    server = create_server(engine, port=0)
    server.serve_background()
    yield {
        "client": ServingClient(server.url, timeout=5.0),
        "engine": engine,
        "plan": plan,
        "clock": clock,
        "model": model,
        "x": x,
        "dir": directory,
    }
    server.shutdown()
    server.server_close()


def _config_from_row(row):
    return {name: float(v) for name, v in zip(INPUT_NAMES, row)}


class TestHTTPChaos:
    def test_degraded_serving_and_full_recovery_under_fault_plan(
        self, chaos_server
    ):
        client = chaos_server["client"]
        plan = chaos_server["plan"]
        clock = chaos_server["clock"]
        x = chaos_server["x"]

        # 1. Baseline: healthy, primary path, no degradation flag.
        body = client.predict_detailed("paper", _config_from_row(x[0]))
        assert body["degraded"] is False
        assert body["source"] == "mlp"
        assert client.health()["status"] == HEALTHY

        # 2. Latency spike alone (<= 0.5 s): answers stay healthy 2xx.
        plan.add(SITE_BATCHER_FLUSH, "latency", latency_s=0.05, count=2)
        body = client.predict_detailed("paper", _config_from_row(x[1]))
        assert body["degraded"] is False

        # 3. The active artifact is corrupted mid-serving: every /predict
        #    keeps answering 2xx from the fallback chain, flagged degraded.
        plan.add(SITE_REGISTRY_STAT, "corrupt_artifact", count=1)
        for i in range(3):
            body = client.predict_detailed("paper", _config_from_row(x[2 + i]))
            assert body["degraded"] is True
            assert body["source"] == "surrogate:linear"
            assert set(body["prediction"]) == {
                "manufacturing_rt", "dealer_purchase_rt", "dealer_manage_rt",
                "dealer_browse_rt", "effective_tps",
            }

        # 4. /healthz reports degraded; metrics expose the new series.
        health = client.health()
        assert health["status"] == DEGRADED
        assert health["breakers"]["paper"] == OPEN
        snapshot = client.metrics()
        assert snapshot["degraded_requests_total"] >= 3
        assert snapshot["breaker_states"]["paper"] == OPEN
        text = client.metrics_text()
        assert "repro_serving_shed_requests_total" in text
        assert 'repro_serving_breaker_state{model="paper"} 2' in text

        # 5. Faults clear and a good artifact is redeployed; once the
        #    reset timeout lapses the half-open probe closes the breaker.
        plan.clear()
        save_model(chaos_server["model"], chaos_server["dir"] / "paper.json")
        bump_mtime(chaos_server["dir"] / "paper.json")
        clock.advance(5.0)
        body = client.predict_detailed("paper", _config_from_row(x[0]))
        assert body["degraded"] is False
        assert body["source"] == "mlp"
        assert client.health()["status"] == HEALTHY
        assert client.metrics()["breaker_states"]["paper"] == CLOSED
        assert 'repro_serving_breaker_state{model="paper"} 0' in client.metrics_text()

    def test_shedding_returns_503_with_retry_after(self, chaos_server):
        client = chaos_server["client"]
        engine = chaos_server["engine"]
        client.predict("paper", _config_from_row(chaos_server["x"][0]))
        engine.shed_inflight = 0
        try:
            with pytest.raises(ServingError) as excinfo:
                client.predict("paper", _config_from_row(chaos_server["x"][0]))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
        finally:
            engine.shed_inflight = None
        assert client.metrics()["shed_requests_total"] >= 1

    def test_retrying_client_backs_off_and_then_succeeds(self, chaos_server):
        engine = chaos_server["engine"]
        sleeps = []
        retry_client = ServingClient(
            chaos_server["client"].base_url,
            timeout=5.0,
            retry=RetryPolicy(
                max_attempts=3, base=0.01, cap=0.05, seed=0, sleep=sleeps.append
            ),
        )
        config = _config_from_row(chaos_server["x"][0])
        engine.shed_inflight = 0
        try:
            with pytest.raises(ServingError) as excinfo:
                retry_client.predict("paper", config)
            assert excinfo.value.status == 503
        finally:
            engine.shed_inflight = None
        assert len(sleeps) == 2  # three attempts, two backoffs
        assert all(0.01 <= s <= 0.05 for s in sleeps)
        assert retry_client.predict("paper", config)  # recovers once unshed

    def test_deadline_header_turns_slow_batcher_into_504(self, chaos_server):
        client = chaos_server["client"]
        plan = chaos_server["plan"]
        plan.add(SITE_BATCHER_FLUSH, "latency", latency_s=0.3, count=1)
        fresh = {
            name: value + 0.625
            for name, value in _config_from_row(chaos_server["x"][9]).items()
        }  # unseen config: must miss the cache and hit the slow batcher
        with pytest.raises(ServingError) as excinfo:
            client.predict("paper", fresh, deadline_s=0.05)
        assert excinfo.value.status == 504
