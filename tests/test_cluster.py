"""The multi-process cluster: protocol, router, supervisor, engine, chaos.

The tentpole claims under test:

* a SIGKILL'd worker never turns into a caller-visible failure — the
  request is answered by a sibling replica or the degraded surrogate;
* the supervisor restarts crashed workers (with backoff and a budget)
  and marks budget-exhausted workers failed, at which point the engine
  degrades instead of erroring;
* a registry promote landing while a worker is mid-restart is served by
  the restarted worker (it preloads whatever is on disk at spawn time).
"""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import ClusterEngine, RendezvousRouter, WorkerSupervisor
from repro.cluster.protocol import (
    ProtocolError,
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)
from repro.cluster.supervisor import FAILED, READY, STOPPED
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.reliability.degradation import OverloadedError, fit_linear_surrogate
from repro.reliability.faults import SITE_WORKER_HANDLE, FaultPlan, FaultRule
from repro.reliability.policies import Deadline, DeadlineExceeded
from repro.serving import ServingEngine

import socket


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
    return model.fit(x, y)


@pytest.fixture(scope="module")
def tiny_model():
    return fit_tiny_model()


@pytest.fixture()
def model_dir(tiny_model, tmp_path):
    save_model(tiny_model, tmp_path / "paper.json")
    return tmp_path


CONFIG = [450.0, 14.0, 16.0, 18.0]

# Worker spawn is an interpreter start (~0.5 s on a busy 1-core box);
# every poll loop below budgets generously rather than flaking.
_WAIT_S = 30.0


def _wait_for(predicate, timeout=_WAIT_S, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _engine(model_dir, workers=1, **kwargs):
    supervisor_options = {
        "heartbeat_interval": 0.1,
        "restart_backoff_base": 0.05,
        "restart_window_s": 300.0,
        "restart_budget": 50,
    }
    supervisor_options.update(kwargs.pop("supervisor_options", {}))
    return ClusterEngine(
        model_dir,
        workers=workers,
        supervisor_options=supervisor_options,
        **kwargs,
    ).start()


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip_with_payload(self):
        a, b = socket.socketpair()
        try:
            x = np.arange(12, dtype=float).reshape(3, 4)
            send_frame(a, {"op": "predict", "n": 3, "d": 4}, pack_array(x))
            header, payload = recv_frame(b, timeout=5.0)
            assert header["op"] == "predict"
            assert header["payload_len"] == 3 * 4 * 8
            np.testing.assert_array_equal(unpack_array(payload, 3, 4), x)
        finally:
            a.close()
            b.close()

    def test_frame_without_payload(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping"})
            header, payload = recv_frame(b, timeout=5.0)
            assert header == {"op": "ping"}
            assert payload == b""
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_protocol_error(self):
        a, b = socket.socketpair()
        # Half a length prefix, then the peer dies.
        a.sendall(b"\x00\x00")
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b, timeout=5.0)
        finally:
            b.close()

    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x7f\xff\xff\xff")
            with pytest.raises(ProtocolError, match="exceeds bound"):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_unpack_validates_byte_count(self):
        with pytest.raises(ProtocolError, match="16 bytes"):
            unpack_array(b"\x00" * 16, 3, 4)

    def test_unpacked_array_owns_its_memory(self):
        x = np.ones((2, 2))
        out = unpack_array(pack_array(x), 2, 2)
        out[0, 0] = 7.0  # must not raise: .copy() detached the buffer
        assert out[0, 0] == 7.0


class _Capture:
    """Stands in for a socket and keeps the bytes ``send_frame`` writes."""

    def sendall(self, data):
        self.data = data


_JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)


@given(
    header=st.dictionaries(
        st.text(max_size=8).filter(lambda key: key != "payload_len"),
        _JSON_SCALAR,
        max_size=4,
    ),
    x=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(4))),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cut_frame_raises_and_whole_frame_round_trips(header, x, data):
    """Any cut of a valid frame is a ProtocolError, never a returned
    frame; the whole frame gives back the header and the exact array."""
    capture = _Capture()
    send_frame(capture, header, pack_array(x))
    frame = capture.data
    cut = data.draw(st.integers(0, len(frame)), label="cut")
    a, b = socket.socketpair()
    try:
        a.sendall(frame[:cut])
        a.close()
        if cut < len(frame):
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b, timeout=5.0)
        else:
            got, payload = recv_frame(b, timeout=5.0)
            if x.size:
                header = dict(header, payload_len=len(payload))
            assert got == header
            np.testing.assert_array_equal(unpack_array(payload, *x.shape), x)
    finally:
        b.close()


@given(
    payload_len=st.one_of(
        _JSON_SCALAR.filter(lambda value: type(value) is not int),
        st.floats(),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    )
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_non_int_payload_len_is_a_protocol_error(payload_len):
    """A ``payload_len`` that is not a JSON integer is refused before any
    payload byte is read (``"8"``, ``true`` and ``2.9`` used to read 8, 1
    and 2 bytes; ``null`` raised ``TypeError``)."""
    a, b = socket.socketpair()
    try:
        send_frame(a, {"op": "predict", "payload_len": payload_len})
        a.sendall(bytes(64))
        with pytest.raises(ProtocolError, match="payload length"):
            recv_frame(b, timeout=5.0)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------


class TestRouter:
    def test_replica_sets_are_deterministic(self):
        router = RendezvousRouter(replication=2)
        workers = [0, 1, 2, 3]
        assert router.replicas("paper", workers) == router.replicas(
            "paper", workers
        )
        assert len(router.replicas("paper", workers)) == 2

    def test_dead_worker_shifts_only_its_models(self):
        router = RendezvousRouter(replication=1)
        workers = [0, 1, 2, 3]
        models = [f"m{i}" for i in range(32)]
        before = {m: router.replicas(m, workers)[0] for m in models}
        dead = before["m0"]
        survivors = [w for w in workers if w != dead]
        for m in models:
            after = router.replicas(m, survivors)[0]
            if before[m] != dead:
                # Models that never touched the dead worker do not move.
                assert after == before[m]
            else:
                assert after != dead

    def test_failover_order_is_score_order(self):
        router = RendezvousRouter(replication=3)
        workers = [0, 1, 2, 3]
        first, second, third = router.replicas("paper", workers)
        # Removing the primary promotes the old second to primary.
        assert router.replicas("paper", [w for w in workers if w != first])[
            :2
        ] == [second, third]

    def test_hot_model_gets_wider_replication(self):
        router = RendezvousRouter(
            replication=1, hot_share=0.5, hot_min_requests=10
        )
        workers = [0, 1, 2]
        assert len(router.replicas("hot", workers)) == 1
        for _ in range(20):
            router.record("hot")
        assert router.is_hot("hot")
        assert len(router.replicas("hot", workers)) == 2
        # A cold model keeps the narrow set.
        assert not router.is_hot("cold")
        assert len(router.replicas("cold", workers)) == 1

    def test_empty_pool_routes_nowhere(self):
        assert RendezvousRouter().replicas("paper", []) == []

    def test_pool_smaller_than_replication(self):
        assert RendezvousRouter(replication=3).replicas("paper", [7]) == [7]


# ----------------------------------------------------------------------
# fault-plan wire form (ships to workers as JSON)
# ----------------------------------------------------------------------


class TestFaultPlanWireForm:
    def test_round_trip_preserves_rules_and_seed(self):
        plan = FaultPlan(
            [
                FaultRule(
                    site=SITE_WORKER_HANDLE,
                    kind="kill_worker",
                    after=2,
                    count=1,
                    probability=0.5,
                ),
                FaultRule(
                    site=SITE_WORKER_HANDLE, kind="slow_worker", latency_s=0.1
                ),
            ],
            seed=42,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 42
        assert len(clone.rules) == 2
        assert clone.rules[0].kind == "kill_worker"
        assert clone.rules[0].after == 2
        assert clone.rules[0].probability == 0.5
        assert clone.rules[1].latency_s == 0.1

    def test_fired_counter_not_serialized(self):
        plan = FaultPlan(
            [FaultRule(site=SITE_WORKER_HANDLE, kind="slow_worker",
                       latency_s=0.0)]
        )
        plan.rules[0].fired = 3
        clone = FaultPlan.from_dict(plan.to_dict())
        # A restarted worker starts with fresh hit counters.
        assert clone.rules[0].fired == 0

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "x", "kind": "error",
                                       "bogus": 1}]}
            )


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_start_preloads_and_reports_ready(self, model_dir):
        with WorkerSupervisor(model_dir, n_workers=2) as sup:
            status = sup.status()
            assert status["ready"] == 2
            assert sorted(sup.ready_ids()) == [0, 1]
            for worker in status["workers"]:
                assert worker["models"] == ["paper"]
            header, _ = sup.call(0, {"op": "ping"}, timeout=5.0)
            assert header["op"] == "pong"
            assert header["pid"] == sup.handle(0).pid

    def test_sigkill_is_detected_and_restarted(self, model_dir):
        with WorkerSupervisor(
            model_dir,
            n_workers=1,
            heartbeat_interval=0.1,
            restart_backoff_base=0.05,
        ) as sup:
            old_pid = sup.handle(0).pid
            sup.kill_worker(0)
            assert _wait_for(
                lambda: sup.handle(0).state == READY
                and sup.handle(0).pid != old_pid
            ), f"worker stuck in state {sup.handle(0).state}"
            assert sup.handle(0).restarts == 1
            header, _ = sup.call(0, {"op": "ping"}, timeout=5.0)
            assert header["op"] == "pong"

    def test_restart_budget_exhaustion_marks_failed(self, model_dir):
        with WorkerSupervisor(
            model_dir,
            n_workers=1,
            heartbeat_interval=0.05,
            restart_backoff_base=0.01,
            restart_budget=0,
        ) as sup:
            sup.kill_worker(0)
            assert _wait_for(lambda: sup.handle(0).state == FAILED)
            assert sup.ready_ids() == []
            assert sup.status()["failed"] == 1

    def test_drain_acknowledges_and_stops(self, model_dir):
        sup = WorkerSupervisor(model_dir, n_workers=2).start()
        report = sup.drain(timeout=10.0)
        assert report == {0: True, 1: True}
        assert all(h.state == STOPPED for h in sup._handles)
        sup.stop()


# ----------------------------------------------------------------------
# cluster engine
# ----------------------------------------------------------------------


class TestClusterEngine:
    def test_predictions_match_the_artifact(self, model_dir, tiny_model):
        with _engine(model_dir, workers=2) as eng:
            result = eng.predict_detailed("paper", [CONFIG, CONFIG])
            assert not result.degraded
            assert result.source.startswith("worker:")
            np.testing.assert_allclose(
                result.outputs,
                tiny_model.predict(np.asarray([CONFIG, CONFIG])),
                rtol=1e-10,
            )

    def test_unknown_model_and_bad_input(self, model_dir):
        with _engine(model_dir) as eng:
            with pytest.raises(KeyError):
                eng.predict("ghost", [CONFIG])
            with pytest.raises(ValueError):
                eng.predict("paper", [[1.0, 2.0]])  # wrong dimensionality

    def test_expired_deadline_raises_504_semantics(self, model_dir):
        with _engine(model_dir) as eng:
            with pytest.raises(DeadlineExceeded):
                eng.predict("paper", [CONFIG], deadline=Deadline(0.0))

    def test_draining_sheds_with_retry_after(self, model_dir):
        with _engine(model_dir) as eng:
            eng.drain(timeout=5.0)
            with pytest.raises(OverloadedError):
                eng.predict("paper", [CONFIG])

    def test_sigkill_mid_pool_fails_over_to_sibling(self, model_dir):
        with _engine(model_dir, workers=2) as eng:
            first = eng.predict_detailed("paper", [CONFIG])
            primary = int(first.source.split(":")[1])
            eng.supervisor.kill_worker(primary)
            # Before the monitor notices, calls route to the corpse and
            # must fail over — never raise.
            result = eng.predict_detailed("paper", [CONFIG])
            assert result.outputs.shape == (1, 5)
            assert _wait_for(
                lambda: eng.supervisor.handle(primary).state == READY
            )
            assert eng.metrics.counters["worker_restarts_total"] >= 1

    def test_all_workers_failed_degrades_to_surrogate(self, model_dir):
        with _engine(
            model_dir,
            workers=1,
            supervisor_options={"restart_budget": 0,
                                "heartbeat_interval": 0.05},
        ) as eng:
            assert not eng.predict_detailed("paper", [CONFIG]).degraded
            eng.supervisor.kill_worker(0)
            assert _wait_for(
                lambda: eng.supervisor.handle(0).state == FAILED
            )
            result = eng.predict_detailed("paper", [CONFIG])
            assert result.degraded
            assert result.source == "surrogate:linear"
            health = eng.health()
            assert health["status"] == "degraded"
            assert health["failed_workers"] == 1

    def test_worker_load_failure_fails_over_then_degrades(self, model_dir):
        """A worker that cannot load the artifact is a path failure.

        Its ``ValueError`` reply says nothing about the request (the
        front half validated it), so a sibling is tried and then the
        surrogate answers — never a caller-visible error.
        """
        with _engine(model_dir, workers=2) as eng:
            call = eng.supervisor.call

            def torn_worker(worker_id, header, payload=b"", timeout=None):
                if header["op"] == "predict":
                    return {"ok": False, "kind": "ValueError",
                            "error": "cannot load model file"}, b""
                return call(worker_id, header, payload, timeout=timeout)

            eng.supervisor.call = torn_worker
            result = eng.predict_detailed("paper", [CONFIG])
            assert result.degraded
            assert result.source == "surrogate:linear"
            assert eng.metrics.counters["worker_failovers_total"] == 1

    def test_no_workers_and_no_fallback_raises_overloaded(self, model_dir):
        with _engine(
            model_dir,
            workers=1,
            fallback=False,
            supervisor_options={"restart_budget": 0,
                                "heartbeat_interval": 0.05},
        ) as eng:
            eng.supervisor.kill_worker(0)
            assert _wait_for(
                lambda: eng.supervisor.handle(0).state == FAILED
            )
            with pytest.raises(OverloadedError):
                eng.predict("paper", [CONFIG])

    def test_worker_metrics_exported(self, model_dir):
        with _engine(model_dir, workers=1) as eng:
            eng.predict("paper", [CONFIG])
            snapshot = eng.metrics.to_dict()
            assert snapshot["worker_states"] == {"0": "ready"}
            assert "worker_queue_depths" in snapshot
            text = eng.metrics.to_prometheus()
            assert 'worker_state{worker="0"} 1' in text
            assert "worker_restarts_total 0" in text

    def test_health_lists_every_worker(self, model_dir):
        with _engine(model_dir, workers=2) as eng:
            health = eng.health()
            assert health["status"] == "healthy"
            assert health["ready_workers"] == 2
            assert [w["worker"] for w in health["workers"]] == [0, 1]
            assert health["fallbacks"] == ["paper"]


# ----------------------------------------------------------------------
# backend parity: one engine front half, two model paths
# ----------------------------------------------------------------------


@pytest.fixture(params=["serving", "cluster"])
def backend(request, model_dir):
    """The same artifact directory served in-process and by one worker."""
    if request.param == "serving":
        engine = ServingEngine(model_dir)
    else:
        engine = _engine(model_dir, workers=1)
    with engine:
        yield engine


class TestBackendParity:
    """Both engines give the same answer, or the same error, per request.

    Every case runs against the in-process ``ServingEngine`` and a
    one-worker ``ClusterEngine`` and asserts one expected outcome, so the
    two backends agree to rtol 1e-10 on outputs and exactly on exception
    classes and degraded provenance.
    """

    BATCH = [CONFIG, [380.0, 8.0, 13.0, 20.0], [500.0, 19.0, 19.0, 16.0]]

    def test_multi_row_batch(self, backend, tiny_model):
        result = backend.predict_detailed("paper", self.BATCH)
        assert not result.degraded
        cluster = isinstance(backend, ClusterEngine)
        assert result.source == ("worker:0" if cluster else "mlp")
        np.testing.assert_allclose(
            result.outputs, tiny_model.predict(np.asarray(self.BATCH)),
            rtol=1e-10,
        )

    def test_unknown_model_is_a_key_error(self, backend):
        with pytest.raises(KeyError):
            backend.predict("ghost", [CONFIG])

    @pytest.mark.parametrize(
        "configs",
        [[[1.0, 2.0]], [[450.0, float("nan"), 16.0, 18.0]]],
        ids=["wrong-shape", "non-finite"],
    )
    def test_malformed_input_is_a_value_error(self, backend, configs):
        with pytest.raises(ValueError):
            backend.predict("paper", configs)

    def test_expired_deadline(self, backend):
        with pytest.raises(DeadlineExceeded):
            backend.predict("paper", [CONFIG], deadline=Deadline(0.0))

    @pytest.mark.parametrize("stop", ["drain", "close"])
    def test_stopped_engine_sheds(self, backend, stop):
        backend.predict("paper", [CONFIG])
        getattr(backend, stop)()
        with pytest.raises(OverloadedError) as excinfo:
            backend.predict("paper", [CONFIG])
        assert excinfo.value.retry_after > 0

    def test_hard_bound_sheds_and_counts(self, backend):
        backend.predict("paper", [CONFIG])
        backend.shed_inflight = 0
        with pytest.raises(OverloadedError) as excinfo:
            backend.predict("paper", [CONFIG])
        assert excinfo.value.retry_after > 0
        assert backend.metrics.counters["shed_requests_total"] == 1
        backend.shed_inflight = None
        assert backend.predict("paper", [CONFIG]).shape == (1, 5)

    def _assert_surrogate_answer(self, result, tiny_model):
        assert result.degraded
        assert result.source == "surrogate:linear"
        np.testing.assert_allclose(
            result.outputs,
            fit_linear_surrogate(tiny_model).predict(np.asarray(self.BATCH)),
            rtol=1e-10,
        )

    def test_soft_bound_answers_from_surrogate(self, backend, tiny_model):
        backend.predict("paper", [CONFIG])  # pins the surrogate
        backend.max_inflight = 0
        result = backend.predict_detailed("paper", self.BATCH)
        self._assert_surrogate_answer(result, tiny_model)

    def test_corrupt_artifact_degrades(self, backend, model_dir, tiny_model):
        backend.predict("paper", [CONFIG])
        artifact = model_dir / "paper.json"
        artifact.write_text("{torn")
        stat = os.stat(artifact)
        os.utime(
            artifact,
            ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000),
        )
        result = backend.predict_detailed("paper", self.BATCH)
        self._assert_surrogate_answer(result, tiny_model)

    def test_root_span_is_engine_predict(self, backend):
        backend.predict("paper", [CONFIG])
        newest = backend.tracer.buffer.traces(limit=1)[0]["spans"]
        roots = [span["name"] for span in newest if span["parent_id"] is None]
        assert roots == ["engine.predict"]


class TestWorkerFaultKinds:
    def test_kill_worker_fault_kills_mid_flight(self, model_dir):
        plan = FaultPlan(
            [FaultRule(site=SITE_WORKER_HANDLE, kind="kill_worker",
                       after=1, count=1)]
        )
        with _engine(model_dir, workers=1, worker_faults=plan) as eng:
            assert not eng.predict_detailed("paper", [CONFIG]).degraded
            # Second request: the worker SIGKILLs itself with the request
            # on its plate.  No sibling -> degraded surrogate answer.
            result = eng.predict_detailed("paper", [CONFIG])
            assert result.degraded
            assert result.source == "surrogate:linear"
            # The restarted worker gets fresh fault counters (after=1
            # means its first request is safe) and takes traffic back.
            assert _wait_for(
                lambda: eng.supervisor.handle(0).state == READY
            )
            assert _wait_for(
                lambda: not eng.predict_detailed("paper", [CONFIG]).degraded
            )

    def test_hang_worker_fault_times_out_and_degrades(self, model_dir):
        plan = FaultPlan(
            [FaultRule(site=SITE_WORKER_HANDLE, kind="hang_worker",
                       after=1, count=1)]
        )
        with _engine(
            model_dir, workers=1, worker_faults=plan, call_timeout=0.5
        ) as eng:
            assert not eng.predict_detailed("paper", [CONFIG]).degraded
            start = time.monotonic()
            result = eng.predict_detailed("paper", [CONFIG])
            # The hang burned only the call timeout, not the hang length.
            assert time.monotonic() - start < 5.0
            assert result.degraded
            assert _wait_for(
                lambda: eng.supervisor.handle(0).state == READY
            )

    def test_slow_worker_fault_injects_latency_only(self, model_dir):
        plan = FaultPlan(
            [FaultRule(site=SITE_WORKER_HANDLE, kind="slow_worker",
                       latency_s=0.05)]
        )
        with _engine(model_dir, workers=1, worker_faults=plan) as eng:
            start = time.monotonic()
            result = eng.predict_detailed("paper", [CONFIG])
            assert time.monotonic() - start >= 0.05
            assert not result.degraded


class TestChaos:
    def test_seeded_kills_never_surface_to_callers(self, model_dir):
        """The tentpole chaos property: SIGKILLs mid-flight, zero failures.

        Workers randomly SIGKILL themselves *after accepting a request*
        (the worst moment).  Every request must still be answered — by
        the primary, a sibling retry, or the degraded surrogate — and
        none may raise.
        """
        plan = FaultPlan(
            [
                FaultRule(
                    site=SITE_WORKER_HANDLE,
                    kind="kill_worker",
                    after=2,
                    probability=0.12,
                )
            ],
            seed=7,
        )
        with _engine(
            model_dir, workers=2, worker_faults=plan, call_timeout=5.0
        ) as eng:
            results = []
            errors = []

            def caller(n):
                for _ in range(n):
                    try:
                        results.append(
                            eng.predict_detailed("paper", [CONFIG])
                        )
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)

            threads = [
                threading.Thread(target=caller, args=(12,)) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not errors, f"requests failed under chaos: {errors[:3]}"
            assert len(results) == 36
            for result in results:
                assert result.outputs.shape == (1, 5)
            # The plan's kill probability makes >= 1 death overwhelmingly
            # likely across 36 requests.  The degraded/failover answers
            # prove callers routed around the corpses; the hammer itself
            # finishes in milliseconds while a respawn takes ~0.5s, so
            # *wait* for the supervisor's restart rather than asserting
            # it already happened.
            killed = sum(
                1 for r in results
                if r.degraded or r.source == "surrogate:linear"
            )
            failovers = eng.metrics.counters["worker_failovers_total"]
            assert killed + failovers >= 1
            assert _wait_for(
                lambda: eng.metrics.counters["worker_restarts_total"] >= 1
            )
            # And once restarted, the pool serves from real workers again.
            assert _wait_for(lambda: len(eng.supervisor.ready_ids()) == 2)
            recovered = eng.predict_detailed("paper", [CONFIG])
            assert recovered.outputs.shape == (1, 5)


class TestPromoteDuringRestart:
    def test_promote_lands_on_restarted_worker(self, model_dir, tiny_model):
        """A registry promote mid-restart is what the new worker serves.

        Kill the only worker, drop a retrained artifact over the old one
        while it is down, and verify the restarted worker answers from
        the *new* version — workers preload whatever is on disk at spawn
        time, and the supervisor must not resurrect stale state.
        """
        retrained = fit_tiny_model(scale=2.0)
        with _engine(
            model_dir,
            workers=1,
            supervisor_options={
                "heartbeat_interval": 0.05,
                # A visible restart window so the promote lands mid-restart.
                "restart_backoff_base": 0.5,
            },
        ) as eng:
            old = eng.predict_detailed("paper", [CONFIG])
            eng.supervisor.kill_worker(0)
            # Promote while the worker is down/restarting.
            save_model(retrained, model_dir / "paper.json")
            stat = os.stat(model_dir / "paper.json")
            os.utime(
                model_dir / "paper.json",
                ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000),
            )
            # Wait for the *restart* first: right after the kill the
            # monitor may not have noticed the corpse yet, so READY
            # alone could be the stale pre-kill state.
            assert _wait_for(
                lambda: eng.metrics.counters["worker_restarts_total"] >= 1
                and eng.supervisor.handle(0).state == READY
            )
            fresh = eng.predict_detailed("paper", [CONFIG])
            assert not fresh.degraded
            np.testing.assert_allclose(
                fresh.outputs,
                retrained.predict(np.asarray([CONFIG])),
                rtol=1e-10,
            )
            # Sanity: the promote actually changed the answers.
            assert not np.allclose(fresh.outputs, old.outputs)
