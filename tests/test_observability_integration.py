"""Trace propagation through the real stack: client → HTTP → engine → batcher.

The acceptance path for the observability subsystem: one traced request
must come back as a single trace whose parent/child nesting shows the
batcher queue-wait and flush-execute as separate children of the engine
span, retrievable over ``GET /traces``.  Also covers the satellite
contracts — ``X-Request-Id`` on every response (4xx included), the
Prometheus content type, retry/breaker trace propagation, and lifecycle
cycle spans.
"""

import json
import time
import urllib.request
from urllib.error import HTTPError

import numpy as np
import pytest

from repro.lifecycle import (
    DriftThresholds,
    GateThresholds,
    LifecycleOrchestrator,
    ObservationLog,
    VersionedModelStore,
)
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.observability import (
    REQUEST_ID_HEADER,
    STATUS_ERROR,
    TRACE_ID_HEADER,
    Tracer,
)
from repro.reliability import RetryPolicy
from repro.serving import ServingClient, ServingEngine, ServingError
from repro.serving.server import create_server
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.sampler import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    latin_hypercube,
)

GOOD_CONFIG = {
    "injection_rate": 450.0,
    "default_threads": 14.0,
    "mfg_threads": 16.0,
    "web_threads": 18.0,
}


@pytest.fixture(scope="module")
def fitted():
    """A model fitted on a tiny simulated sample set (analytic backend)."""
    space = ConfigSpace(
        [
            ParameterRange("injection_rate", 350, 520),
            ParameterRange("default_threads", 6, 20),
            ParameterRange("mfg_threads", 12, 20),
            ParameterRange("web_threads", 15, 22),
        ]
    )
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(space, 20, seed=5)
    )
    dataset.y = np.maximum(dataset.y, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=800, seed=0
    )
    return model.fit(dataset.x, dataset.y), dataset


@pytest.fixture(scope="module")
def traced(fitted, tmp_path_factory):
    """Server and client sharing one tracer, so both halves of every
    trace land in the same buffer the tests (and ``GET /traces``) read."""
    model, _ = fitted
    directory = tmp_path_factory.mktemp("models")
    save_model(model, directory / "paper.json")
    tracer = Tracer(sample_rate=1.0, slow_threshold_s=None, seed=3)
    engine = ServingEngine(directory, max_wait_ms=1.0, tracer=tracer)
    server = create_server(engine, port=0)
    server.serve_background()
    client = ServingClient(server.url, tracer=tracer)
    yield client, tracer, server
    server.shutdown()
    server.server_close()


def wait_for(predicate, timeout=5.0):
    """Poll until ``predicate()`` is truthy (span recording can trail the
    HTTP response by the time it takes the handler to close its span)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.01)
    return predicate()


def last_full_trace(tracer):
    """Spans of the newest trace that crossed the client/server boundary."""

    def find():
        for trace in tracer.buffer.traces(limit=20):
            names = {s["name"] for s in trace["spans"]}
            if "client.request" in names and "http.request" in names:
                return trace["spans"]
        return None

    spans = wait_for(find)
    assert spans is not None, "no end-to-end trace was recorded"
    return spans


def by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span["name"], []).append(span)
    return index


class TestEndToEndTrace:
    def test_one_trace_with_nested_pipeline_stages(self, traced):
        client, tracer, _ = traced
        tracer.buffer.clear()
        # A fresh config so the cache misses and the batcher actually runs.
        client.predict("paper", dict(GOOD_CONFIG, injection_rate=430.25))
        spans = last_full_trace(tracer)
        names = by_name(spans)

        # Every stage shares one trace id.
        assert len({s["trace_id"] for s in spans}) == 1

        root = names["client.request"][0]
        assert root["parent_id"] is None
        http = names["http.request"][0]
        parse = names["request.parse"][0]
        predict = names["engine.predict"][0]
        assert parse["parent_id"] == http["span_id"]
        assert predict["parent_id"] == http["span_id"]
        # The server span nests under the client (directly, or under the
        # per-attempt span when a retry policy is configured).
        client_side_ids = {root["span_id"]} | {
            s["span_id"] for s in names.get("client.attempt", [])
        }
        assert http["parent_id"] in client_side_ids

        # The acceptance criterion: queue-wait and flush-execute are
        # separate children of the engine span.
        queue_wait = names["batcher.queue_wait"][0]
        execute = names["batcher.execute"][0]
        assert queue_wait["parent_id"] == predict["span_id"]
        assert execute["parent_id"] == predict["span_id"]
        assert queue_wait["duration_s"] >= 0
        assert execute["duration_s"] >= 0
        assert execute["attributes"]["batch_size"] >= 1

        # Cache lookup ran (and missed) inside the engine span.
        lookup = names["cache.lookup"][0]
        assert lookup["parent_id"] == predict["span_id"]
        assert lookup["attributes"]["misses"] >= 1

        assert predict["attributes"]["model"] == "paper"
        assert http["attributes"]["http_status"] == 200

    def test_registry_load_is_traced_on_first_touch(self, traced):
        client, tracer, _ = traced
        # The registry load happened on some earlier request in this
        # module; it must appear in one of the buffered traces.
        client.predict("paper", GOOD_CONFIG)

        def find():
            for trace in tracer.buffer.traces():
                for span in trace["spans"]:
                    if span["name"] == "registry.load":
                        return span
            return None

        load = wait_for(find, timeout=1.0)
        if load is None:
            pytest.skip("registry load predates the buffer clear")
        assert load["attributes"]["model"] == "paper"

    def test_response_echoes_trace_and_request_ids(self, traced):
        client, tracer, server = traced
        body = json.dumps({"model": "paper", "config": GOOD_CONFIG}).encode()
        request = urllib.request.Request(
            server.url + "/predict",
            data=body,
            headers={
                "Content-Type": "application/json",
                TRACE_ID_HEADER: "c0ffee" * 5 + "00",
                REQUEST_ID_HEADER: "req-abc123",
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers[REQUEST_ID_HEADER] == "req-abc123"
            assert response.headers[TRACE_ID_HEADER] == "c0ffee" * 5 + "00"

    def test_cache_hit_skips_the_batcher_spans(self, traced):
        client, tracer, _ = traced
        config = dict(GOOD_CONFIG, injection_rate=512.5)
        client.predict("paper", config)  # warm the cache
        tracer.buffer.clear()
        client.predict("paper", config)  # now a pure cache hit
        spans = last_full_trace(tracer)
        names = by_name(spans)
        assert names["cache.lookup"][0]["attributes"]["hits"] >= 1
        assert "batcher.queue_wait" not in names
        assert "batcher.execute" not in names


class TestTracesEndpoint:
    def test_traces_returns_buffered_traces(self, traced):
        client, tracer, _ = traced
        client.predict("paper", GOOD_CONFIG)
        payload = client._get_json("/traces?limit=5")
        assert payload["sample_rate"] == 1.0
        assert payload["spans_recorded"] >= 1
        assert "dropped_spans" in payload and "evicted_traces" in payload
        assert len(payload["traces"]) >= 1
        trace = payload["traces"][0]
        assert set(trace) >= {"trace_id", "duration_s", "n_spans", "spans"}

    def test_min_duration_filter(self, traced):
        client, _, _ = traced
        client.predict("paper", GOOD_CONFIG)
        payload = client._get_json("/traces?min_duration_ms=3600000")
        assert payload["traces"] == []

    def test_status_filter_only_matches_errors(self, traced):
        client, tracer, _ = traced
        tracer.buffer.clear()
        client.predict("paper", GOOD_CONFIG)
        with pytest.raises(ServingError):
            client.predict("absent", GOOD_CONFIG)
        wait_for(
            lambda: any(
                s["status"] == STATUS_ERROR
                for t in tracer.buffer.traces()
                for s in t["spans"]
            )
        )
        payload = client._get_json("/traces?status=error")
        assert payload["traces"]
        for trace in payload["traces"]:
            assert any(s["status"] == STATUS_ERROR for s in trace["spans"])

    def test_slow_view(self, traced):
        client, _, _ = traced
        payload = client._get_json("/traces?slow=1")
        assert "slow_spans" in payload and "traces" not in payload

    def test_bad_query_parameter_is_a_400(self, traced):
        client, _, _ = traced
        with pytest.raises(ServingError) as err:
            client._get_json("/traces?limit=banana")
        assert err.value.status == 400
        assert "bad query parameter" in err.value.message

    def test_untraced_engine_returns_404(self, fitted, tmp_path):
        model, _ = fitted
        save_model(model, tmp_path / "paper.json")
        engine = ServingEngine(tmp_path, tracing=False, batching=False)
        server = create_server(engine, port=0)
        server.serve_background()
        try:
            client = ServingClient(server.url)
            with pytest.raises(ServingError) as err:
                client._get_json("/traces")
            assert err.value.status == 404
        finally:
            server.shutdown()
            server.server_close()


class TestRequestIdSatellite:
    def test_success_response_carries_a_request_id(self, traced):
        _, _, server = traced
        body = json.dumps({"model": "paper", "config": GOOD_CONFIG}).encode()
        request = urllib.request.Request(
            server.url + "/predict",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers[REQUEST_ID_HEADER]

    def test_404_and_400_responses_carry_request_ids(self, traced):
        _, _, server = traced
        with pytest.raises(HTTPError) as err:
            urllib.request.urlopen(server.url + "/no-such-route", timeout=10)
        assert err.value.code == 404
        assert err.value.headers[REQUEST_ID_HEADER]

        bad = urllib.request.Request(
            server.url + "/predict",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(HTTPError) as err:
            urllib.request.urlopen(bad, timeout=10)
        assert err.value.code == 400
        assert err.value.headers[REQUEST_ID_HEADER]

    def test_client_supplied_id_is_echoed_on_errors_too(self, traced):
        _, _, server = traced
        request = urllib.request.Request(
            server.url + "/predict",
            data=b"{}",
            headers={
                "Content-Type": "application/json",
                REQUEST_ID_HEADER: "my-id-42",
            },
            method="POST",
        )
        with pytest.raises(HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.headers[REQUEST_ID_HEADER] == "my-id-42"

    def test_serving_error_exposes_the_request_id(self, traced):
        client, _, _ = traced
        with pytest.raises(ServingError) as err:
            client.predict("absent", GOOD_CONFIG)
        assert err.value.request_id
        assert f"(request {err.value.request_id})" in str(err.value)

    def test_keep_alive_requests_get_fresh_ids(self, traced):
        client, _, _ = traced
        first = pytest.raises(
            ServingError, client.predict, "absent", GOOD_CONFIG
        )
        second = pytest.raises(
            ServingError, client.predict, "absent", GOOD_CONFIG
        )
        assert first.value.request_id != second.value.request_id


class TestMetricsSatellite:
    def test_prometheus_content_type_and_trailing_newline(self, traced):
        _, _, server = traced
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            assert (
                r.headers["Content-Type"]
                == "text/plain; version=0.0.4; charset=utf-8"
            )
            text = r.read().decode()
        assert text.endswith("\n")

    def test_stage_latency_histograms_exported(self, traced):
        client, _, _ = traced
        client.predict("paper", GOOD_CONFIG)
        text = client.metrics_text()
        assert "repro_serving_stage_latency_seconds_bucket" in text
        assert 'stage="engine.predict"' in text
        assert 'le="+Inf"' in text
        assert "repro_serving_stage_latency_seconds_count" in text
        snapshot = client.metrics()
        assert "engine.predict" in snapshot["stage_latency_seconds"]


class TestRetryPropagation:
    @pytest.fixture()
    def broken(self, fitted, tmp_path):
        """A no-fallback server whose breaker is already open: every
        predict is refused with a retryable 503."""
        model, _ = fitted
        save_model(model, tmp_path / "paper.json")
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=None, seed=9)
        engine = ServingEngine(
            tmp_path,
            batching=False,
            fallback=False,
            retry_after_s=0.01,
            tracer=tracer,
        )
        breaker = engine._breaker_for("paper")
        for _ in range(5):
            breaker.record_failure()
        server = create_server(engine, port=0)
        server.serve_background()
        client = ServingClient(
            server.url,
            retry=RetryPolicy(
                max_attempts=3, base=0.001, cap=0.005, seed=0
            ),
            tracer=tracer,
        )
        yield client, tracer
        server.shutdown()
        server.server_close()

    def test_all_attempts_share_one_trace(self, broken):
        client, tracer = broken
        with pytest.raises(ServingError) as err:
            client.predict("paper", GOOD_CONFIG)
        assert err.value.status == 503

        def find():
            # The server closes its spans after sending the response, so
            # the last attempt's server side can trail the client's span.
            for trace in tracer.buffer.traces(limit=10):
                names = by_name(trace["spans"])
                if all(
                    len(names.get(name, [])) == 3
                    for name in (
                        "client.attempt", "http.request", "breaker.rejected"
                    )
                ):
                    return trace["spans"]
            return None

        spans = wait_for(find)
        assert spans is not None, (
            "expected 3 client.attempt spans, each with its server side"
        )
        names = by_name(spans)

        # One trace id across the root, every attempt, and the server side.
        assert len({s["trace_id"] for s in spans}) == 1
        root = names["client.request"][0]
        attempts = sorted(
            names["client.attempt"], key=lambda s: s["attributes"]["attempt"]
        )
        assert [a["attributes"]["attempt"] for a in attempts] == [1, 2, 3]
        for attempt in attempts:
            assert attempt["parent_id"] == root["span_id"]
            assert attempt["status"] == STATUS_ERROR
            assert "503" in attempt["error"]

        # Each attempt produced a server-side http.request error span
        # nested under it, plus the breaker's rejection marker.
        https = names["http.request"]
        assert len(https) == 3
        attempt_ids = {a["span_id"] for a in attempts}
        assert {h["parent_id"] for h in https} <= attempt_ids
        for h in https:
            assert h["status"] == STATUS_ERROR
            assert h["attributes"]["http_status"] == 503
        rejected = names["breaker.rejected"]
        assert len(rejected) == 3
        for span in rejected:
            assert span["status"] == STATUS_ERROR
            assert "CircuitOpenError" in span["error"]
            assert span["attributes"]["model"] == "paper"


# ----------------------------------------------------------------------
# lifecycle cycle spans
# ----------------------------------------------------------------------


def truth(x):
    """Deterministic synthetic ground truth: 4 configs -> 5 indicators."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )


class TestLifecycleTracing:
    def test_run_cycle_emits_the_full_span_tree(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(1.0, 8.0, size=(40, 4))
        # error_threshold=None trains exactly max_epochs epochs, making
        # the per-epoch span count deterministic: 40 epochs / every 10.
        baseline = NeuralWorkloadModel(
            hidden=(6,), error_threshold=None, max_epochs=40, seed=0
        ).fit(x, truth(x))
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(baseline, registry / "paper.json")

        log = ObservationLog()
        configs = rng.uniform(1.0, 8.0, size=(60, 4))
        log.record_batch(
            "paper",
            configs,
            predicted=baseline.predict(configs),
            measured=truth(configs),
            source="driver",
        )
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=None, seed=11)
        orch = LifecycleOrchestrator(
            registry,
            VersionedModelStore(tmp_path / "store"),
            log,
            gate=GateThresholds(max_error=1e6),  # always promote
            seed=2,
            tracer=tracer,
        )
        report = orch.run_cycle("paper", force=True)
        assert report.retrained and report.promoted

        traces = tracer.buffer.traces()
        assert len(traces) == 1, "one cycle must be one trace"
        spans = traces[0]["spans"]
        names = by_name(spans)

        cycle = names["lifecycle.run_cycle"][0]
        assert cycle["parent_id"] is None
        assert cycle["attributes"]["retrained"] is True
        assert cycle["attributes"]["promoted"] is True

        for stage in (
            "lifecycle.drift_check",
            "lifecycle.retrain",
            "lifecycle.gate",
            "lifecycle.promote",
        ):
            assert names[stage][0]["parent_id"] == cycle["span_id"], stage

        retrain = names["lifecycle.retrain"][0]
        assert retrain["attributes"]["epochs"] == 40
        epochs = names["lifecycle.retrain.epoch"]
        assert len(epochs) == 4  # epochs 9, 19, 29, 39 at every=10
        for span in epochs:
            assert span["parent_id"] == retrain["span_id"]
            assert span["attributes"]["epochs_covered"] >= 1
        assert names["lifecycle.gate"][0]["attributes"]["passed"] is True

    def test_quiet_cycle_traces_only_the_drift_check(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(1.0, 8.0, size=(40, 4))
        baseline = NeuralWorkloadModel(
            hidden=(6,), error_threshold=None, max_epochs=20, seed=0
        ).fit(x, truth(x))
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(baseline, registry / "paper.json")

        log = ObservationLog()
        configs = rng.uniform(1.0, 8.0, size=(40, 4))
        log.record_batch(
            "paper",
            configs,
            predicted=baseline.predict(configs),
            measured=truth(configs),
            source="driver",
        )
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=None, seed=12)
        orch = LifecycleOrchestrator(
            registry,
            VersionedModelStore(tmp_path / "store"),
            log,
            # Loose enough that the deliberately under-trained baseline's
            # residuals do not count as drift.
            drift_thresholds=DriftThresholds(
                config_score=100.0, residual_error=100.0
            ),
            seed=2,
            tracer=tracer,
        )
        report = orch.run_cycle("paper")
        assert not report.retrained

        spans = tracer.buffer.traces()[0]["spans"]
        names = by_name(spans)
        assert names["lifecycle.run_cycle"][0]["attributes"]["retrained"] is False
        assert "lifecycle.drift_check" in names
        assert "lifecycle.retrain" not in names
