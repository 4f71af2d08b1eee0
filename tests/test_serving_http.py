"""The HTTP layer: endpoint contract, validation errors, full round trip.

The round trip is the paper's deployment story end to end: fit on simulated
samples, persist with ``save_model``, hot-load through the registry, and
query over HTTP — predictions must match the in-memory model bit for bit.
"""

import json
import socket
import threading
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.reliability.policies import RetryPolicy
from repro.serving import (
    ServingClient,
    ServingEngine,
    ServingError,
    TruncatedResponseError,
)
from repro.serving.server import create_server
from repro.workload.sampler import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    latin_hypercube,
)
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES


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
def served(fitted, tmp_path_factory):
    model, _ = fitted
    directory = tmp_path_factory.mktemp("models")
    save_model(model, directory / "paper.json")
    engine = ServingEngine(directory, max_wait_ms=1.0)
    server = create_server(engine, port=0)
    server.serve_background()
    yield ServingClient(server.url), model
    server.shutdown()
    server.server_close()


GOOD_CONFIG = {
    "injection_rate": 450.0,
    "default_threads": 14.0,
    "mfg_threads": 16.0,
    "web_threads": 18.0,
}


class TestEndpoints:
    def test_healthz(self, served):
        client, _ = served
        assert client.healthz()

    def test_models_lists_artifact_and_contract(self, served):
        client, _ = served
        assert client.models() == ["paper"]
        payload = client._get_json("/models")
        assert payload["inputs"] == INPUT_NAMES
        assert payload["outputs"] == OUTPUT_NAMES

    def test_predict_single_matches_model(self, served):
        client, model = served
        prediction = client.predict("paper", GOOD_CONFIG)
        assert list(prediction) == OUTPUT_NAMES  # response key order
        expected = model.predict(
            [[GOOD_CONFIG[name] for name in INPUT_NAMES]]
        )[0]
        np.testing.assert_allclose(
            [prediction[name] for name in OUTPUT_NAMES], expected, rtol=1e-9
        )

    def test_predict_list_round_trip(self, served, fitted):
        client, model = served
        _, dataset = fitted
        out = client.predict_many("paper", dataset.x[:6])
        np.testing.assert_allclose(
            out, model.predict(dataset.x[:6]), rtol=1e-9
        )

    def test_repeated_query_shows_cache_hits_in_metrics(self, served):
        client, _ = served
        config = dict(GOOD_CONFIG, injection_rate=470.0)
        client.predict("paper", config)
        client.predict("paper", config)
        metrics = client.metrics()
        assert metrics["cache"]["hits"] >= 1
        assert metrics["cache"]["hit_rate"] > 0
        text = client.metrics_text()
        assert "repro_serving_cache_hits_total" in text
        assert "repro_serving_requests_total" in text

    def test_latency_quantiles_populated(self, served):
        client, _ = served
        client.predict("paper", GOOD_CONFIG)
        quantiles = client.metrics()["latency_seconds"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p99"] >= quantiles["p50"] >= 0


class TestValidation:
    def test_unknown_model_404_lists_available(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client.predict("absent", GOOD_CONFIG)
        assert err.value.status == 404
        assert "paper" in err.value.message

    def test_unknown_route_404(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client._get_json("/nope")
        assert err.value.status == 404

    def test_missing_field_400_names_field(self, served):
        client, _ = served
        config = dict(GOOD_CONFIG)
        del config["mfg_threads"]
        with pytest.raises(ServingError) as err:
            client.predict("paper", config)
        assert err.value.status == 400
        assert "mfg_threads" in err.value.message

    def test_unknown_field_400(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client.predict("paper", dict(GOOD_CONFIG, warp_factor=9.0))
        assert err.value.status == 400
        assert "warp_factor" in err.value.message

    def test_non_numeric_field_400(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client.predict("paper", dict(GOOD_CONFIG, web_threads="many"))
        assert err.value.status == 400
        assert "web_threads" in err.value.message

    def test_indexed_error_for_list_requests(self, served):
        client, _ = served
        bad = dict(GOOD_CONFIG)
        del bad["web_threads"]
        with pytest.raises(ServingError) as err:
            client.predict_many("paper", [GOOD_CONFIG, bad])
        assert err.value.status == 400
        assert "configs[1].web_threads" in err.value.message

    def test_invalid_json_400(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client._request(
                "POST", "/predict", data=b"{not json",
                headers={"Content-Type": "application/json"},
            )
        assert err.value.status == 400

    def test_empty_configs_400(self, served):
        client, _ = served
        with pytest.raises(ServingError) as err:
            client._post_json("/predict", {"model": "paper", "configs": []})
        assert err.value.status == 400

    def test_errors_are_counted(self, served):
        client, _ = served
        before = client.metrics()["errors_total"]
        with pytest.raises(ServingError):
            client.predict("absent", GOOD_CONFIG)
        assert client.metrics()["errors_total"] == before + 1

    @pytest.mark.parametrize(
        "length, answer",
        [
            ("abc", b"400 Bad Request"),
            ("-5", b"400 Bad Request"),
            ("-1", b"400 Bad Request"),  # used to read to EOF, never answering
            (str(9 << 20), b"413 Request Entity Too Large"),
        ],
        ids=["abc", "-5", "-1", "9MiB"],
    )
    def test_unusable_content_length_answers_and_closes(
        self, served, length, answer
    ):
        # The body is not read, so the connection must not be reused.
        client, _ = served
        url = urlsplit(client.base_url)
        body = json.dumps({"model": "paper", "config": GOOD_CONFIG}).encode()
        with socket.create_connection((url.hostname, url.port), 5.0) as sock:
            sock.sendall(
                b"POST /predict HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
                + body
            )
            reply = sock.makefile("rb").read()  # to EOF: the server closes
        assert reply.startswith(b"HTTP/1.1 " + answer)


class TestClientDeadline:
    def test_deadline_spent_in_flight_is_a_504(self):
        # The server never answers: the client's socket timeout is the
        # rest of its deadline, and running out of it must be the same
        # 504 the client raises for a deadline spent before sending.
        release = threading.Event()
        server = _ScriptedServer([lambda conn, _request: release.wait(5.0)])
        try:
            client = ServingClient(server.url, timeout=5.0)
            with pytest.raises(ServingError) as err:
                client.predict("paper", GOOD_CONFIG, deadline_s=0.05)
            assert err.value.status == 504
            assert err.value.request_id
        finally:
            release.set()
            server.close()


class _ScriptedServer:
    """A raw TCP server whose connections run scripted failure modes.

    ``scripts[i]`` handles connection ``i`` (the last script repeats);
    each is a callable ``(conn, request_bytes) -> None`` where
    ``request_bytes`` is the full HTTP request (headers + body), or
    ``b""`` for scripts flagged ``noread`` that slam the door first.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.connections = 0
        self.requests_seen = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            index = min(self.connections, len(self.scripts) - 1)
            self.connections += 1
            script = self.scripts[index]
            try:
                if getattr(script, "noread", False):
                    script(conn, b"")
                else:
                    script(conn, self._read_request(conn))
                    self.requests_seen += 1
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    @staticmethod
    def _read_request(conn):
        conn.settimeout(5.0)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return data
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            chunk = conn.recv(4096)
            if not chunk:
                break
            body += chunk
        return data

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def _truncate_mid_response(conn, _request):
    """Answer the status line and headers, then die mid-body — the wire
    shape of a server SIGKILL'd while writing its response."""
    conn.sendall(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 100\r\n"
        b"\r\n"
        b'{"partial'
    )


def _refuse_silently(conn, _request):
    """Close before a single response byte — a pre-response failure."""
    conn.close()


_refuse_silently.noread = True


class TestTruncatedResponse:
    """Satellite: mid-response connection loss must not be retried.

    ``POST /predict`` is a pure function of its body, so connection
    resets are retryable — but *only* when no response bytes arrived.
    Once the status line is on the wire the server demonstrably executed
    the request; replaying it would double-count on whatever replaces
    the dead server.
    """

    def test_mid_response_death_raises_and_is_not_retried(self):
        server = _ScriptedServer([_truncate_mid_response])
        try:
            client = ServingClient(
                server.url,
                timeout=5.0,
                retry=RetryPolicy(max_attempts=3, base=0.01, cap=0.02),
            )
            with pytest.raises(TruncatedResponseError):
                client.predict("paper", GOOD_CONFIG)
            # The retry policy had 2 more attempts in budget; the typed
            # error must have stopped it after the first request.
            assert server.requests_seen == 1
            assert server.connections == 1
        finally:
            server.close()

    def test_truncation_is_an_oserror_with_request_id(self):
        server = _ScriptedServer([_truncate_mid_response])
        try:
            client = ServingClient(server.url, timeout=5.0)
            with pytest.raises(OSError) as err:
                client.predict("paper", GOOD_CONFIG)
            assert isinstance(err.value, TruncatedResponseError)
            assert err.value.request_id
            assert "mid-response" in str(err.value)
        finally:
            server.close()

    def test_pre_response_failure_is_retried(self):
        body = json.dumps(
            {"prediction": {name: 1.0 for name in OUTPUT_NAMES}}
        ).encode()

        def answer(conn, _request):
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )

        server = _ScriptedServer([_refuse_silently, answer])
        try:
            client = ServingClient(
                server.url,
                timeout=5.0,
                retry=RetryPolicy(max_attempts=3, base=0.01, cap=0.02),
            )
            prediction = client.predict("paper", GOOD_CONFIG)
            assert prediction == {name: 1.0 for name in OUTPUT_NAMES}
            # First connection died before any response byte — safely
            # replayed on a fresh connection.
            assert server.connections == 2
        finally:
            server.close()
