"""HTTP front end for the serving engine (stdlib ``http.server``).

Endpoints
---------
``POST /predict``
    Body: ``{"model": "<name>", "config": {...}}`` or
    ``{"model": "<name>", "configs": [{...}, ...]}`` where each config maps
    every name in :data:`~repro.workload.service.INPUT_NAMES` to a number.
    Response: ``{"model": ..., "predictions": [{indicator: value, ...}]}``
    with keys in :data:`~repro.workload.service.OUTPUT_NAMES` order, plus
    ``"degraded": true`` and a ``"source"`` when a fallback tier answered.
    Field-level validation failures return 400; unknown models return 404;
    shed / circuit-broken requests return 503 with a ``Retry-After``
    header; a blown ``X-Deadline-Ms`` budget returns 504.
``GET /models``
    Servable model names plus engine configuration.
``GET /healthz``
    The reliability state machine: ``{"status": "healthy" | "degraded" |
    "unhealthy", ...}`` — 200 while the service can still answer
    (possibly degraded), 503 when it cannot.
``GET /metrics``
    Prometheus text exposition (``?format=json`` for the dict form).
``GET /lifecycle``
    Continuous-learning status (drift scores, versions, counters) when a
    :mod:`repro.lifecycle` orchestrator is attached; 404 otherwise.
``GET /traces``
    Recent traces from the engine tracer's in-memory buffer, newest
    first: ``?limit=``, ``?min_duration_ms=``, ``?status=error``, and
    ``?slow=1`` (the slow-span log) filter; 404 when tracing is off.
``POST /recommend``
    Body: ``{"model": "<name>", "objective": {...}, "budget": N,
    "seed": S}`` where ``objective`` is the
    :meth:`~repro.tuning.objectives.Objective.to_dict` wire form.
    Runs a model-guided configuration search (see :mod:`repro.tuning`)
    and returns the best configuration, its predicted indicators, the
    objective score, and a response-surface rationale.  Identical
    ``(model version, objective, budget, seed)`` requests return
    byte-identical bodies (and usually hit the recommendation cache).
    Honours ``X-Deadline-Ms``; sheds with 503 while the engine is
    draining or soft-overloaded — recommendations always yield to live
    ``/predict`` traffic.  404 when tuning is disabled.
``GET /recommendations``
    Recent recommendations (newest first, ``?limit=``), standing
    objectives, and cache statistics; 404 when tuning is disabled.
``GET /readyz``
    Readiness (distinct from liveness): 200 while the engine admits new
    requests, 503 once draining has begun — the signal a load balancer
    uses to stop routing here before the process exits.
``POST /admin/drain``
    Begin graceful shutdown: flip ``/readyz`` to not-ready, shed new
    ``/predict`` calls (503 + Retry-After), complete everything already
    queued in the micro-batchers, fsync the observation journal, flush
    the trace exporter, and write the clean-shutdown marker the next
    startup's recovery pass consults.  The HTTP listener itself stays up
    (``/metrics`` and ``/readyz`` keep answering) until the process
    exits; ``SIGTERM`` runs the same sequence and then stops the server.

Callers may send an ``X-Deadline-Ms`` header on ``/predict``; the budget
is honoured through the engine into the micro-batcher wait.  Trace
context propagates via ``X-Trace-Id`` / ``X-Parent-Span-Id`` request
headers; every response — success, error, or degraded — carries an
``X-Request-Id`` (echoed from the request or generated) and, when the
request was traced, its ``X-Trace-Id``.

The server is a ``ThreadingHTTPServer``: each connection gets a thread, and
concurrent ``/predict`` requests coalesce in the engine's micro-batchers.

The handlers talk only to the shared :class:`~repro.serving.engine.Engine`
front half.  With ``--workers N`` it is a
:class:`~repro.cluster.engine.ClusterEngine` instead of the in-process
:class:`~repro.serving.engine.ServingEngine`: predictions execute in N
supervised worker processes with crash isolation, sibling failover, and
surrogate degradation (see :mod:`repro.cluster` and docs/cluster.md).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
import uuid
from pathlib import Path
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..observability.trace import (
    NOOP_SPAN,
    REQUEST_ID_HEADER,
    TRACE_ID_HEADER,
)
from ..reliability.degradation import UNHEALTHY, OverloadedError
from ..reliability.policies import CircuitOpenError, Deadline, DeadlineExceeded
from ..workload.service import INPUT_NAMES, OUTPUT_NAMES
from .engine import Engine, ServingEngine

__all__ = ["ServingHTTPServer", "create_server", "build_parser", "main"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_CONFIGS_PER_REQUEST = 10_000


class _RequestError(Exception):
    """Validation failure carrying the HTTP status to report."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _parse_configs(payload: dict) -> Tuple[List[List[float]], bool]:
    """Extract config vectors from a /predict body; (vectors, was_single)."""
    if "config" in payload and "configs" in payload:
        raise _RequestError(400, "pass either 'config' or 'configs', not both")
    if "config" in payload:
        configs, single = [payload["config"]], True
    elif "configs" in payload:
        configs, single = payload["configs"], False
        if not isinstance(configs, list):
            raise _RequestError(400, "'configs' must be a list of objects")
        if not configs:
            raise _RequestError(400, "'configs' must not be empty")
        if len(configs) > _MAX_CONFIGS_PER_REQUEST:
            raise _RequestError(
                400,
                f"'configs' holds {len(configs)} items; the per-request "
                f"limit is {_MAX_CONFIGS_PER_REQUEST}",
            )
    else:
        raise _RequestError(400, "missing 'config' (object) or 'configs' (list)")

    vectors = []
    for index, config in enumerate(configs):
        label = "config" if single else f"configs[{index}]"
        if not isinstance(config, dict):
            raise _RequestError(400, f"{label}: expected an object")
        unknown = sorted(set(config) - set(INPUT_NAMES))
        if unknown:
            raise _RequestError(
                400,
                f"{label}.{unknown[0]}: unknown parameter "
                f"(expected {INPUT_NAMES})",
            )
        vector = []
        for name in INPUT_NAMES:
            if name not in config:
                raise _RequestError(400, f"{label}.{name}: missing")
            value = config[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _RequestError(400, f"{label}.{name}: expected a number")
            if value != value or value in (float("inf"), float("-inf")):
                raise _RequestError(400, f"{label}.{name}: must be finite")
            vector.append(float(value))
        vectors.append(vector)
    return vectors, single


class _Handler(BaseHTTPRequestHandler):
    server: "ServingHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------

    def _begin_request(self) -> None:
        """Per-request bookkeeping (handlers persist across keep-alive).

        Every response carries an ``X-Request-Id`` — echoed when the
        caller sent one, generated otherwise — so a client error report
        and a server log line can always be joined.
        """
        self._request_id = (
            self.headers.get(REQUEST_ID_HEADER) or uuid.uuid4().hex[:16]
        )
        self._trace_id: Optional[str] = None

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            health = self.server.engine.health()
            status = 503 if health["status"] == UNHEALTHY else 200
            self._send_json(status, health)
        elif parsed.path == "/readyz":
            draining = self.server.engine.draining
            payload = {
                "ready": not draining,
                "draining": draining,
                "models": len(self.server.engine.list_models()),
            }
            self._send_json(503 if draining else 200, payload)
        elif parsed.path == "/models":
            engine = self.server.engine
            self._send_json(
                200,
                {
                    "models": engine.list_models(),
                    "inputs": INPUT_NAMES,
                    "outputs": OUTPUT_NAMES,
                    "batching": engine.batching,
                    "max_batch_size": engine.max_batch_size,
                    "max_wait_ms": engine.max_wait_ms,
                },
            )
        elif parsed.path == "/metrics":
            if "format=json" in (parsed.query or ""):
                self._send_json(200, self.server.engine.metrics.to_dict())
            else:
                text = self.server.engine.metrics.to_prometheus()
                if not text.endswith("\n"):
                    text += "\n"
                self._send_raw(
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        elif parsed.path == "/traces":
            self._get_traces(parsed.query or "")
        elif parsed.path == "/recommendations":
            tuner = self.server.tuner
            if tuner is None:
                self._send_json(404, {"error": "tuning is disabled"})
            else:
                params = parse_qs(parsed.query or "")
                try:
                    limit = (
                        int(params["limit"][0]) if "limit" in params else 20
                    )
                except ValueError as exc:
                    self._send_json(
                        400, {"error": f"bad query parameter: {exc}"}
                    )
                    return
                self._send_json(
                    200,
                    {
                        "recent": tuner.recent(limit=limit),
                        "standing": tuner.standing_status(),
                        "stats": tuner.stats(),
                    },
                )
        elif parsed.path == "/lifecycle":
            lifecycle = self.server.lifecycle
            if lifecycle is None:
                self._send_json(
                    404, {"error": "no lifecycle orchestrator attached"}
                )
            else:
                try:
                    self._send_json(200, lifecycle.status())
                except Exception as exc:  # noqa: BLE001 - status must answer
                    self._send_json(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
        else:
            self._send_json(404, {"error": f"no route {parsed.path!r}"})

    def _get_traces(self, query: str) -> None:
        """``GET /traces``: the tracer's in-memory buffer, filtered."""
        tracer = self.server.engine.tracer
        if tracer is None:
            self._send_json(404, {"error": "tracing is disabled"})
            return
        params = parse_qs(query)
        try:
            limit = int(params["limit"][0]) if "limit" in params else 50
            min_duration_s = (
                float(params["min_duration_ms"][0]) / 1000.0
                if "min_duration_ms" in params
                else None
            )
        except ValueError as exc:
            self._send_json(400, {"error": f"bad query parameter: {exc}"})
            return
        status = params["status"][0] if "status" in params else None
        payload = {
            "sample_rate": tracer.sample_rate,
            "spans_recorded": tracer.spans_recorded,
            "dropped_spans": tracer.buffer.dropped_spans,
            "evicted_traces": tracer.buffer.evicted_traces,
        }
        if params.get("slow", ["0"])[0] not in ("0", "", "false"):
            payload["slow_spans"] = tracer.slow_spans()[-limit:]
        else:
            payload["traces"] = tracer.buffer.traces(
                limit=limit, min_duration_s=min_duration_s, status=status
            )
        self._send_json(200, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        path = urlparse(self.path).path
        if path == "/admin/drain":
            # Runs in this handler's thread (the server is threaded), so
            # /readyz and /metrics keep answering while futures drain.
            report = self.server.drain()
            self._send_json(200, report)
            return
        if path not in ("/predict", "/recommend"):
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        engine = self.server.engine
        tracer = engine.tracer
        if tracer is not None:
            span = tracer.start_span(
                "http.request",
                context=tracer.extract_context(self.headers),
                attributes={
                    "method": "POST",
                    "path": path,
                    "request_id": self._request_id,
                },
            )
            if span.trace_id:
                self._trace_id = span.trace_id
        else:
            span = NOOP_SPAN
        with span:
            if path == "/recommend":
                self._handle_recommend(engine, span)
            else:
                self._handle_predict(engine, tracer, span)

    def _handle_predict(self, engine, tracer, span) -> None:
        try:
            parse_span = (
                tracer.start_span("request.parse")
                if tracer is not None
                else NOOP_SPAN
            )
            with parse_span:
                payload = self._read_json()
                model_name = payload.get("model")
                if not isinstance(model_name, str) or not model_name:
                    raise _RequestError(
                        400, "model: expected a non-empty string"
                    )
                vectors, single = _parse_configs(payload)
                deadline = self._read_deadline()
                if parse_span is not NOOP_SPAN:
                    parse_span.set_attribute("n_configs", len(vectors))
            try:
                result = engine.predict_detailed(
                    model_name, vectors, deadline=deadline
                )
            except KeyError:
                raise _RequestError(
                    404,
                    f"unknown model {model_name!r}; "
                    f"available: {engine.list_models()}",
                ) from None
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status
            self._send_error(engine, span, exc)
            return
        span.set_attribute("http_status", 200)
        if result.degraded:
            span.set_attribute("degraded", True)
        predictions = [
            {name: float(row[j]) for j, name in enumerate(OUTPUT_NAMES)}
            for row in result.outputs
        ]
        body = {
            "model": model_name,
            "predictions": predictions,
            "degraded": result.degraded,
            "source": result.source,
        }
        if single:
            body["prediction"] = predictions[0]
        self._send_json(200, body)

    def _handle_recommend(self, engine, span) -> None:
        """``POST /recommend``: one configuration search via the tuner."""
        tuner = self.server.tuner
        try:
            if tuner is None:
                raise _RequestError(404, "tuning is disabled")
            payload = self._read_json()
            model_name = payload.get("model")
            if not isinstance(model_name, str) or not model_name:
                raise _RequestError(400, "model: expected a non-empty string")
            unknown = sorted(
                set(payload) - {"model", "objective", "budget", "seed"}
            )
            if unknown:
                raise _RequestError(400, f"unknown field {unknown[0]!r}")
            from ..tuning.objectives import Objective

            try:
                objective = Objective.from_dict(payload.get("objective", {}))
            except ValueError as exc:
                raise _RequestError(400, f"objective: {exc}") from None
            budget = payload.get("budget")
            if budget is not None and (
                isinstance(budget, bool) or not isinstance(budget, int)
            ):
                raise _RequestError(400, "budget: expected an integer")
            seed = payload.get("seed", 0)
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise _RequestError(400, "seed: expected an integer")
            deadline = self._read_deadline()
            try:
                body = tuner.recommend(
                    model_name,
                    objective,
                    budget=budget,
                    seed=seed,
                    deadline=deadline,
                )
            except KeyError:
                raise _RequestError(
                    404,
                    f"unknown model {model_name!r}; "
                    f"available: {engine.list_models()}",
                ) from None
            except ValueError as exc:
                raise _RequestError(400, str(exc)) from None
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status
            self._send_error(engine, span, exc)
            return
        span.set_attribute("http_status", 200)
        span.set_attribute("evals", body.get("evals", 0))
        self._send_json(200, body)

    def _send_error(self, engine, span, exc: Exception) -> None:
        """Answer a failed ``/predict`` or ``/recommend`` request.

        The one exception → status map: a :class:`_RequestError` carries
        its own status, shed and circuit-broken requests are 503 with a
        ``Retry-After``, a blown deadline is 504, and anything else (a
        model, artifact or search failure) is 500.
        """
        engine.metrics.count(errors_total=1)
        headers = None
        if isinstance(exc, _RequestError):
            status, body = exc.status, {"error": str(exc)}
        elif isinstance(exc, (OverloadedError, CircuitOpenError)):
            retry_after = max(1, int(math.ceil(exc.retry_after)))
            status = 503
            body = {"error": str(exc), "retry_after": retry_after}
            headers = {"Retry-After": str(retry_after)}
        elif isinstance(exc, DeadlineExceeded):
            status, body = 504, {"error": str(exc)}
        else:
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        span.record_error(exc).set_attribute("http_status", status)
        self._send_json(status, body, headers=headers)

    # ------------------------------------------------------------------

    def _read_deadline(self) -> Optional[Deadline]:
        """Parse the optional ``X-Deadline-Ms`` budget header."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            raise _RequestError(
                400, f"X-Deadline-Ms: expected a number, got {raw!r}"
            ) from None
        if budget_ms <= 0:
            raise _RequestError(400, "X-Deadline-Ms: must be positive")
        return Deadline(budget_ms / 1000.0)

    def _read_json(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _RequestError(411, "Content-Length required")
        if not (length.isascii() and length.strip().isdigit()):
            # Where the body ends is unknown: the connection cannot be reused.
            self.close_connection = True
            raise _RequestError(400, f"invalid Content-Length {length!r}")
        length = int(length)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            raise _RequestError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _RequestError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _RequestError(400, "body must be a JSON object")
        return payload

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        self._send_raw(
            status, json.dumps(payload).encode(), "application/json",
            headers=headers,
        )

    def _send_raw(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is None:
            request_id = uuid.uuid4().hex[:16]
        self.send_header(REQUEST_ID_HEADER, request_id)
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_ID_HEADER, trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        if self.server.verbose:
            super().log_message(format, *args)


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to a serving :class:`Engine`."""

    daemon_threads = True

    def __init__(
        self,
        address,
        engine: Engine,
        verbose: bool = False,
        lifecycle=None,
        observation_log=None,
        shutdown_marker=None,
        tuner=None,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.verbose = verbose
        #: Optional :class:`repro.lifecycle.orchestrator.LifecycleOrchestrator`
        #: (anything with a JSON-serializable ``status()``) behind
        #: ``GET /lifecycle``.
        self.lifecycle = lifecycle
        #: Optional :class:`repro.tuning.engine.RecommendationEngine`
        #: behind ``POST /recommend`` / ``GET /recommendations``.
        self.tuner = tuner
        #: Optional :class:`repro.lifecycle.observations.ObservationLog`
        #: whose journal the drain sequence fsyncs before declaring the
        #: shutdown clean.
        self.observation_log = observation_log
        #: Optional :class:`repro.durability.integrity.CleanShutdownMarker`
        #: written at the end of a successful drain.
        self.shutdown_marker = shutdown_marker
        self._drain_lock = threading.Lock()
        self._drain_report: Optional[dict] = None

    def drain(self) -> dict:
        """Run the graceful-drain sequence once; returns a report.

        Admission stops first (``/readyz`` flips, new ``/predict`` calls
        shed with 503), then in-flight and queued work completes, the
        observation journal is fsynced, the trace exporter flushed, and
        the clean-shutdown marker written.  Safe to call repeatedly —
        later calls return the first report.
        """
        with self._drain_lock:
            if self._drain_report is not None:
                return dict(self._drain_report)
            self.engine.drain()
            report = {"draining": True, "journal_synced": False,
                      "marker_written": False}
            if self.observation_log is not None:
                try:
                    self.observation_log.sync_to_disk()
                    report["journal_synced"] = True
                except Exception:  # noqa: BLE001 - drain must complete
                    pass
            if self.shutdown_marker is not None:
                try:
                    self.shutdown_marker.write({"drained": True})
                    report["marker_written"] = True
                except OSError:
                    pass
            self._drain_report = report
            return dict(report)

    @property
    def url(self) -> str:
        """Base URL of the bound socket (port resolved after bind)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, notebooks)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serving-http", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        super().shutdown()
        self.engine.close()


def create_server(
    engine: Union[Engine, str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    lifecycle=None,
    observation_log=None,
    shutdown_marker=None,
    tuner=None,
) -> ServingHTTPServer:
    """Build a server around an engine (or a model-directory path).

    ``engine`` is any :class:`~repro.serving.engine.Engine` — the
    in-process :class:`ServingEngine` or a started
    :class:`~repro.cluster.engine.ClusterEngine` alike; a string or path
    is shorthand for an in-process engine over that directory.
    """
    if isinstance(engine, (str, Path)):
        engine = ServingEngine(engine)
    return ServingHTTPServer(
        (host, port),
        engine,
        verbose=verbose,
        lifecycle=lifecycle,
        observation_log=observation_log,
        shutdown_marker=shutdown_marker,
        tuner=tuner,
    )


# ----------------------------------------------------------------------
# repro serve CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve persisted workload models over HTTP: POST /predict, "
            "GET /models, GET /healthz, GET /metrics."
        ),
    )
    parser.add_argument(
        "--models-dir",
        required=True,
        help="directory of <name>.json artifacts written by save_model()",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8700, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-batch-size", type=int, default=32,
        help="micro-batch flush size",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="micro-batch straggler wait",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="prediction-cache entries (0 disables)",
    )
    parser.add_argument(
        "--no-batching", action="store_true",
        help="disable cross-request micro-batching",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="serve from this many supervised inference worker processes "
             "instead of in-process (0 = in-process engine); see "
             "docs/cluster.md",
    )
    parser.add_argument(
        "--replication", type=int, default=2,
        help="cluster mode: replica-set size per model (primary + "
             "failover siblings)",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=5,
        help="cluster mode: worker restarts allowed per minute before a "
             "worker is marked failed",
    )
    parser.add_argument(
        "--worker-call-timeout", type=float, default=10.0,
        help="cluster mode: per-call budget on a worker round trip",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=256,
        help="soft admission bound: above this, answer from the fallback "
             "surrogate (0 disables)",
    )
    parser.add_argument(
        "--shed-inflight", type=int, default=512,
        help="hard admission bound: above this, shed with 503 + "
             "Retry-After (0 disables)",
    )
    parser.add_argument(
        "--breaker-reset-timeout", type=float, default=5.0,
        help="seconds an open circuit breaker waits before probing",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="disable the degraded-mode linear surrogate",
    )
    parser.add_argument(
        "--trace-sample-rate", type=float, default=1.0,
        help="fraction of traces recorded (deterministic head sampling)",
    )
    parser.add_argument(
        "--slow-trace-ms", type=float, default=500.0,
        help="spans at least this slow are always recorded and flagged "
             "(0 disables the override)",
    )
    parser.add_argument(
        "--trace-export",
        help="append finished spans to this JSONL file (repro trace input)",
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="disable request tracing entirely",
    )
    parser.add_argument(
        "--store-root",
        help="VersionedModelStore root; enables artifact integrity "
             "verification with quarantine + auto-rollback and startup "
             "manifest repair",
    )
    parser.add_argument(
        "--journal-dir",
        help="write-ahead observation journal directory (replayed with "
             "torn-tail recovery at startup, fsynced on drain)",
    )
    parser.add_argument(
        "--no-startup-recovery", action="store_true",
        help="skip the startup recovery pass (manifest repair, artifact "
             "verification, journal tail repair)",
    )
    parser.add_argument(
        "--tune-budget", type=int, default=256,
        help="default model evaluations per /recommend search",
    )
    parser.add_argument(
        "--tune-cache-size", type=int, default=64,
        help="recommendation-cache entries (0 disables caching)",
    )
    parser.add_argument(
        "--no-tuning", action="store_true",
        help="disable the autotuning endpoints entirely",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro serve`` verb; serves until interrupted (SIGTERM drains
    first)."""
    args = build_parser().parse_args(argv)
    # Durability wiring is imported lazily: the serving package must stay
    # importable without dragging the lifecycle layer in at module level.
    from ..durability.integrity import CleanShutdownMarker, IntegrityGuard
    from ..durability.recovery import RecoveryManager

    store = None
    guard = None
    if args.store_root:
        from ..lifecycle.store import VersionedModelStore

        store = VersionedModelStore(args.store_root)
        guard = IntegrityGuard(
            rollback=lambda name: (
                store.redeploy_verified(name, args.models_dir) is not None
            ),
        )
    if args.workers > 0:
        from ..cluster import ClusterEngine

        engine = ClusterEngine(
            args.models_dir,
            workers=args.workers,
            replication=args.replication,
            call_timeout=args.worker_call_timeout,
            fallback=not args.no_fallback,
            max_inflight=args.max_inflight or None,
            shed_inflight=args.shed_inflight or None,
            tracing=not args.no_tracing,
            trace_sample_rate=args.trace_sample_rate,
            slow_trace_ms=args.slow_trace_ms or None,
            trace_export=args.trace_export,
            supervisor_options={"restart_budget": args.restart_budget},
            integrity=guard,
        ).start()
    else:
        engine = ServingEngine(
            args.models_dir,
            batching=not args.no_batching,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            cache_size=args.cache_size,
            fallback=not args.no_fallback,
            max_inflight=args.max_inflight or None,
            shed_inflight=args.shed_inflight or None,
            breaker_reset_timeout=args.breaker_reset_timeout,
            tracing=not args.no_tracing,
            trace_sample_rate=args.trace_sample_rate,
            slow_trace_ms=args.slow_trace_ms or None,
            trace_export=args.trace_export,
            integrity=guard,
        )
    if guard is not None and guard.tracer is None:
        guard.tracer = engine.tracer
    marker = CleanShutdownMarker(Path(args.models_dir))
    if not args.no_startup_recovery and (store is not None or args.journal_dir):
        report = RecoveryManager(
            store=store,
            registry_dir=args.models_dir,
            journal_dir=args.journal_dir,
            marker=marker,
            metrics=engine.metrics,
            tracer=engine.tracer,
        ).run()
        if report.repaired_anything:
            print(f"Startup recovery repaired state: {report.to_dict()}")
        elif not report.clean_shutdown:
            print("Startup recovery: no clean-shutdown marker, state verified")
    observation_log = None
    if args.journal_dir:
        from ..lifecycle.observations import ObservationLog, serving_tap

        # The recovery pass above already counted the replay into the
        # metrics; this replay only rebuilds the in-memory buffer.
        observation_log = ObservationLog.replay_journal(
            args.journal_dir, resume=True
        )
        observation_log.metrics = engine.metrics
        engine.observer = serving_tap(observation_log)
    tuner = None
    if not args.no_tuning:
        from ..tuning.engine import RecommendationEngine

        tuner = RecommendationEngine(
            engine,
            default_budget=args.tune_budget,
            cache_size=args.tune_cache_size,
        )
    server = ServingHTTPServer(
        (args.host, args.port),
        engine,
        verbose=args.verbose,
        observation_log=observation_log,
        shutdown_marker=marker,
        tuner=tuner,
    )

    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal API
        # Drain on a worker thread: shutdown() must not run on the
        # thread executing serve_forever (it would deadlock).
        threading.Thread(
            target=lambda: (server.drain(), server.shutdown()),
            name="repro-serving-drain",
            daemon=True,
        ).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    models = engine.list_models()
    print(f"Serving {len(models)} model(s) {models} at {server.url}")
    if args.workers > 0:
        print(
            f"Cluster mode: {args.workers} supervised worker process(es), "
            f"replication {args.replication}"
        )
    print(
        "POST /predict | POST /recommend | GET /models | GET /healthz "
        "| GET /readyz | GET /metrics | GET /traces | POST /admin/drain"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nShutting down.")
    finally:
        server.drain()
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    from ..cli import run

    sys.exit(run(main, sys.argv[1:]))
