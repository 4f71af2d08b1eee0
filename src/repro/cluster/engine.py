"""The multi-process model path: router + supervisor over worker processes.

:class:`ClusterEngine` is the sibling of
:class:`~repro.serving.engine.ServingEngine` under the shared
:class:`~repro.serving.engine.Engine` front half — the HTTP server, the
tuning engine, and the lifecycle tap all run unchanged on top of it — but
predictions execute in supervised worker *processes* instead of the
request thread, so the GIL stops being the throughput ceiling and a dead
worker stops being an outage.

The request path, in failure order:

1. **Admission** — the shared front half: draining sheds with 503
   semantics, the hard in-flight bound sheds, the soft bound shortcuts to
   the surrogate tier.  The front half also loads the artifact into its
   own registry, which verifies it (with an integrity guard) and keeps
   the surrogate pinned to the version on disk.
2. **Routing** — the rendezvous router orders the ready workers into the
   model's replica set (wider for hot models).
3. **Primary call** — one framed round trip to the first replica.  The
   worker's own predict timing comes back in the response header and is
   re-recorded as a ``worker.execute`` span in the request's trace
   (trace context crossed the process boundary in the frame).
4. **Sibling failover** — a transport failure (SIGKILL mid-flight, wedge
   timeout, poisoned channel) or a worker-side failure retries the
   request on the next replica, which preloaded the same artifacts and is
   warm.  Only the failed worker's in-flight requests pay; everyone else
   is insulated (bulkhead).
5. **Degraded surrogate** — when every replica fails, or no worker is
   ready at all (restart budget exhausted → supervisor gave up), the
   front half's distilled linear surrogate answers, flagged ``degraded``.

Worker replies that are really *caller* errors (unknown model, spent
deadline) propagate as their exception types and are never failed over:
a sibling would only repeat them.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from ..observability.trace import NOOP_SPAN, Tracer
from ..reliability.degradation import OverloadedError
from ..reliability.policies import Deadline, DeadlineExceeded
from ..serving.engine import Engine, Observer, PredictionResult
from ..serving.engine import validate_config_matrix
from ..serving.metrics import ServingMetrics
from ..serving.registry import ModelRegistry
from ..workload.service import OUTPUT_NAMES
from .protocol import ProtocolError, WorkerCallError, pack_array, unpack_array
from .router import RendezvousRouter
from .supervisor import READY, WorkerSupervisor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability.integrity import IntegrityGuard

__all__ = ["ClusterEngine", "validate_config_matrix"]


class ClusterEngine(Engine):
    """Serve predictions from a supervised pool of worker processes.

    Parameters
    ----------
    models_dir:
        Artifact directory shared by the local registry (surrogates,
        integrity, tuning) and every worker (primary inference).
    workers:
        Worker-process pool size.
    replication / hot_replication / hot_share / hot_min_requests:
        Router knobs (see :class:`~repro.cluster.router.RendezvousRouter`).
    failover_retries:
        Sibling attempts after the primary fails.
    call_timeout:
        Per-call budget on a worker round trip (clamped by any request
        deadline).  A worker silent past this is treated as failed and
        the request fails over.
    worker_faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` (or its
        dict form) shipped to every worker — the ``worker.handle`` kill
        points for chaos tests.
    metrics:
        Optional shared :class:`~repro.serving.metrics.ServingMetrics`.
    supervisor_options:
        Extra keyword arguments forwarded to
        :class:`~repro.cluster.supervisor.WorkerSupervisor` (heartbeat,
        backoff, and budget knobs — the chaos tests tighten these).
    fallback / max_inflight / shed_inflight / retry_after_s / observer /
    tracing / tracer / trace_sample_rate / slow_trace_ms / trace_export /
    integrity:
        The shared front half's knobs (see
        :class:`~repro.serving.engine.Engine`).  The model path adds
        ``worker.call`` child spans, each with the worker's own
        ``worker.execute`` timing beneath it.
    """

    def __init__(
        self,
        models_dir: Union[str, Path],
        workers: int = 4,
        replication: int = 2,
        hot_replication: int = 0,
        hot_share: float = 0.5,
        hot_min_requests: int = 256,
        failover_retries: int = 1,
        call_timeout: float = 10.0,
        fallback: bool = True,
        max_inflight: Optional[int] = None,
        shed_inflight: Optional[int] = None,
        retry_after_s: float = 1.0,
        worker_faults=None,
        tracing: bool = True,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: Optional[float] = 500.0,
        trace_export: Optional[Union[str, Path]] = None,
        observer: Optional[Observer] = None,
        metrics: Optional[ServingMetrics] = None,
        supervisor_options: Optional[dict] = None,
        integrity: Optional["IntegrityGuard"] = None,
    ):
        if failover_retries < 0:
            raise ValueError(
                f"failover_retries must be >= 0, got {failover_retries}"
            )
        super().__init__(
            ModelRegistry(models_dir),
            metrics,
            fallback=fallback,
            max_inflight=max_inflight,
            shed_inflight=shed_inflight,
            retry_after_s=retry_after_s,
            observer=observer,
            tracing=tracing,
            tracer=tracer,
            trace_sample_rate=trace_sample_rate,
            slow_trace_ms=slow_trace_ms,
            trace_export=trace_export,
            integrity=integrity,
        )
        self.failover_retries = int(failover_retries)
        self.call_timeout = float(call_timeout)
        self.router = RendezvousRouter(
            replication=replication,
            hot_replication=hot_replication,
            hot_share=hot_share,
            hot_min_requests=hot_min_requests,
        )
        self.supervisor = WorkerSupervisor(
            models_dir,
            n_workers=workers,
            worker_faults=worker_faults,
            metrics=self.metrics,
            **(supervisor_options or {}),
        )
        # The HTTP layer's /models reports these: cross-request
        # micro-batching happens per HTTP request already (multi-config
        # bodies are one vectorized worker call).
        self.batching = False
        self.max_batch_size = 0
        self.max_wait_ms = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterEngine":
        """Spawn the worker pool and pre-distill the surrogate tier."""
        if self._started:
            return self
        self.supervisor.start()
        self._started = True
        for name in self.registry.list_models():
            try:
                self._load(name)
            except Exception:  # noqa: BLE001 - serve the healthy majority
                continue
        return self

    def drain(self, timeout: float = 10.0) -> None:
        """Stop admission, let in-flight requests finish, drain workers.

        The default budget matches ``call_timeout``'s default, so a
        worker call already in flight can finish inside it.
        """
        super().drain(timeout)

    def _stop_path(self, drain: bool, timeout: float) -> None:
        if drain:
            self.supervisor.drain(timeout=timeout)
        else:
            self.supervisor.stop()

    def __enter__(self) -> "ClusterEngine":
        return self.start()

    def reload(self, model_name: str) -> None:
        """Refresh the local registry/surrogate and nudge every worker.

        Workers hot-reload on their own (their registries re-check the
        artifact mtime per request), so the forward is best-effort — a
        worker mid-restart simply loads the new version at startup,
        which is the property the lifecycle promote path relies on.
        """
        self.registry.reload(model_name)
        self._surrogates.pop(model_name, None)
        self._load(model_name)
        for worker_id in self.supervisor.ready_ids():
            try:
                self.supervisor.call(
                    worker_id,
                    {"op": "reload", "model": model_name},
                    timeout=self.call_timeout,
                )
            except WorkerCallError:
                continue

    # ------------------------------------------------------------------
    # model path
    # ------------------------------------------------------------------

    def _predict_path(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
    ) -> PredictionResult:
        """Primary replica, then siblings (see module docs)."""
        if not self._started:
            raise RuntimeError(
                "ClusterEngine.start() must run before predict()"
            )
        self._load(model_name)  # KeyError if unknown
        self.router.record(model_name)
        replicas = self.router.replicas(
            model_name, self.supervisor.ready_ids()
        )
        if not replicas:
            raise OverloadedError(
                retry_after=self.retry_after_s,
                message=f"no ready workers for model {model_name!r}",
            )
        payload = pack_array(x)
        for attempt, worker_id in enumerate(
            replicas[: 1 + self.failover_retries]
        ):
            if attempt > 0:
                self.metrics.record_worker_failover()
            try:
                return self._call_worker(
                    model_name, x, payload, worker_id, attempt, deadline
                )
            except WorkerCallError as exc:
                error = exc
        raise error

    def _call_worker(
        self,
        model_name: str,
        x: np.ndarray,
        payload: bytes,
        worker_id: int,
        attempt: int,
        deadline: Optional[Deadline],
    ) -> PredictionResult:
        timeout = self.call_timeout
        header = {
            "op": "predict",
            "model": model_name,
            "n": int(x.shape[0]),
            "d": int(x.shape[1]),
        }
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise DeadlineExceeded(
                    "prediction exceeded its deadline before reaching a worker"
                )
            header["deadline_ms"] = max(1.0, remaining * 1000.0)
            timeout = deadline.clamp(timeout)
        tracer = self.tracer
        call_span = (
            tracer.start_span(
                "worker.call",
                attributes={
                    "model": model_name,
                    "worker": worker_id,
                    "attempt": attempt,
                },
            )
            if tracer is not None
            else NOOP_SPAN
        )
        if call_span is not NOOP_SPAN and call_span.trace_id:
            # Trace context crosses the process boundary in the frame
            # header, so worker-side journals can be joined to this trace.
            header["trace_id"] = call_span.trace_id
            header["parent_span_id"] = call_span.span_id
        with call_span:
            resp, resp_payload = self.supervisor.call(
                worker_id, header, payload, timeout=timeout
            )
            if not resp.get("ok"):
                kind = resp.get("kind", "RuntimeError")
                error = resp.get("error", "worker error")
                if kind == "KeyError":
                    raise KeyError(f"unknown model {model_name!r}")
                if kind == "DeadlineExceeded":
                    raise DeadlineExceeded(error)
                # Not a caller error (the front half validated the input):
                # an artifact or model failed in the worker, and a sibling
                # with its own loaded copy may still answer.
                raise WorkerCallError(worker_id, f"{kind}: {error}")
            try:
                outputs = unpack_array(
                    resp_payload, int(resp["n"]), int(resp["m"])
                )
            except (KeyError, ValueError, ProtocolError) as exc:
                raise WorkerCallError(
                    worker_id, f"bad response: {exc}"
                ) from exc
            if outputs.shape[1] != len(OUTPUT_NAMES):
                raise WorkerCallError(
                    worker_id,
                    f"returned {outputs.shape[1]} outputs, expected "
                    f"{len(OUTPUT_NAMES)}",
                )
            if call_span is not NOOP_SPAN:
                call_span.set_attribute("n_configs", int(x.shape[0]))
                predict_s = resp.get("predict_s")
                if predict_s is not None:
                    # The worker's own forward-pass timing, re-attached
                    # to this trace as a retrospective child span.
                    tracer.record_span(
                        "worker.execute",
                        duration_s=float(predict_s),
                        parent=call_span,
                        attributes={"worker": worker_id},
                    )
        return PredictionResult(outputs, source=f"worker:{worker_id}")

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def _health_evidence(self) -> Tuple[Dict[str, str], bool, dict]:
        """Worker pool state as the evidence.

        Worker states are folded into the health monitor as pseudo
        breaker inputs (a not-ready worker reads as a tripped path), so
        the ``healthy/degraded/unhealthy`` contract — and its transition
        log — is exactly the one the single-process engine exposes.
        """
        status = self.supervisor.status()
        worker_paths = {
            f"worker:{w['worker']}": (
                "closed" if w["state"] == READY else "open"
            )
            for w in status["workers"]
        }
        servable = status["ready"] > 0 or bool(self._surrogates)
        return worker_paths, servable, {
            "workers": status["workers"],
            "ready_workers": status["ready"],
            "failed_workers": status["failed"],
            "worker_restarts_total": status["restarts_total"],
        }
