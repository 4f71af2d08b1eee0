"""The serving engines: one shared front half, two model paths.

:class:`Engine` is the front half every backend shares — the HTTP
server, the tuner, the lifecycle tap and embedded callers all route
queries through it:

* validation of the ``(n, 4)`` configuration matrix;
* admission control: draining or closed engines shed with
  :class:`~repro.reliability.degradation.OverloadedError` (HTTP 503 +
  ``Retry-After``), as does the hard in-flight bound; past the soft bound
  the linear surrogate answers instead of the model path;
* a linear surrogate distilled from each artifact version the first time
  it loads, answering (flagged *degraded*) whenever the model path fails
  — callers see a degraded 2xx instead of an error;
* the ``engine.predict`` root span, request metrics, the observer tap,
  and the :class:`~repro.reliability.degradation.HealthMonitor` behind
  ``/healthz``.

Two sibling subclasses supply the model path.  :class:`ServingEngine`
runs it in-process: each query first consults the
:class:`~repro.serving.cache.PredictionCache`, then goes through that
model's :class:`~repro.serving.batcher.MicroBatcher` (or one vectorized
``predict`` when batching is off), guarded per model by a
:class:`~repro.reliability.policies.CircuitBreaker`.  The multi-process
:class:`~repro.cluster.engine.ClusterEngine` runs it in supervised
worker processes.  Between the halves one rule holds: :class:`KeyError`
(unknown model) and
:class:`~repro.reliability.policies.DeadlineExceeded` reach the caller,
and any other exception from a model path is a path failure that the
front half answers from the surrogate, or re-raises when none exists.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..observability.trace import (
    NOOP_SPAN,
    STATUS_ERROR,
    JsonlSpanExporter,
    Tracer,
)
from ..reliability.degradation import (
    HealthMonitor,
    OverloadedError,
    fit_linear_surrogate,
)
from ..reliability.policies import (
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
)
from ..workload.service import INPUT_NAMES, OUTPUT_NAMES
from .batcher import MicroBatcher
from .cache import PredictionCache
from .metrics import ServingMetrics
from .registry import ModelRegistry, RegistryEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability.integrity import IntegrityGuard
    from ..models.linear import LinearWorkloadModel
    from ..reliability.faults import FaultPlan

__all__ = [
    "Engine", "ServingEngine", "PredictionResult", "validate_config_matrix"
]

_SURROGATE_SOURCE = "surrogate:linear"

Observer = Callable[[str, np.ndarray, np.ndarray, str], None]


def validate_config_matrix(configs: Sequence[Sequence[float]]) -> np.ndarray:
    """Coerce ``configs`` to a validated ``(n, len(INPUT_NAMES))`` matrix.

    The admission contract of every engine: two-dimensional, the paper's
    input order, finite floats.  Raises :class:`ValueError` otherwise.
    """
    x = np.asarray(configs, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != len(INPUT_NAMES):
        raise ValueError(
            f"configs must be (n, {len(INPUT_NAMES)}) in "
            f"{INPUT_NAMES} order, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("configs must be finite numbers")
    return x


@dataclass
class PredictionResult:
    """Outputs plus the provenance the HTTP layer surfaces to callers."""

    outputs: np.ndarray
    degraded: bool = False
    source: str = "mlp"


@dataclass
class _Surrogate:
    """A distilled fallback model pinned to the artifact it was fit from."""

    mtime_ns: int
    model: "LinearWorkloadModel"


class Engine:
    """Serve predictions from every model in a registry directory.

    The shared front half.  Subclasses supply the rest:

    * ``_predict_path(model_name, x, deadline) -> PredictionResult`` —
      the model path for a validated matrix ``x``.  It loads the artifact
      through :meth:`_load`, which keeps the surrogate pinned to the
      version on disk, and may raise freely under the rule in the module
      docs;
    * ``_health_evidence() -> (path states, servable, payload fields)``
      for :meth:`health`, path states being breaker states
      (``closed``/``open``/``half_open``) keyed by path name;
    * ``_stop_path(drain, timeout)`` — stop the model path, completing
      its queued work when ``drain``;
    * ``reload(model_name)`` — hot-swap one model.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` the front half
        loads artifacts from (surrogates, integrity, the tuner).
    metrics:
        The :class:`~repro.serving.metrics.ServingMetrics` every request
        is counted in; a fresh one when ``None``.
    fallback:
        Distill a linear surrogate from each artifact version and answer
        from it (flagged *degraded*) when the model path fails.
    max_inflight:
        Soft admission bound: above this many concurrent requests the
        surrogate answers instead of the model path.  ``None`` disables
        the bound.
    shed_inflight:
        Hard admission bound: above this many concurrent requests the
        engine sheds with :class:`OverloadedError` (→ 503 + Retry-After).
        ``None`` disables shedding.
    retry_after_s:
        The ``Retry-After`` hint attached to shed requests.
    observer:
        Optional traffic tap called after every successful prediction as
        ``observer(model_name, configs, outputs, source)`` with the
        ``(n, 4)`` configuration array and ``(n, 5)`` output array.  The
        continuous-learning loop (:mod:`repro.lifecycle`) feeds its
        :class:`~repro.lifecycle.observations.ObservationLog` through
        this hook; observer exceptions are swallowed so capture can
        never fail a request.
    tracing / tracer / trace_sample_rate / slow_trace_ms / trace_export:
        The observability layer.  By default the engine builds its own
        :class:`~repro.observability.trace.Tracer` (head-sampling at
        ``trace_sample_rate``, slow-span override at ``slow_trace_ms``,
        optional JSONL export to ``trace_export``) wired into the
        metrics' per-stage histograms; pass ``tracer`` to share one
        across components, or ``tracing=False`` to disable spans
        entirely.  Every predict emits an ``engine.predict`` span whose
        children the model path adds, plus ``registry.load`` and
        ``fallback.surrogate`` as the request exercises them.
    integrity:
        Optional :class:`~repro.durability.integrity.IntegrityGuard`
        attached to the registry: artifacts are sha256-verified on every
        (re)load, corrupt ones quarantined and — when the guard has a
        rollback hook — transparently replaced by the last verified-good
        stored version.  The guard's metrics default to this engine's.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[ServingMetrics] = None,
        fallback: bool = True,
        max_inflight: Optional[int] = None,
        shed_inflight: Optional[int] = None,
        retry_after_s: float = 1.0,
        observer: Optional[Observer] = None,
        tracing: bool = True,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: Optional[float] = 500.0,
        trace_export: Optional[Union[str, Path]] = None,
        integrity: Optional["IntegrityGuard"] = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if shed_inflight is not None and shed_inflight < 1:
            raise ValueError(f"shed_inflight must be >= 1, got {shed_inflight}")
        self.registry = registry
        self.metrics = metrics if metrics is not None else ServingMetrics()
        if integrity is not None:
            registry.integrity = integrity
            if integrity.metrics is None:
                integrity.metrics = self.metrics
        self.fallback = bool(fallback)
        self.max_inflight = max_inflight
        self.shed_inflight = shed_inflight
        self.retry_after_s = float(retry_after_s)
        self.observer = observer
        self.health_monitor = HealthMonitor()
        self._exporter: Optional[JsonlSpanExporter] = None
        if not tracing:
            self.tracer: Optional[Tracer] = None
        elif tracer is not None:
            self.tracer = tracer
            if self.tracer.on_span_end is None:
                self.tracer.on_span_end = self.metrics.span_observer()
        else:
            if trace_export is not None:
                self._exporter = JsonlSpanExporter(trace_export)
            self.tracer = Tracer(
                sample_rate=trace_sample_rate,
                slow_threshold_s=(
                    None if slow_trace_ms is None else slow_trace_ms / 1000.0
                ),
                exporter=self._exporter,
                on_span_end=self.metrics.span_observer(),
            )
        # The registry traces its (rare) artifact loads into the same tree.
        if self.tracer is not None and registry.tracer is None:
            registry.tracer = self.tracer
        self._surrogates: Dict[str, _Surrogate] = {}
        self._inflight = 0
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------

    def list_models(self) -> List[str]:
        """Model names servable right now."""
        return self.registry.list_models()

    def predict(
        self,
        model_name: str,
        configs: Sequence[Sequence[float]],
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Predict indicators for ``configs`` (rows in ``INPUT_NAMES`` order).

        Returns an ``(n, len(OUTPUT_NAMES))`` array in ``OUTPUT_NAMES``
        column order.  Raises :class:`KeyError` for an unknown model and
        :class:`ValueError` for malformed input.  See
        :meth:`predict_detailed` for the degraded/source annotations.
        """
        return self.predict_detailed(model_name, configs, deadline).outputs

    def predict_detailed(
        self,
        model_name: str,
        configs: Sequence[Sequence[float]],
        deadline: Optional[Deadline] = None,
    ) -> PredictionResult:
        """Like :meth:`predict` but reports whether a fallback answered.

        Raises :class:`KeyError` for an unknown model,
        :class:`OverloadedError` when admission sheds the request,
        :class:`DeadlineExceeded` when the caller's budget lapses, and the
        model path's own error (e.g. ``CircuitOpenError``) only when no
        surrogate can answer.
        """
        start = time.perf_counter()
        span = (
            self.tracer.start_span("engine.predict")
            if self.tracer is not None
            else NOOP_SPAN
        )
        with span:
            x = validate_config_matrix(configs)
            if span is not NOOP_SPAN:
                span.set_attribute("model", model_name)
                span.set_attribute("n_configs", int(x.shape[0]))

            with self._lock:
                if self._draining or self._closed:
                    # Admission is closed: the caller should retry against
                    # another replica (503 + Retry-After at the HTTP layer).
                    self.metrics.count(shed_requests_total=1)
                    raise OverloadedError(
                        retry_after=self.retry_after_s,
                        message="serving engine is not admitting requests",
                    )
                self._inflight += 1
                inflight = self._inflight
            try:
                if (
                    self.shed_inflight is not None
                    and inflight > self.shed_inflight
                ):
                    self.metrics.count(shed_requests_total=1)
                    raise OverloadedError(retry_after=self.retry_after_s)
                soft_overloaded = (
                    self.max_inflight is not None
                    and inflight > self.max_inflight
                )
                result = self._answer(model_name, x, deadline, soft_overloaded)
            finally:
                with self._lock:
                    self._inflight -= 1
            if result.degraded:
                self.metrics.count(degraded_requests_total=1)
            if span is not NOOP_SPAN:
                span.set_attribute("source", result.source)
        if self.observer is not None:
            try:
                self.observer(model_name, x, result.outputs, result.source)
            except Exception:  # noqa: BLE001 - capture must never fail serving
                pass
        self.metrics.record_request(x.shape[0], time.perf_counter() - start)
        return result

    def predict_one(
        self, model_name: str, config: Sequence[float]
    ) -> np.ndarray:
        """Single-configuration convenience; returns a length-5 vector."""
        return self.predict(model_name, [config])[0]

    def _answer(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
        soft_overloaded: bool,
    ) -> PredictionResult:
        """The model path, or the surrogate when it cannot answer."""
        if deadline is not None:
            deadline.check("predict")
        surrogate = self._surrogates.get(model_name)
        if surrogate is None or not soft_overloaded:
            try:
                return self._predict_path(model_name, x, deadline)
            except (KeyError, DeadlineExceeded):
                # A caller error, or no time left to fall back.
                raise
            except Exception:  # noqa: BLE001 - path failure: degrade
                surrogate = self._surrogates.get(model_name)
                if surrogate is None:
                    raise
        fallback_span = (
            self.tracer.start_span(
                "fallback.surrogate", attributes={"model": model_name}
            )
            if self.tracer is not None
            else NOOP_SPAN
        )
        with fallback_span:
            outputs = np.asarray(surrogate.model.predict(x), dtype=float)
        return PredictionResult(
            outputs, degraded=True, source=_SURROGATE_SOURCE
        )

    def _load(self, model_name: str) -> RegistryEntry:
        """Load ``model_name`` and (re)fit its surrogate on a new version.

        Raises :class:`KeyError` for an unknown model and
        :class:`ValueError` for an artifact that will not load.  The
        surrogate is distilled the first time an artifact version loads,
        and the last good one survives later load failures — that is the
        whole point of having it.
        """
        entry = self.registry.get_entry(model_name)
        current = self._surrogates.get(model_name)
        if self.fallback and (
            current is None or current.mtime_ns != entry.mtime_ns
        ):
            try:
                surrogate = fit_linear_surrogate(entry.model)
            except Exception:  # noqa: BLE001 - fallback is best-effort
                return entry
            with self._lock:
                self._surrogates[model_name] = _Surrogate(
                    mtime_ns=entry.mtime_ns, model=surrogate
                )
        return entry

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload: status plus the evidence behind it."""
        models = self.list_models()
        paths, servable, evidence = self._health_evidence()
        with self._lock:
            inflight = self._inflight
            closed = self._closed
            draining = self._draining
            fallbacks = sorted(self._surrogates)
        shedding = (
            self.shed_inflight is not None and inflight > self.shed_inflight
        )
        status = self.health_monitor.update(
            paths,
            shedding=shedding,
            servable=servable and not closed and bool(models),
        )
        return {
            "status": status,
            "models": len(models),
            **evidence,
            "fallbacks": fallbacks,
            "inflight": inflight,
            "draining": draining,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether admission is closed (``/readyz`` answers not-ready)."""
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently past admission (drives the tuning shed tier)."""
        with self._lock:
            return self._inflight

    def drain(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: refuse new work, finish what was admitted.

        Flips the engine into draining mode (new :meth:`predict` calls
        shed with 503 + Retry-After and ``/readyz`` reports not-ready),
        waits up to ``timeout`` for the requests that already passed
        admission, lets the model path finish the work queued on it,
        and flushes the trace exporter.  The engine refuses new work
        afterwards; call it once, from the SIGTERM / ``/admin/drain``
        path.  Idempotent.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        deadline = time.monotonic() + max(0.0, float(timeout))
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        remaining = max(0.1, deadline - time.monotonic())
        self._shutdown(drain=True, timeout=remaining)

    def close(self) -> None:
        """Refuse new work, stop the model path, flush the trace export."""
        self._shutdown(drain=False, timeout=5.0)

    def _shutdown(self, drain: bool, timeout: float) -> None:
        with self._lock:
            self._closed = True
        self._stop_path(drain, timeout)
        if self._exporter is not None:
            self._exporter.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServingEngine(Engine):
    """The in-process engine: cache → micro-batcher → model, per request.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry`, or a directory
        path to build one from.
    batching:
        Route queries through per-model micro-batchers.  Off, each
        request runs its own vectorized ``predict`` (still batched
        *within* a multi-config request).
    max_batch_size / max_wait_ms:
        Micro-batcher knobs (see :class:`~repro.serving.batcher.MicroBatcher`).
    cache_size / cache_decimals:
        Prediction-cache knobs; ``cache_size=0`` disables caching.
    breaker_window / breaker_failure_threshold / breaker_min_samples /
    breaker_reset_timeout:
        Per-model :class:`CircuitBreaker` knobs.  Repeated artifact/model
        failures open the breaker, and recovery is probed half-open
        before trusting the path again.
    clock:
        Monotonic time source for the breakers (injectable for tests).
    faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` handed to
        the registry (when built here) and every micro-batcher.
    fallback / max_inflight / shed_inflight / retry_after_s / observer /
    tracing / tracer / trace_sample_rate / slow_trace_ms / trace_export /
    integrity:
        The shared front half's knobs (see :class:`Engine`).  The model
        path adds ``cache.lookup`` and ``batcher.queue_wait`` /
        ``batcher.execute`` child spans, and a ``breaker.rejected`` span
        when an open breaker refuses the call.
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str, Path],
        batching: bool = True,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        cache_decimals: int = 6,
        fallback: bool = True,
        max_inflight: Optional[int] = None,
        shed_inflight: Optional[int] = None,
        breaker_window: int = 10,
        breaker_failure_threshold: float = 0.5,
        breaker_min_samples: int = 3,
        breaker_reset_timeout: float = 5.0,
        retry_after_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        faults: Optional["FaultPlan"] = None,
        observer: Optional[Observer] = None,
        tracing: bool = True,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: Optional[float] = 500.0,
        trace_export: Optional[Union[str, Path]] = None,
        integrity: Optional["IntegrityGuard"] = None,
    ):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry, faults=faults)
        self.cache = PredictionCache(cache_size, decimals=cache_decimals)
        super().__init__(
            registry,
            ServingMetrics(cache=self.cache),
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
        self.batching = bool(batching)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.breaker_window = int(breaker_window)
        self.breaker_failure_threshold = float(breaker_failure_threshold)
        self.breaker_min_samples = int(breaker_min_samples)
        self.breaker_reset_timeout = float(breaker_reset_timeout)
        self.clock = clock
        self.faults = faults
        self._batchers: Dict[str, MicroBatcher] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._seen_mtimes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # guarded prediction path
    # ------------------------------------------------------------------

    def _predict_path(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
    ) -> PredictionResult:
        breaker = self._breaker_for(model_name)
        if not breaker.allow():
            error = CircuitOpenError(
                retry_after=max(breaker.retry_after(), 0.05),
                message=(
                    f"model {model_name!r} is circuit-broken; retry after "
                    f"{breaker.retry_after():.2f}s"
                ),
            )
            if self.tracer is not None:
                # A refused call has no duration worth measuring; record
                # the rejection itself so the trace shows *why* nothing ran.
                self.tracer.record_span(
                    "breaker.rejected",
                    duration_s=0.0,
                    status=STATUS_ERROR,
                    error=f"CircuitOpenError: {error}",
                    attributes={"model": model_name},
                )
            raise error
        try:
            outputs = self._predict_primary(model_name, x, deadline)
        except KeyError:
            # Unknown model (no artifact on disk) — a caller error, not a
            # path failure; don't move the breaker.
            breaker.cancel()
            raise
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return PredictionResult(outputs)

    def _predict_primary(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
    ) -> np.ndarray:
        """The cache → batcher → model path (may raise freely)."""
        entry = self._load(model_name)  # KeyError if unknown
        self._note_mtime(model_name, entry.mtime_ns)
        model = entry.model
        out = np.empty((x.shape[0], len(OUTPUT_NAMES)), dtype=float)
        miss_rows: List[int] = []
        # A disabled cache (max_entries=0) always misses; a span around
        # it would be pure hot-path overhead with no information.
        cache_span = (
            self.tracer.start_span("cache.lookup")
            if self.tracer is not None and self.cache.max_entries > 0
            else NOOP_SPAN
        )
        with cache_span:
            keys = [self.cache.key(model_name, row) for row in x]
            for i, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    out[i] = cached
                else:
                    miss_rows.append(i)
            if cache_span is not NOOP_SPAN:
                cache_span.set_attribute(
                    "hits", int(x.shape[0]) - len(miss_rows)
                )
                cache_span.set_attribute("misses", len(miss_rows))

        if miss_rows:
            # Duplicate configs inside one request (tuning sweeps repeat
            # themselves) run the network once and share the row.
            groups: Dict[tuple, List[int]] = {}
            for i in miss_rows:
                groups.setdefault(keys[i], []).append(i)
            lead_rows = [rows[0] for rows in groups.values()]
            if self.batching:
                batcher = self._batcher_for(model_name)
                futures = [batcher.submit(x[i]) for i in lead_rows]
                for i, future in zip(lead_rows, futures):
                    timeout = 30.0
                    if deadline is not None:
                        timeout = deadline.clamp(timeout)
                    try:
                        out[i] = future.result(timeout=timeout)
                    except TimeoutError:
                        if deadline is not None and deadline.expired:
                            raise DeadlineExceeded(
                                "prediction exceeded its deadline waiting "
                                "on the micro-batcher"
                            ) from None
                        raise
                self._record_batch_spans(futures)
            else:
                # No separate model.predict span here: on the unbatched
                # path the forward pass is the tail of engine.predict
                # (minus cache.lookup), so a child span would only double
                # the per-request tracing cost for information the parent
                # already carries.
                out[lead_rows] = model.predict(x[lead_rows])
            for rows in groups.values():
                out[rows[1:]] = out[rows[0]]
                self.cache.put(keys[rows[0]], out[rows[0]])
        return out

    def _record_batch_spans(self, futures) -> None:
        """Reconstruct the queue-wait / flush-execute split as child spans.

        The batcher worker stamps ``perf_counter`` timestamps on every
        future it resolves; once the results are in, one
        ``batcher.queue_wait`` / ``batcher.execute`` span pair is recorded
        retrospectively per distinct flushed batch (keyed by its flush
        start, since one request's rows can straddle batches).  This is
        the split micro-batching otherwise hides: time spent waiting for
        stragglers vs time inside the vectorized predict.
        """
        tracer = self.tracer
        if tracer is None:
            return
        parent = tracer.current_span()
        if parent is None or not parent.sampled:
            return
        now_perf = time.perf_counter()
        now_wall = time.time()
        seen = set()
        for future in futures:
            started = future.flush_started_at
            ended = future.flush_ended_at
            if started is None or ended is None or started in seen:
                continue
            seen.add(started)
            tracer.record_span(
                "batcher.queue_wait",
                duration_s=max(0.0, started - future.submitted_at),
                parent=parent,
                start_time=now_wall - (now_perf - future.submitted_at),
            )
            tracer.record_span(
                "batcher.execute",
                duration_s=max(0.0, ended - started),
                parent=parent,
                start_time=now_wall - (now_perf - started),
                attributes={"batch_size": future.batch_size},
            )

    def _health_evidence(self) -> Tuple[Dict[str, str], bool, dict]:
        breakers = {
            name: breaker.state for name, breaker in self._breakers.items()
        }
        # Servable while some model's breaker admits calls or its
        # surrogate can answer in its place.
        servable = not breakers or any(
            state != OPEN or name in self._surrogates
            for name, state in breakers.items()
        )
        return breakers, servable, {"breakers": breakers}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def reload(self, model_name: str) -> None:
        """Hot-swap one model and drop its now-stale cached predictions."""
        self.registry.reload(model_name)
        self.cache.invalidate_model(model_name)
        with self._lock:
            batcher = self._batchers.pop(model_name, None)
        if batcher is not None:
            batcher.close()

    def _stop_path(self, drain: bool, timeout: float) -> None:
        with self._lock:
            batchers, self._batchers = list(self._batchers.values()), {}
        for batcher in batchers:
            batcher.close(timeout=timeout, drain=drain)

    # ------------------------------------------------------------------

    def _note_mtime(self, model_name: str, mtime_ns: int) -> None:
        """Invalidate cached predictions when the artifact was hot-swapped."""
        with self._lock:
            previous = self._seen_mtimes.get(model_name)
            self._seen_mtimes[model_name] = mtime_ns
        if previous is not None and previous != mtime_ns:
            self.cache.invalidate_model(model_name)

    def _breaker_for(self, model_name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(model_name)
            if breaker is None:
                breaker = CircuitBreaker(
                    window=self.breaker_window,
                    failure_threshold=self.breaker_failure_threshold,
                    min_samples=self.breaker_min_samples,
                    reset_timeout=self.breaker_reset_timeout,
                    clock=self.clock,
                    name=model_name,
                    on_state_change=(
                        lambda old, new, name=model_name:
                        self.metrics.set_gauge("breaker_state", name, new)
                    ),
                )
                self._breakers[model_name] = breaker
                self.metrics.set_gauge(
                    "breaker_state", model_name, breaker.state
                )
            return breaker

    def _batcher_for(self, model_name: str) -> MicroBatcher:
        with self._lock:
            if self._closed:
                raise RuntimeError("predict() on a closed ServingEngine")
            batcher = self._batchers.get(model_name)
            if batcher is None:
                # The batcher resolves the model per flush so a hot
                # reload takes effect without restarting the worker.
                batcher = MicroBatcher(
                    lambda batch: self.registry.get(model_name).predict(batch),
                    max_batch_size=self.max_batch_size,
                    max_wait_ms=self.max_wait_ms,
                    on_batch=self.metrics.record_batch,
                    faults=self.faults,
                )
                self._batchers[model_name] = batcher
            return batcher
