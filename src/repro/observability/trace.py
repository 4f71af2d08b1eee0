"""Dependency-free request tracing: spans, a tracer, and a trace buffer.

The serving stack is a multi-stage pipeline (client → HTTP server → cache
→ micro-batcher → engine → registry, with reliability fallbacks and
lifecycle taps); when a request is slow, counters and gauges say *that* it
was slow but not *where*.  This module is the measurement layer underneath
``/traces`` and ``repro trace``:

* :class:`Span` — one timed operation: monotonic start/duration, status,
  free-form attributes, and the ``trace_id``/``span_id``/``parent_id``
  triple that reassembles a request tree.
* :class:`Tracer` — creates spans, keeps the *active* span in a
  ``contextvars.ContextVar`` so nesting follows the call stack (and
  survives into worker callbacks on the same thread), and applies
  deterministic head sampling: the keep/drop decision is a pure function
  of the trace id, so every process that sees the same ``X-Trace-Id``
  makes the same choice without coordination.  Spans that run past
  ``slow_threshold_s`` are *always* recorded and flagged ``slow`` — tail
  latency must never be sampled away.
* :class:`TraceBuffer` — a bounded, thread-safe, in-memory map of
  ``trace_id -> [span dict]`` with oldest-trace eviction; the store behind
  ``GET /traces``.
* :class:`JsonlSpanExporter` — appends every finished span as one JSON
  line; the files it writes are what ``repro trace summary`` aggregates.

Propagation uses two headers: :data:`TRACE_ID_HEADER` carries the trace
id, :data:`PARENT_SPAN_HEADER` the caller's span id.  Everything here is
stdlib-only and thread-safe.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import logging
import os
import random
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "TraceBuffer",
    "JsonlSpanExporter",
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "REQUEST_ID_HEADER",
    "STATUS_OK",
    "STATUS_ERROR",
]

#: Propagation headers (also sent back on responses for joinability).
TRACE_ID_HEADER = "X-Trace-Id"
PARENT_SPAN_HEADER = "X-Parent-Span-Id"
REQUEST_ID_HEADER = "X-Request-Id"

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Hex digits in a trace id / span id.
_TRACE_ID_BITS = 128
_SPAN_ID_BITS = 64

#: The slow-request log (stdlib logging; handlers are the caller's choice).
slow_logger = logging.getLogger("repro.observability.slow")

_active_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_active_span", default=None
)


def _trace_key01(trace_id: str) -> float:
    """Map a trace id to [0, 1) deterministically (the sampling key).

    Every process hashing the same id gets the same key, so a sampling
    decision made by the client holds on the server without any extra
    header — the classic consistent head-sampling trick.
    """
    return int(trace_id[:13], 16) / float(16 ** 13)


class SpanContext:
    """The propagated identity of a trace: ids plus the sampling verdict."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: Optional[str], sampled: bool):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, sampled={self.sampled})"
        )


class Span:
    """One timed operation inside a trace.

    Durations come from ``time.perf_counter`` (monotonic); ``start_time``
    is wall-clock for display only.  A span is *recorded* into its
    tracer's buffer/exporter at :meth:`end` when its trace is sampled or
    when it ran past the slow threshold — an unsampled, fast span costs
    one object and two clock reads, nothing more.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_time",
        "duration_s",
        "status",
        "error",
        "attributes",
        "sampled",
        "_start_perf",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        sampled: bool,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.attributes = attributes
        self.status = STATUS_OK
        self.error: Optional[str] = None
        self.duration_s: Optional[float] = None
        # Wall-clock start is derived lazily in to_dict() — the hot path
        # pays for the monotonic clock only.
        self.start_time: Optional[float] = None
        self._token: Optional[contextvars.Token] = None
        self._start_perf = time.perf_counter()

    # ------------------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> "Span":
        """Attach one key/value to the span (lazy dict allocation)."""
        if self.attributes is None:
            self.attributes = {}
        self.attributes[key] = value
        return self

    def record_error(self, error: BaseException) -> "Span":
        """Mark the span failed with the error's type and message."""
        self.status = STATUS_ERROR
        self.error = f"{type(error).__name__}: {error}"
        return self

    @property
    def context(self) -> SpanContext:
        """This span's identity, ready for header injection."""
        return SpanContext(self.trace_id, self.span_id, self.sampled)

    def end(self) -> None:
        """Stop the clock and hand the span to the tracer (idempotent)."""
        if self.duration_s is not None:
            return
        self.duration_s = time.perf_counter() - self._start_perf
        if self._token is not None:
            _active_span.reset(self._token)
            self._token = None
        self._tracer._finish(self)

    def to_dict(self) -> dict:
        """JSON-serializable form (the shape in buffers and JSONL files)."""
        if self.start_time is None:
            elapsed = (
                self.duration_s
                if self.duration_s is not None
                else time.perf_counter() - self._start_perf
            )
            self.start_time = time.time() - elapsed
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes) if self.attributes else {},
        }

    # ------------------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.status == STATUS_OK:
            self.record_error(exc)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"status={self.status!r}, duration={self.duration_s})"
        )


class _NoopSpan:
    """Shared do-nothing span for stages of unsampled traces.

    Every method is a no-op; one singleton serves all callers, so tracing
    a stage on the unsampled path costs a method call and a branch.
    """

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    sampled = False
    status = STATUS_OK
    duration_s = None
    attributes: Optional[dict] = None

    def set_attribute(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def record_error(self, error: BaseException) -> "_NoopSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class TraceBuffer:
    """Bounded, thread-safe, in-memory store of recent traces.

    Spans land keyed by ``trace_id`` in insertion order; once more than
    ``max_traces`` distinct traces are resident the *oldest* trace (by
    first-span arrival) is evicted whole.  A per-trace span bound guards
    against one runaway trace (e.g. a retrain with thousands of epoch
    spans) evicting everyone else's memory; spans past the bound are
    counted in ``dropped_spans`` instead of stored.
    """

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 512):
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        if max_spans_per_trace < 1:
            raise ValueError(
                f"max_spans_per_trace must be >= 1, got {max_spans_per_trace}"
            )
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.dropped_spans = 0
        self.evicted_traces = 0
        # Plain dicts iterate in insertion order (3.7+), so the first key
        # is always the oldest trace; cheaper than an OrderedDict on the
        # per-span add path.
        self._traces: Dict[str, List[dict]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def add(self, span: dict) -> None:
        """Record one finished span under its trace."""
        trace_id = span["trace_id"]
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = []
                self._traces[trace_id] = spans
                while len(self._traces) > self.max_traces:
                    evicted = self._traces.pop(next(iter(self._traces)))
                    self.evicted_traces += 1
                    self.dropped_spans += len(evicted)
            if len(spans) >= self.max_spans_per_trace:
                self.dropped_spans += 1
                return
            spans.append(span)

    def get(self, trace_id: str) -> Optional[List[dict]]:
        """All spans of one trace (copy), or ``None`` if unknown."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return None if spans is None else list(spans)

    def traces(
        self,
        limit: Optional[int] = None,
        min_duration_s: Optional[float] = None,
        status: Optional[str] = None,
    ) -> List[dict]:
        """Recent traces, newest first, optionally filtered.

        ``min_duration_s`` keeps traces whose longest span (the root, in a
        well-formed trace) meets the bound; ``status`` keeps traces
        containing at least one span with that status.
        """
        with self._lock:
            snapshot = [
                (trace_id, list(spans))
                for trace_id, spans in self._traces.items()
            ]
        results = []
        for trace_id, spans in reversed(snapshot):
            durations = [
                s["duration_s"] for s in spans if s["duration_s"] is not None
            ]
            duration = max(durations) if durations else 0.0
            if min_duration_s is not None and duration < min_duration_s:
                continue
            if status is not None and all(
                s["status"] != status for s in spans
            ):
                continue
            results.append(
                {
                    "trace_id": trace_id,
                    "duration_s": duration,
                    "n_spans": len(spans),
                    "spans": spans,
                }
            )
            if limit is not None and len(results) >= limit:
                break
        return results

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def span_count(self) -> int:
        """Total spans resident right now."""
        with self._lock:
            return sum(len(spans) for spans in self._traces.values())

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceBuffer(traces={len(self)}/{self.max_traces}, "
            f"spans={self.span_count})"
        )


class JsonlSpanExporter:
    """Append finished spans to a JSONL file, one span per line.

    Thread-safe; lines are written and flushed atomically under a lock so
    concurrent spans never interleave.  The output is the input format of
    ``repro trace summary`` / ``tail`` / ``show``.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self._closed = False

    def write(self, span: dict) -> None:
        line = json.dumps(span, sort_keys=True)
        with self._lock:
            if self._closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS (the graceful-drain hook).

        ``write`` already flushes per line; this exists so drain
        sequences can treat every sink uniformly, and is safe after
        :meth:`close`.
        """
        with self._lock:
            if not self._closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Tracer:
    """Create spans, track the active one, sample, and fan out finishes.

    Parameters
    ----------
    sample_rate:
        Fraction of traces whose spans are recorded, in ``[0, 1]``.  The
        decision is *per trace* and a deterministic function of the trace
        id (consistent head sampling), so a caller and a server looking at
        the same ``X-Trace-Id`` agree without coordination.
    slow_threshold_s:
        Spans running at least this long are recorded and flagged
        ``slow=True`` even when their trace was sampled out, and land in
        the bounded slow-span log (:meth:`slow_spans`).  ``None`` disables
        the override.
    buffer:
        The :class:`TraceBuffer` finished spans land in (a default-sized
        one is created when omitted).
    exporter:
        Optional :class:`JsonlSpanExporter` (anything with
        ``write(span_dict)``) that every recorded span is also sent to.
    seed:
        Seeds the trace/span id generator — a seeded tracer emits a
        reproducible id stream, which (ids being the sampling key) makes
        the whole sampling sequence replayable in tests.
    on_span_end:
        Optional hook ``(span_dict) -> None`` called for every *recorded*
        span — the serving metrics use it to feed per-stage latency
        histograms.  Hook errors are swallowed; observability must never
        fail the traffic it observes.
    slow_log_size:
        Bound on the retained slow-span log.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        slow_threshold_s: Optional[float] = 0.5,
        buffer: Optional[TraceBuffer] = None,
        exporter: Optional[JsonlSpanExporter] = None,
        seed: Optional[int] = None,
        on_span_end: Optional[Callable[[dict], None]] = None,
        slow_log_size: int = 128,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise ValueError(
                f"slow_threshold_s must be >= 0, got {slow_threshold_s}"
            )
        self.sample_rate = float(sample_rate)
        self.slow_threshold_s = (
            None if slow_threshold_s is None else float(slow_threshold_s)
        )
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.exporter = exporter
        self.on_span_end = on_span_end
        self.spans_started = 0
        self.spans_recorded = 0
        self._rng = random.Random(seed) if seed is not None else None
        self._id_lock = threading.Lock()
        # Span ids only need process-local uniqueness, so the unseeded
        # path uses a randomly-offset atomic counter instead of a urandom
        # syscall per span — this is on the predict hot path.
        self._span_counter = itertools.count(
            int.from_bytes(os.urandom(6), "big") << 16
        )
        self._slow: "deque[dict]" = deque(maxlen=int(slow_log_size))

    # ------------------------------------------------------------------
    # ids and sampling
    # ------------------------------------------------------------------

    def new_trace_id(self) -> str:
        # Trace ids must stay uniformly random: their leading hex digits
        # are the consistent head-sampling key.
        if self._rng is None:
            return os.urandom(_TRACE_ID_BITS // 8).hex()
        with self._id_lock:
            return f"{self._rng.getrandbits(_TRACE_ID_BITS):032x}"

    def new_span_id(self) -> str:
        if self._rng is None:
            return f"{next(self._span_counter) & 0xFFFFFFFFFFFFFFFF:016x}"
        with self._id_lock:
            return f"{self._rng.getrandbits(_SPAN_ID_BITS):016x}"

    def should_sample(self, trace_id: str) -> bool:
        """The deterministic head-sampling verdict for one trace id."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        try:
            return _trace_key01(trace_id) < self.sample_rate
        except (ValueError, IndexError):
            return True  # unparseable foreign id: keep it visible

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------

    def current_span(self):
        """The active span in this context (may be the no-op span)."""
        return _active_span.get()

    def start_span(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
        context: Optional[SpanContext] = None,
        activate: bool = True,
    ):
        """Open a span; nesting follows the active span unless overridden.

        Resolution order for the parent: explicit ``parent`` span, then
        explicit propagated ``context`` (extracted headers), then the
        context-local active span, then a brand-new root trace.  Returns
        the shared :data:`NOOP_SPAN` for interior spans of unsampled
        traces; roots of unsampled traces still get a real (cheap) span so
        the slow-threshold override can recover them.
        """
        self.spans_started += 1
        if parent is None and context is None:
            parent = _active_span.get()
        if parent is not None:
            if not parent.sampled:
                return NOOP_SPAN
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = True
        elif context is not None:
            trace_id = context.trace_id
            parent_id = context.span_id
            sampled = (
                context.sampled
                if context.sampled is not None
                else self.should_sample(trace_id)
            )
            if not sampled and self.slow_threshold_s is None:
                return NOOP_SPAN
        else:
            trace_id = self.new_trace_id()
            parent_id = None
            sampled = self.should_sample(trace_id)
            if not sampled and self.slow_threshold_s is None:
                return NOOP_SPAN
        span = Span(
            self,
            name,
            trace_id=trace_id,
            span_id=self.new_span_id(),
            parent_id=parent_id,
            sampled=sampled,
            attributes=attributes,
        )
        if activate:
            span._token = _active_span.set(span)
        return span

    def record_span(
        self,
        name: str,
        duration_s: float,
        parent: Optional[Span] = None,
        start_time: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
        status: str = STATUS_OK,
        error: Optional[str] = None,
    ) -> Optional[dict]:
        """Record a span retrospectively from externally-measured times.

        For stages whose timing is captured by another thread (the
        micro-batcher's queue-wait / flush-execute split) or derived after
        the fact (per-epoch training spans).  No-op unless the parent's
        trace is sampled.
        """
        if parent is None:
            parent = _active_span.get()
        if parent is None or not parent.sampled:
            return None
        span = {
            "trace_id": parent.trace_id,
            "span_id": self.new_span_id(),
            "parent_id": parent.span_id,
            "name": name,
            "start_time": (
                time.time() - duration_s if start_time is None else start_time
            ),
            "duration_s": float(duration_s),
            "status": status,
            "error": error,
            "attributes": dict(attributes) if attributes else {},
        }
        self._record(span)
        return span

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def extract_context(self, headers: Mapping[str, str]) -> Optional[SpanContext]:
        """Read propagation headers into a context (``None`` if absent)."""
        trace_id = headers.get(TRACE_ID_HEADER)
        if not trace_id:
            return None
        return SpanContext(
            trace_id=trace_id,
            span_id=headers.get(PARENT_SPAN_HEADER) or None,
            sampled=self.should_sample(trace_id),
        )

    @staticmethod
    def inject_context(span, headers: Dict[str, str]) -> Dict[str, str]:
        """Write a span's identity into an outgoing header dict."""
        if span is not None and span.trace_id:
            headers[TRACE_ID_HEADER] = span.trace_id
            headers[PARENT_SPAN_HEADER] = span.span_id
        return headers

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _finish(self, span: Span) -> None:
        slow = (
            self.slow_threshold_s is not None
            and span.duration_s is not None
            and span.duration_s >= self.slow_threshold_s
        )
        if not span.sampled and not slow:
            return
        payload = span.to_dict()
        if slow:
            payload["attributes"]["slow"] = True
            self._slow.append(payload)
            slow_logger.warning(
                "slow span %s trace=%s duration=%.1fms status=%s",
                span.name,
                span.trace_id,
                span.duration_s * 1000.0,
                span.status,
            )
        self._record(payload)

    def _record(self, payload: dict) -> None:
        self.spans_recorded += 1
        self.buffer.add(payload)
        if self.exporter is not None:
            try:
                self.exporter.write(payload)
            except Exception:  # noqa: BLE001 - observers must not fail traffic
                pass
        if self.on_span_end is not None:
            try:
                self.on_span_end(payload)
            except Exception:  # noqa: BLE001 - observers must not fail traffic
                pass

    def slow_spans(self) -> List[dict]:
        """The retained slow-span log, oldest first."""
        return list(self._slow)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(sample_rate={self.sample_rate}, "
            f"recorded={self.spans_recorded}/{self.spans_started})"
        )
