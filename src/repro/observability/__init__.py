"""Observability: end-to-end tracing, per-stage profiling, histograms.

The serving + lifecycle stack answers requests through many stages (HTTP
parse, cache, micro-batcher queue/flush, registry load, engine predict,
fallback tiers, retrain/gate/promote cycles); this package shows where a
request's time went.  A :class:`~repro.observability.trace.Tracer` builds
parent/child :class:`~repro.observability.trace.Span` trees with
context-local nesting, deterministic head sampling, a slow-span override,
and propagation headers (``X-Trace-Id`` / ``X-Parent-Span-Id``); spans
land in a bounded in-memory
:class:`~repro.observability.trace.TraceBuffer` (behind ``GET /traces``)
and optionally a
:class:`~repro.observability.trace.JsonlSpanExporter` file (behind
``repro trace``).  The paper's own methodology is measurement-driven —
Section 4 instruments per-transaction-class response times to build
Table 2 — and the traces this layer captures are the same kind of
per-stage timing data, fit for both debugging tail latency and training
workload models.  Everything is stdlib-only.
"""

from .histogram import DEFAULT_BUCKETS, LatencyHistogram
from .hooks import epoch_span_hook
from .trace import (
    PARENT_SPAN_HEADER,
    REQUEST_ID_HEADER,
    STATUS_ERROR,
    STATUS_OK,
    TRACE_ID_HEADER,
    JsonlSpanExporter,
    Span,
    SpanContext,
    TraceBuffer,
    Tracer,
)

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "TraceBuffer",
    "JsonlSpanExporter",
    "LatencyHistogram",
    "DEFAULT_BUCKETS",
    "epoch_span_hook",
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "REQUEST_ID_HEADER",
    "STATUS_OK",
    "STATUS_ERROR",
]
