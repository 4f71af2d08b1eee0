"""Serving observability: counters plus a ring-buffer latency histogram.

Monotonic counters track requests, predictions, batches, errors, and the
reliability, lifecycle, durability, tuning and cluster layers' outcomes;
keyed gauges mirror each cluster worker's state and queue depth and each
model's drift score and circuit-breaker state.  Each counter is one row
of :data:`COUNTERS` and each gauge one row of :data:`GAUGES`, so adding a
metric is adding a row.  A fixed-size ring buffer of recent request
latencies yields p50/p95/p99 without unbounded memory.  On top of the
window, per-pipeline-stage fixed-bucket
:class:`~repro.observability.histogram.LatencyHistogram` instances (fed by
the tracing layer through :meth:`ServingMetrics.span_observer`) expose
Prometheus ``_bucket`` lines from which p50/p95/p99 per stage are
derivable by any backend.  Rendered two ways: a plain ``dict`` (for the
JSON-minded) and a Prometheus-style text exposition (for scrapers).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Optional

import numpy as np

from ..observability.histogram import LatencyHistogram
from ..reliability.policies import BREAKER_STATES
from .cache import PredictionCache

__all__ = ["COUNTERS", "GAUGES", "ServingMetrics", "WORKER_STATE_VALUES"]

_QUANTILES = (0.5, 0.95, 0.99)

#: Numeric encoding of cluster worker states for the Prometheus gauge
#: (mirrors ``repro.cluster.supervisor.WORKER_STATES``; defined here to
#: keep the metrics layer import-free of the cluster package).
WORKER_STATE_VALUES = {
    "starting": 0,
    "ready": 1,
    "suspect": 2,
    "restarting": 3,
    "failed": 4,
    "stopped": 5,
}

#: Every counter as ``(name, Prometheus help)``, in exposition order.  A
#: ``None`` help keeps the counter out of the text exposition (it still
#: appears in :meth:`ServingMetrics.to_dict`).
COUNTERS = (
    ("requests_total", "Requests served."),
    ("predictions_total", "Configurations predicted."),
    ("errors_total", "Failed requests."),
    ("degraded_requests_total", "Requests answered by a fallback tier."),
    ("shed_requests_total", "Requests refused by load shedding."),
    ("batches_total", "Micro-batches flushed."),
    ("batched_items_total", None),
    # Continuous-learning loop (repro.lifecycle).
    ("observations_total",
     "Traffic observations captured by the lifecycle tap."),
    ("retrains_total", "Lifecycle retraining runs."),
    ("promotions_total", "Candidate models promoted."),
    ("rollbacks_total", "Promotions rolled back."),
    # Durability (repro.durability).
    ("artifact_verify_failures_total",
     "Artifacts whose bytes failed sha256 verification."),
    ("artifacts_quarantined_total",
     "Corrupt artifacts moved into quarantine."),
    ("auto_rollbacks_total",
     "Verified-good versions redeployed over corrupt artifacts."),
    ("journal_records_recovered_total",
     "Observation journal records replayed after restart."),
    ("journal_records_dropped_total",
     "Observation journal records lost to torn tails."),
    ("recoveries_total", "Startup recovery passes completed."),
    # Autotuning (repro.tuning).
    ("recommendations_total", "Configuration recommendations served."),
    ("recommendation_cache_hits_total",
     "Recommendations answered from the LRU cache."),
    ("recommendation_search_evals_total",
     "Model evaluations spent in recommendation searches."),
    # Cluster (repro.cluster).
    ("worker_restarts_total", "Cluster worker processes respawned."),
    ("worker_failovers_total", "Requests retried on a sibling replica."),
)

#: Every keyed gauge as ``(name, label, Prometheus help, encoding)``.  A
#: dict encoding lists the allowed states and the number each is exposed
#: as; a type converts the value when it is set.  ``to_dict`` keys the
#: gauge as ``name + "s"``; an empty gauge is left out of the text.
GAUGES = (
    ("worker_state", "worker",
     "Cluster worker state (0=starting, 1=ready, 2=suspect, 3=restarting, "
     "4=failed, 5=stopped).", WORKER_STATE_VALUES),
    ("worker_queue_depth", "worker",
     "In-flight and queued calls per cluster worker.", int),
    ("drift_score", "model",
     "Latest configuration-drift score per model.", float),
    ("breaker_state", "model",
     "Circuit-breaker state per model (0=closed, 1=half_open, 2=open).",
     BREAKER_STATES),
)

_ENCODINGS = {name: encoding for name, _, _, encoding in GAUGES}


class ServingMetrics:
    """Thread-safe serving counters, gauges and latency percentiles.

    Parameters
    ----------
    window:
        Ring-buffer capacity for latency samples; percentiles describe the
        most recent ``window`` requests.
    cache:
        Optional :class:`~repro.serving.cache.PredictionCache` whose
        hit/miss counters are folded into the exposition.
    """

    def __init__(
        self, window: int = 1024, cache: Optional[PredictionCache] = None
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.cache = cache
        #: ``{counter name: count}`` for every :data:`COUNTERS` row.
        self.counters: Dict[str, int] = {name: 0 for name, _ in COUNTERS}
        self._gauges: Dict[str, dict] = {name: {} for name in _ENCODINGS}
        self._latencies = deque(maxlen=int(window))
        self._stage_hist: Dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def count(self, **deltas: int) -> None:
        """Add to counters by name: ``count(shed_requests_total=1)``.

        A name that is not a :data:`COUNTERS` row raises ``KeyError``.
        """
        with self._lock:
            for name, delta in deltas.items():
                self.counters[name] += int(delta)

    def record_request(self, n_configs: int, latency_s: float) -> None:
        """One served request of ``n_configs`` configurations."""
        with self._lock:
            self.counters["requests_total"] += 1
            self.counters["predictions_total"] += int(n_configs)
            self._latencies.append(float(latency_s))

    def record_batch(self, batch_size: int) -> None:
        """One flushed micro-batch (hook for ``MicroBatcher.on_batch``)."""
        self.count(batches_total=1, batched_items_total=batch_size)

    def record_worker_failover(self) -> None:
        """One request retried on a sibling replica after a worker failure."""
        self.count(worker_failovers_total=1)

    def set_gauge(self, name: str, key: str, value) -> None:
        """Set gauge ``name`` for one worker or model (``key``).

        A state outside a dict encoding raises ``ValueError``; an unknown
        gauge name raises ``KeyError``.
        """
        encoding = _ENCODINGS[name]
        if not isinstance(encoding, dict):
            value = encoding(value)
        elif value not in encoding:
            raise ValueError(
                f"unknown {name.replace('_', ' ')} {value!r}; "
                f"expected one of {sorted(encoding)}"
            )
        with self._lock:
            self._gauges[name][key] = value

    def gauge(self, name: str) -> dict:
        """Snapshot of one gauge: ``{worker or model: value}``."""
        with self._lock:
            return dict(self._gauges[name])

    def span_observer(self) -> Callable[[dict], None]:
        """An ``on_span_end`` hook feeding span durations into histograms.

        Wire it into a :class:`~repro.observability.trace.Tracer` and every
        recorded span becomes a sample in the histogram named after its
        stage (the span name) — the bridge between tracing and metrics.
        """

        cache: Dict[str, LatencyHistogram] = {}

        def observe(span: dict) -> None:
            duration = span.get("duration_s")
            if duration is None:
                return
            name = span["name"]
            # Per-observer histogram cache: after the first span of each
            # stage, the hot path skips the registry lock entirely.
            hist = cache.get(name)
            if hist is None:
                with self._lock:
                    hist = self._stage_hist.get(name)
                    if hist is None:
                        hist = self._stage_hist[name] = LatencyHistogram()
                cache[name] = hist
            hist.observe(duration)

        return observe

    def stage_latencies(self) -> Dict[str, dict]:
        """Per-stage quantile estimates: ``{stage: {p50, p95, p99, ...}}``."""
        with self._lock:
            histograms = dict(self._stage_hist)
        return {
            stage: hist.to_dict() for stage, hist in sorted(histograms.items())
        }

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the latency window (zeros when empty)."""
        with self._lock:
            samples = np.asarray(self._latencies, dtype=float)
        if samples.size == 0:
            return {f"p{int(q * 100)}": 0.0 for q in _QUANTILES}
        values = np.quantile(samples, _QUANTILES)
        return {
            f"p{int(q * 100)}": float(v) for q, v in zip(_QUANTILES, values)
        }

    @property
    def mean_batch_occupancy(self) -> float:
        """Average configurations per flushed micro-batch."""
        batches = self.counters["batches_total"]
        items = self.counters["batched_items_total"]
        return items / batches if batches else 0.0

    def to_dict(self) -> dict:
        """Snapshot of everything, JSON-serializable."""
        with self._lock:
            snapshot = dict(self.counters)
            for name, values in self._gauges.items():
                snapshot[f"{name}s"] = dict(values)
        snapshot["mean_batch_occupancy"] = self.mean_batch_occupancy
        snapshot["latency_seconds"] = self.latency_quantiles()
        snapshot["stage_latency_seconds"] = self.stage_latencies()
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats()
        return snapshot

    def to_prometheus(self, prefix: str = "repro_serving") -> str:
        """Prometheus text exposition (counters + gauge-style quantiles)."""
        lines = []

        def emit(name, kind, help_text, *samples):
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} {kind}")
            for labels, value in samples:
                lines.append(f"{prefix}_{name}{labels} {value}")

        with self._lock:
            counters = dict(self.counters)
            gauges = {name: dict(v) for name, v in self._gauges.items()}
            histograms = sorted(self._stage_hist.items())
        for name, help_text in COUNTERS:
            if help_text is not None:
                emit(name, "counter", help_text, ("", counters[name]))
        for name, label, help_text, encoding in GAUGES:
            values = gauges[name]
            if values:
                emit(name, "gauge", help_text, *(
                    (f'{{{label}="{key}"}}',
                     encoding[v] if isinstance(encoding, dict) else v)
                    for key, v in sorted(values.items())
                ))
        emit("batch_occupancy_mean", "gauge",
             "Mean configurations per micro-batch.",
             ("", self.mean_batch_occupancy))
        if self.cache is not None:
            stats = self.cache.stats()
            emit("cache_hits_total", "counter",
                 "Prediction cache hits.", ("", stats["hits"]))
            emit("cache_misses_total", "counter",
                 "Prediction cache misses.", ("", stats["misses"]))
            emit("cache_hit_rate", "gauge",
                 "Prediction cache hit rate.", ("", stats["hit_rate"]))
            emit("cache_entries", "gauge",
                 "Resident cache entries.", ("", stats["size"]))
        emit("request_latency_seconds", "summary",
             "Request latency over the recent window.", *(
                 (f'{{quantile="{int(name[1:]) / 100.0}"}}', value)
                 for name, value in self.latency_quantiles().items()
             ))
        if histograms:
            metric = f"{prefix}_stage_latency_seconds"
            lines.append(
                f"# HELP {metric} Pipeline-stage latency from traced spans."
            )
            lines.append(f"# TYPE {metric} histogram")
            for stage, hist in histograms:
                lines.extend(
                    hist.prometheus_lines(metric, f'stage="{stage}"')
                )
        return "\n".join(lines) + "\n"
