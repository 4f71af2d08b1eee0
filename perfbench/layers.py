"""Metric definitions and the per-layer breakdown of a traced phase.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json`` names
(a benchmark test keeps the two in step).  The breakdown functions turn
a traced phase's span aggregates into per-layer numbers: a layer's self
time (its own time minus its timed children), its counts, and the
remainder of the end-to-end time that no layer accounts for.  A layer
the traced phase never reaches reports 0.
"""

from __future__ import annotations

from spans import counter

#: (name, unit, better, phase) -- ``phase`` None means the workload's own.
END_TO_END = (
    ("setup_s", "s", "lower", None),
    ("rss_mb", "MiB", "lower", None),
    ("pipeline_s", "s", "lower", "reproduce"),
    ("table2_accuracy", "fraction", "higher", "reproduce"),
    ("p50_ms", "ms", "lower", "point"),
    ("tail_ms", "ms", "lower", "point"),
    ("capacity_rps", "req/s", "higher", "point"),
    ("sweep_rows_per_s", "rows/s", "higher", "tune"),
    ("sweep_tail_ms", "ms", "lower", "tune"),
    ("recommend_p50_ms", "ms", "lower", "tune"),
    ("recommend_tail_ms", "ms", "lower", "tune"),
)

PER_LAYER = (
    ("workload.run_s", "s", "lower"),
    ("workload.events", "count", "lower"),
    ("workload.us_per_event", "us", "lower"),
    ("nn.fit_s", "s", "lower"),
    ("nn.epochs", "count", "lower"),
    ("nn.us_per_epoch", "us", "lower"),
    ("nn.forward_us", "us", "lower"),
    ("nn.forward_rows", "rows", "higher"),
    ("model_selection.cv_self_s", "s", "lower"),
    ("analysis.figures_s", "s", "lower"),
    ("serving.http_self_ms", "ms", "lower"),
    ("serving.engine_self_us", "us", "lower"),
    ("serving.validate_us", "us", "lower"),
    ("serving.cache_us", "us", "lower"),
    ("serving.cache_hit_ratio", "fraction", "higher"),
    ("serving.batcher_wait_us", "us", "lower"),
    ("serving.batch_rows", "rows", "higher"),
    ("cluster.call_us", "us", "lower"),
    ("cluster.worker_predict_us", "us", "lower"),
    ("cluster.ipc_us", "us", "lower"),
    ("cluster.frame_bytes", "bytes", "lower"),
    ("cluster.busiest_worker_share", "fraction", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("tuning.recommend_ms", "ms", "lower"),
    ("tuning.evals", "count", "lower"),
    ("lifecycle.observe_us", "us", "lower"),
    ("lifecycle.rows_observed", "count", "higher"),
    ("durability.journal_bytes_per_row", "bytes", "lower"),
    ("loadgen.late_ms", "ms", "lower"),
    ("share.workload.run_s", "fraction", "lower"),
    ("share.serving.http_self_ms", "fraction", "lower"),
    ("share.serving.batcher_wait_us", "fraction", "lower"),
    ("trace.remainder_share", "fraction", "lower"),
) + tuple(
    (f"trace.overhead.{name}", "fraction", "lower") for name, *_ in END_TO_END
)

_EMPTY = {"count": 0, "total_s": 0.0, "self_s": 0.0}


def _span(snapshot: dict, name: str) -> dict:
    return snapshot["spans"].get(name, _EMPTY)


def _per(amount: float, count: float) -> float:
    return amount / count if count else 0.0


def reproduce(trace: dict, metrics: dict) -> dict:
    """Per simulation, per CV fit, CV's own time and the figures."""
    snap, pipeline_s = trace["layers"], trace["pipeline_s"]
    run = _span(snap, "workload.run")
    fit = _span(snap, "nn.fit")
    cv = _span(snap, "model_selection.cross_validate")
    figures = _span(snap, "analysis.figures")
    events = counter(snap, "workload.events")
    epochs = counter(snap, "nn.epochs")
    accounted = run["total_s"] + cv["total_s"] + figures["total_s"]
    return {
        "workload.run_s": _per(run["total_s"], run["count"]),
        "workload.events": _per(events, run["count"]),
        "workload.us_per_event": _per(run["total_s"] * 1e6, events),
        "nn.fit_s": _per(fit["total_s"], fit["count"]),
        "nn.epochs": _per(epochs, fit["count"]),
        "nn.us_per_epoch": _per(fit["total_s"] * 1e6, epochs),
        "model_selection.cv_self_s": cv["self_s"],
        "analysis.figures_s": figures["total_s"],
        "share.workload.run_s": run["total_s"] / pipeline_s,
        "trace.remainder_share": (pipeline_s - accounted) / pipeline_s,
    }


def point(trace: dict, metrics: dict) -> dict:
    """Per open-loop request: HTTP, engine, validation, cache, batcher.

    Requests are decomposed by means: the latency from the due time is
    the generator's lateness + the HTTP round trip, and the round trip is
    ``http_self`` + ``predict_detailed``, whose children are validation,
    the cache and the batcher hand-off.  The batcher's queue wait and
    flush are named layers; its wake-up of the request thread is not, so
    it lands in the remainder.
    """
    snap = trace["server"]
    engine = _span(snap, "serving.engine")
    requests = engine["count"]
    forward = _span(snap, "nn.forward")
    batched = counter(snap, "serving.batched")
    wait_s = counter(snap, "serving.batcher_wait_s")
    http_self_s = trace["rtt_mean_s"] - _per(engine["total_s"], requests)
    accounted = (
        trace["late_mean_s"]
        + http_self_s
        + _per(engine["self_s"], requests)
        + _per(_span(snap, "serving.validate")["total_s"], requests)
        + _per(_span(snap, "serving.cache")["total_s"], requests)
        + _per(wait_s + counter(snap, "serving.batcher_exec_s"), requests)
    )
    p50_s = metrics["p50_ms"] / 1000.0
    return {
        "nn.forward_us": _per(forward["total_s"] * 1e6, forward["count"]),
        "nn.forward_rows": _per(counter(snap, "nn.forward_rows"), forward["count"]),
        "serving.http_self_ms": http_self_s * 1e3,
        "serving.engine_self_us": _per(engine["self_s"] * 1e6, requests),
        "serving.validate_us": _per(
            _span(snap, "serving.validate")["total_s"] * 1e6, requests
        ),
        "serving.cache_us": _per(
            _span(snap, "serving.cache")["total_s"] * 1e6, requests
        ),
        "serving.cache_hit_ratio": _per(
            counter(snap, "serving.cache_hits"), counter(snap, "serving.cache_gets")
        ),
        "serving.batcher_wait_us": _per(wait_s * 1e6, batched),
        "serving.batch_rows": _per(counter(snap, "serving.batch_rows"), batched),
        "loadgen.late_ms": trace["late_p99_ms"],
        "share.serving.http_self_ms": http_self_s / p50_s,
        "share.serving.batcher_wait_us": _per(wait_s, requests) / p50_s,
        "trace.remainder_share": 1.0 - accounted / trace["latency_mean_s"],
    }


def _worker_calls(snapshot: dict) -> dict:
    """Calls per worker id, over both the sweep and the search path."""
    calls = {}
    for name, value in snapshot["counters"].items():
        prefix, _, worker = name.rpartition(".worker")
        if prefix.endswith("cluster.calls"):
            calls[worker] = calls.get(worker, 0.0) + value
    return calls


def tune(trace: dict, metrics: dict) -> dict:
    """Per sweep (the top-level path) and per search (``recommend/``).

    ``http_self`` and ``engine_self`` are differences, so a sweep's round
    trip is tiled by its layers; the remainder is the clients' time
    between requests.
    """
    snap = trace["server"]
    engine = _span(snap, "serving.engine")
    call = _span(snap, "cluster.call")
    observe = _span(snap, "lifecycle.observe")
    recommend = _span(snap, "tuning.recommend")
    worker_s = counter(snap, "cluster.worker_predict_s")
    rows = sum(
        counter(s, name) for s in (snap, trace["warmup"])
        for name in ("lifecycle.rows", "recommend/lifecycle.rows")
    )
    calls = _worker_calls(snap)
    return {
        "serving.http_self_ms": (
            trace["sweep_rtt_mean_s"] - _per(engine["total_s"], engine["count"])
        ) * 1e3,
        "serving.engine_self_us": _per(engine["self_s"] * 1e6, engine["count"]),
        "serving.validate_us": _per(
            _span(snap, "serving.validate")["total_s"] * 1e6, engine["count"]
        ),
        "cluster.call_us": _per(call["total_s"] * 1e6, call["count"]),
        "cluster.worker_predict_us": _per(worker_s * 1e6, call["count"]),
        "cluster.ipc_us": _per((call["total_s"] - worker_s) * 1e6, call["count"]),
        "cluster.frame_bytes": _per(
            counter(snap, "cluster.frame_bytes"), call["count"]
        ),
        "cluster.busiest_worker_share": _per(
            max(calls.values(), default=0.0), sum(calls.values())
        ),
        "cluster.failovers": counter(snap, "cluster.failovers")
        + counter(snap, "recommend/cluster.failovers"),
        "tuning.recommend_ms": _per(recommend["total_s"] * 1e3, recommend["count"]),
        "tuning.evals": _per(counter(snap, "tuning.evals"), recommend["count"]),
        "lifecycle.observe_us": _per(observe["total_s"] * 1e6, observe["count"]),
        "lifecycle.rows_observed": counter(snap, "lifecycle.rows")
        + counter(snap, "recommend/lifecycle.rows"),
        "durability.journal_bytes_per_row": _per(trace["journal_bytes"], rows),
        "trace.remainder_share": 1.0 - trace["requests_s"] / trace["client_s"],
    }


BREAKDOWN = {"reproduce": reproduce, "point": point, "tune": tune}


def per_layer(workload: str, trace: dict, metrics: dict) -> dict:
    """Every ``PER_LAYER`` metric for a traced run of ``workload``."""
    values = {name: 0.0 for name, *_ in PER_LAYER}
    values.update(BREAKDOWN[workload](trace, metrics))
    return values
