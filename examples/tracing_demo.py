"""Tracing demo: follow one request through every stage of the stack.

The observability subsystem end to end in one CI-fast script:

1. fit the paper's model on a quick analytic sample set and serve it,
2. share one tracer between the client and the server, so a request's
   spans — client retry attempts, HTTP handling, cache lookup, the
   micro-batcher's queue-wait/execute split — reassemble into one tree,
3. export every span to a JSONL file and aggregate it the way
   ``repro trace summary`` does,
4. read the same trace back over ``GET /traces``,
5. show the per-stage latency histograms on ``/metrics``.

Usage::

    python examples/tracing_demo.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.models import NeuralWorkloadModel, save_model
from repro.observability import JsonlSpanExporter, Tracer
from repro.observability.cli import (
    format_summary_table,
    render_span_tree,
    stage_summary,
)
from repro.serving import ServingClient, ServingEngine, ServingError
from repro.serving.server import create_server
from repro.workload import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    latin_hypercube,
)
from repro.workload.analytic import AnalyticWorkloadModel

SPACE = ConfigSpace(
    [
        ParameterRange("injection_rate", 350, 520),
        ParameterRange("default_threads", 6, 20),
        ParameterRange("mfg_threads", 12, 20),
        ParameterRange("web_threads", 15, 22),
    ]
)

CONFIG = {
    "injection_rate": 450.0,
    "default_threads": 14.0,
    "mfg_threads": 16.0,
    "web_threads": 18.0,
}


def fit_model(seed=0):
    print(f"Collecting 20 samples (analytic backend, seed {seed}) ...")
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(SPACE, 20, seed=seed)
    )
    dataset.y = np.maximum(dataset.y, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=800, seed=seed
    )
    return model.fit(dataset.x, dataset.y)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        models_dir = Path(tmp)
        save_model(fit_model(), models_dir / "paper.json")
        spans_path = models_dir / "spans.jsonl"

        # One tracer for both halves: the client starts the trace, the
        # server joins it via the X-Trace-Id / X-Parent-Span-Id headers.
        tracer = Tracer(
            sample_rate=1.0,
            slow_threshold_s=None,
            exporter=JsonlSpanExporter(spans_path),
            seed=7,
        )
        engine = ServingEngine(models_dir, max_wait_ms=1.0, tracer=tracer)
        server = create_server(engine, port=0)
        server.serve_background()
        client = ServingClient(server.url, tracer=tracer)
        print(f"Serving at {server.url}\n")

        # --- drive traffic ----------------------------------------------
        print("One traced request through the full pipeline:")
        prediction = client.predict("paper", CONFIG)
        print(f"  predicted effective_tps = {prediction['effective_tps']:.1f}")
        client.predict("paper", CONFIG)  # repeat: served from the cache
        try:
            client.predict("absent", CONFIG)  # an error span
        except ServingError as exc:
            print(f"  expected error: HTTP {exc.status} "
                  f"(request {exc.request_id})\n")

        # --- the span tree, straight from the shared buffer -------------
        traces = tracer.buffer.traces()
        first = traces[-1]["spans"]  # oldest = the cache-miss request
        print("Span tree of the first request "
              f"(trace {first[0]['trace_id'][:8]}):")
        print(render_span_tree(first))
        names = {s["name"] for s in first}
        required = {
            "client.request", "http.request", "request.parse",
            "engine.predict", "batcher.queue_wait", "batcher.execute",
        }
        missing = required - names
        assert not missing, f"trace is missing stages: {sorted(missing)}"

        # --- the same trace over the wire: GET /traces ------------------
        payload = client._get_json("/traces?limit=10")
        print(f"\nGET /traces: {len(payload['traces'])} traces buffered, "
              f"{payload['spans_recorded']} spans recorded")
        assert any(
            t["trace_id"] == first[0]["trace_id"] for t in payload["traces"]
        ), "the traced request is retrievable over HTTP"

        # --- per-stage aggregation (what `repro trace summary` prints) --
        exported = [
            json.loads(line)
            for line in spans_path.read_text().splitlines()
            if line.strip()
        ]
        print(f"\nPer-stage summary of {len(exported)} exported spans:")
        print(format_summary_table(stage_summary(exported)))

        # --- stage histograms on /metrics -------------------------------
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            content_type = r.headers["Content-Type"]
            metrics_text = r.read().decode()
        bucket_lines = [
            line
            for line in metrics_text.splitlines()
            if line.startswith("repro_serving_stage_latency_seconds_bucket")
        ]
        print(f"\n/metrics ({content_type}): "
              f"{len(bucket_lines)} stage-histogram bucket lines")
        assert bucket_lines, "stage latency histograms are exported"

        server.shutdown()
        server.server_close()
        print("\nTracing demo complete.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
