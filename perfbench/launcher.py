"""Start ``repro-serve`` with the benchmark's layer timers installed.

    python3 perfbench/launcher.py STATS_DIR <repro-serve arguments>

Wraps the serving, cluster, tuning and lifecycle entry points a request
passes through, then hands over to ``repro.serving.server.main``.  Each
SIGUSR1 writes the aggregates gathered since the previous one to
``STATS_DIR/snapshot-<n>.json`` and starts afresh, so the benchmark can
cut its phases apart.  Worker processes are not wrapped: their forward
pass time is the ``predict_s`` every worker response frame carries.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from spans import Recorder, wrap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import engine as cluster_engine  # noqa: E402
from repro.cluster.supervisor import WorkerSupervisor  # noqa: E402
from repro.lifecycle.observations import ObservationLog  # noqa: E402
from repro.models.neural import NeuralWorkloadModel  # noqa: E402
from repro.serving import engine as serving_engine  # noqa: E402
from repro.serving.batcher import PredictionFuture  # noqa: E402
from repro.serving.cache import PredictionCache  # noqa: E402
from repro.serving.metrics import ServingMetrics  # noqa: E402
from repro.serving.server import main as serve  # noqa: E402
from repro.tuning.engine import RecommendationEngine  # noqa: E402


def install(rec: Recorder) -> None:
    for engine in (serving_engine.ServingEngine, cluster_engine.ClusterEngine):
        wrap(rec, engine, "predict_detailed", "serving.engine")
    for module in (serving_engine, cluster_engine):
        wrap(rec, module, "validate_config_matrix", "serving.validate")

    def count_lookup(args, cached):
        rec.add("serving.cache_gets")
        rec.add("serving.cache_hits", cached is not None)

    wrap(rec, PredictionCache, "key", "serving.cache")
    wrap(rec, PredictionCache, "get", "serving.cache", count_lookup)
    wrap(rec, PredictionCache, "put", "serving.cache")
    wrap(
        rec, NeuralWorkloadModel, "predict", "nn.forward",
        lambda args, _: rec.add("nn.forward_rows", len(args[1])),
    )

    result = PredictionFuture.result

    def timed_result(self, timeout=None):
        # The request thread's whole hand-off, submit to wake-up, is a
        # child of the engine span; the future's own stamps split it.
        try:
            return result(self, timeout)
        finally:
            submitted, started = self.submitted_at, self.flush_started_at
            rec.record("serving.batcher", time.perf_counter() - submitted)
            if self.flush_ended_at is not None:
                rec.add("serving.batcher_wait_s", started - submitted)
                rec.add("serving.batcher_exec_s", self.flush_ended_at - started)
                rec.add("serving.batch_rows", self.batch_size)
                rec.add("serving.batched")

    PredictionFuture.result = timed_result

    def after_call(args, response):
        _, worker_id, header, payload = args[:4]
        reply, reply_payload = response
        rec.add("cluster.worker_predict_s", reply.get("predict_s", 0.0))
        # Frame = 4-byte length + JSON header + payload, both directions.
        rec.add(
            "cluster.frame_bytes",
            8 + len(json.dumps(header)) + len(payload)
            + len(json.dumps(reply)) + len(reply_payload),
        )
        rec.add(f"cluster.calls.worker{worker_id}")

    wrap(rec, WorkerSupervisor, "call", "cluster.call", after_call)
    wrap(
        rec, ServingMetrics, "record_worker_failover", None,
        lambda args, _: rec.add("cluster.failovers"),
    )
    wrap(
        rec, ObservationLog, "record_batch", "lifecycle.observe",
        lambda args, _: rec.add("lifecycle.rows", len(args[2])),
    )

    recommend = RecommendationEngine.recommend

    def timed_recommend(self, *args, **kwargs):
        # The search's own predict calls are filed under "recommend/".
        with rec.span("tuning.recommend"), rec.scope("recommend"):
            payload = recommend(self, *args, **kwargs)
        rec.add("tuning.evals", payload["evals"])
        return payload

    RecommendationEngine.recommend = timed_recommend


def main() -> int:
    stats_dir = Path(sys.argv[1])
    recorder = Recorder()
    install(recorder)
    numbers = itertools.count()

    def dump():
        path = stats_dir / f"snapshot-{next(numbers)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorder.snapshot(reset=True)))
        os.replace(tmp, path)

    # The handler only starts a thread: the main thread runs the accept
    # loop and must not block on the recorder's lock.
    signal.signal(
        signal.SIGUSR1, lambda *_: threading.Thread(target=dump).start()
    )
    return serve(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
