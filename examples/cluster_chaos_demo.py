"""Cluster chaos demo: SIGKILL two of three workers under live load.

The cluster layer's whole story in one script:

1. fit the paper's model and preload it into a supervised pool of three
   inference worker processes,
2. hammer the cluster from concurrent client threads,
3. mid-hammer, SIGKILL two workers outright — the worst case the
   bulkhead design is built for,
4. verify that **zero** requests failed: every caller got an answer from
   its primary worker, a sibling retry, or the degraded linear
   surrogate,
5. watch the supervisor respawn the corpses and the pool return to full
   strength, then take a clean drain.

Exit code 0 means the chaos property held; any caller-visible failure
exits 1 (this script doubles as the CI chaos-smoke step).

Usage::

    PYTHONPATH=src python examples/cluster_chaos_demo.py
"""

import signal
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.cluster import ClusterEngine
from repro.models import NeuralWorkloadModel, save_model

CONFIG = [450.0, 14.0, 16.0, 18.0]


def fit_model(seed=0):
    print(f"Fitting the workload model (seed {seed}) ...")
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 8.0, size=(40, 4))
    y = np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=500, seed=seed
    )
    return model.fit(x, y)


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def main():
    model = fit_model()
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "paper.json")

        print("Starting a 3-worker supervised cluster ...")
        engine = ClusterEngine(
            tmp,
            workers=3,
            replication=2,
            call_timeout=5.0,
            supervisor_options={
                "heartbeat_interval": 0.1,
                "restart_backoff_base": 0.05,
                "restart_window_s": 300.0,
                "restart_budget": 50,
            },
        ).start()
        try:
            pids = {
                wid: engine.supervisor.handle(wid).pid
                for wid in engine.supervisor.ready_ids()
            }
            print(f"  workers ready: {pids}")

            results = []
            errors = []
            lock = threading.Lock()

            def caller(n):
                for _ in range(n):
                    try:
                        result = engine.predict_detailed("paper", [CONFIG])
                        with lock:
                            results.append(result)
                    except Exception as exc:  # noqa: BLE001 - the verdict
                        with lock:
                            errors.append(exc)
                    time.sleep(0.01)

            threads = [
                threading.Thread(target=caller, args=(80,)) for _ in range(4)
            ]
            print("Hammering /predict from 4 threads (320 requests) ...")
            for t in threads:
                t.start()

            # Kill the two workers the router actually prefers for this
            # model — the primary first, then its failover sibling —
            # so both deaths land squarely in the serving path.
            primary, sibling = engine.router.replicas(
                "paper", engine.supervisor.ready_ids()
            )[:2]
            time.sleep(0.3)
            print(f"  SIGKILL worker {primary} (the primary, mid-load) ...")
            engine.supervisor.kill_worker(primary, sig=signal.SIGKILL)
            time.sleep(0.4)
            print(f"  SIGKILL worker {sibling} (the sibling, mid-load) ...")
            engine.supervisor.kill_worker(sibling, sig=signal.SIGKILL)

            for t in threads:
                t.join(timeout=120.0)

            sources = Counter(r.source for r in results)
            print(f"\n  answered: {len(results)}  failed: {len(errors)}")
            print(f"  answer sources: {dict(sources)}")
            counters = engine.metrics.counters
            print(
                f"  failovers: {counters['worker_failovers_total']}  "
                f"restarts so far: {counters['worker_restarts_total']}"
            )
            if errors:
                print(f"FAIL: {len(errors)} requests surfaced errors, "
                      f"first: {errors[0]!r}")
                return 1
            if len(results) != 320:
                print(f"FAIL: expected 320 answers, got {len(results)}")
                return 1

            print("\nWaiting for the supervisor to respawn the corpses ...")
            if not wait_for(
                lambda: len(engine.supervisor.ready_ids()) == 3
            ):
                print("FAIL: pool never returned to full strength")
                return 1
            if engine.metrics.counters["worker_restarts_total"] < 2:
                print("FAIL: expected >= 2 supervised restarts")
                return 1
            after = {
                wid: engine.supervisor.handle(wid).pid
                for wid in engine.supervisor.ready_ids()
            }
            print(f"  workers ready again: {after}")
            health = engine.health()
            print(f"  health: {health['status']}  "
                  f"restarts: {health['worker_restarts_total']}")

            print("Draining the cluster ...")
            engine.drain(timeout=10.0)
        finally:
            engine.close()

    print("\nPASS: two SIGKILLs under load, zero failed requests.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
