"""Continuous-learning demo: record → drift → retrain → promote → rollback.

The whole ``repro lifecycle`` loop on a tiny configuration, end to end and
deterministic — this is also what the CI lifecycle smoke runs:

1. train a baseline characterization model on the analytic backend's
   smooth operating window (injection 150-400 tps) and deploy it into a
   registry directory;
2. drive *shifted* traffic (window moved up 150 tps, measured indicators
   rescaled 1.2x) through the driver, recording paired
   (prediction, measurement) observations into an observation journal
   (the directory format ``repro serve --journal-dir`` writes);
3. ``check-drift`` — both signals trip: the configuration stream scores
   far outside the deployed scaler statistics and the harmonic-mean
   residual error exceeds the loose-fit threshold;
4. ``retrain --promote`` — a warm-started candidate passes the
   per-indicator validation gate and is atomically promoted (the
   pre-existing deployment is first adopted as version 1, the candidate
   becomes version 2);
5. ``rollback`` — one call restores version 1.

Usage::

    python examples/lifecycle_demo.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cli import main as repro
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.service import WorkloadConfig


def train_baseline(registry: Path) -> None:
    print("Training the baseline on injection window 150-400 tps ...")
    rng = np.random.default_rng(7)
    backend = AnalyticWorkloadModel()
    xs, ys = [], []
    for _ in range(64):
        config = WorkloadConfig(
            injection_rate=float(rng.uniform(150, 400)),
            default_threads=int(rng.integers(12, 28)),
            mfg_threads=int(rng.integers(12, 28)),
            web_threads=int(rng.integers(12, 28)),
        )
        xs.append(config.as_vector())
        ys.append(backend.evaluate_vector(config))
    model = NeuralWorkloadModel(
        hidden=(12,), error_threshold=0.002, max_epochs=8000, seed=7
    )
    model.fit(np.array(xs), np.array(ys))
    save_model(model, registry / "paper.json")
    print(f"  deployed after {model.total_epochs_} epochs\n")


def run(step: str, argv: list) -> dict:
    print(f"$ repro lifecycle {' '.join(argv)}")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro(["lifecycle", *argv])
    output = buffer.getvalue()
    print(output)
    if code != 0:
        print(f"FAILED: {step} exited {code}")
        sys.exit(1)
    return json.loads(output)


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAILED: expected {what}")
        sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "registry"
        registry.mkdir()
        store = str(Path(tmp) / "store")
        journal = str(Path(tmp) / "journal")
        train_baseline(registry)

        recorded = run(
            "record",
            [
                "record", "--models-dir", str(registry),
                "--journal-dir", journal,
                "--samples", "96", "--seed", "1",
                "--rate-min", "150", "--rate-max", "400",
                "--rate-shift", "150",
                "--threads-min", "12", "--threads-max", "27",
                "--indicator-scale", "1.2",
            ],
        )
        expect(recorded["recorded"] == 96, "96 recorded observations")

        drift = run(
            "check-drift",
            [
                "check-drift", "--models-dir", str(registry),
                "--journal-dir", journal,
            ],
        )
        expect(drift["drifted"], "the drift verdict to trip")

        cycle = run(
            "retrain",
            [
                "retrain", "--models-dir", str(registry),
                "--store-dir", store, "--journal-dir", journal,
                "--seed", "3", "--promote",
            ],
        )
        expect(cycle["gate"]["passed"], "the validation gate to pass")
        expect(cycle["promoted"], "the candidate to be promoted")

        rollback = run(
            "rollback",
            ["rollback", "--models-dir", str(registry), "--store-dir", store],
        )
        expect(rollback["restored_version"] == 1, "rollback to version 1")

        status = run(
            "status",
            [
                "status", "--models-dir", str(registry),
                "--store-dir", store, "--journal-dir", journal,
            ],
        )
        expect(
            status["models"]["paper"]["promoted_version"] == 1,
            "the baseline to be promoted again",
        )
        print("Lifecycle loop complete: drift detected, candidate retrained "
              "and promoted, baseline restored by rollback.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
