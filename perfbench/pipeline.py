"""The ``reproduce`` phase: simulate -> 5-fold CV -> Figures 4/7/8.

Runs as its own process with one thread, so set-up time and peak memory
are the pipeline's alone::

    python3 perfbench/pipeline.py --seed 7 --configs 10 --out result.json

It simulates a seeded Latin-hypercube design over the Table 2 region
with ``ThreeTierWorkload`` at the paper's warm-up and duration (no CSV
cache is read or written), cross-validates the tuned model on the result
(Table 2), and runs Figures 4/7/8 on the bundled ``data/figure_samples.csv``.
``--setup-only`` stops right before the first simulation, and
``--trace`` times each layer through in-process wrappers.  :func:`phase`
is the benchmark's side: it spawns this script and checks its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import inputs
from spans import Recorder, wrap

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import config as C  # noqa: E402
from repro.experiments.modeling import tuned_model  # noqa: E402
from repro.experiments.surfaces import (  # noqa: E402
    run_figure4,
    run_figure7,
    run_figure8,
)
from repro.model_selection.cross_validation import cross_validate  # noqa: E402
from repro.models.neural import NeuralWorkloadModel  # noqa: E402
from repro.workload.des import Simulator  # noqa: E402
from repro.workload.service import ThreeTierWorkload, WorkloadConfig  # noqa: E402

FIGURES = (run_figure4, run_figure7, run_figure8)
#: Iterations of the host-speed reference loop, and its time when the
#: host runs at full speed (the fastest seen on a 2-core host).
REFERENCE_LOOPS = 200_000
REFERENCE_NOMINAL_S = 0.0109


def reference_s() -> float:
    """Time a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Stages:
    """Times each pipeline stage between two runs of the reference loop.

    The host's CPU speed swings by up to half, in stretches from a few
    seconds to minutes, so besides the wall time each stage's time is
    scaled by ``REFERENCE_NOMINAL_S`` / (mean of the references around
    the stage): the time the stage would have taken at full host speed.
    """

    def __init__(self):
        self.walls = []
        self.references = [reference_s()]

    def time(self, call):
        start = time.perf_counter()
        result = call()
        self.walls.append(time.perf_counter() - start)
        self.references.append(reference_s())
        return result

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def steady_s(self) -> float:
        return sum(
            wall * REFERENCE_NOMINAL_S / ((before + after) / 2)
            for wall, before, after in zip(
                self.walls, self.references, self.references[1:]
            )
        )


def run(seed: int, n_configs: int, recorder=None, setup_only=False) -> dict:
    configs = [
        WorkloadConfig.from_vector(row) for row in inputs.design(seed, n_configs)
    ]
    workload = ThreeTierWorkload(
        warmup=C.SIM_WARMUP, duration=C.SIM_DURATION, seed=seed
    )
    first_run_at = time.monotonic()
    if setup_only:
        return {"first_run_at": first_run_at}
    if recorder is not None:
        install(recorder)
    span = recorder.span if recorder is not None else lambda name: nullcontext()
    x = np.array([config.as_vector() for config in configs])
    stages = Stages()
    y = np.array([
        stages.time(lambda config=config: workload.run(config).as_vector())
        for config in configs
    ])

    def table2():
        with span("model_selection.cross_validate"):
            # Only the fits inside cross-validation are the Table 2
            # training layer; Figures 4/7/8 fit their own model inside
            # their span.
            fit = NeuralWorkloadModel.fit
            if recorder is not None:
                wrap(
                    recorder, NeuralWorkloadModel, "fit", "nn.fit",
                    lambda args, _: recorder.add(
                        "nn.epochs", args[0].total_epochs_
                    ),
                )
            try:
                return cross_validate(
                    tuned_model, x, y, k=5, seed=seed,
                    output_names=C.INDICATOR_LABELS,
                )
            finally:
                NeuralWorkloadModel.fit = fit

    def figures():
        with span("analysis.figures"):
            return [figure() for figure in FIGURES]

    report = stages.time(table2)
    surfaces = stages.time(figures)
    return {
        "first_run_at": first_run_at,
        "pipeline_s": stages.steady_s,
        "pipeline_wall_s": stages.wall_s,
        "reference_ms": [1000 * r for r in stages.references],
        "configs": n_configs,
        "runs_finite_positive": int(np.all(np.isfinite(y) & (y > 0), axis=1).sum()),
        "indicators_sha256": hashlib.sha256(
            np.ascontiguousarray(y, dtype="<f8").tobytes()
        ).hexdigest(),
        "table2_accuracy": float(report.overall_accuracy),
        "figures": {
            f.name: {"expected": f.expected_kind, "matches": bool(f.matches_paper)}
            for f in surfaces
        },
        # Peak resident set of this process (KiB on Linux).
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": recorder.snapshot() if recorder is not None else None,
    }


def install(recorder: Recorder) -> None:
    """Time every simulation and count its events."""
    wrap(recorder, ThreeTierWorkload, "run", "workload.run")
    wrap(
        recorder, Simulator, "run_until", None,
        lambda args, _: recorder.add("workload.events", args[0].events_executed),
    )


def phase(ctx, seed: int, n_configs: int, setups: int, traced: bool) -> dict:
    """Run the pipeline in a child process; the first ``setups - 1``
    children stop at set-up, so set-up is timed ``setups`` times."""

    def spawn(extra):
        directory = ctx.fresh_dir("pipeline")
        out, log = directory / "result.json", directory / "stderr.log"
        started = time.monotonic()
        with open(log, "wb") as stderr:
            code = subprocess.run(
                [sys.executable, __file__, "--seed", str(seed),
                 "--configs", str(n_configs), "--out", str(out)] + extra,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=stderr, cwd=directory, env=ctx.env, timeout=170,
            ).returncode
        if code != 0:
            raise RuntimeError(f"pipeline exited {code}: {log.read_text()[-2000:]}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["first_run_at"] - started
        return result

    setup_times = [spawn(["--setup-only"])["setup_s"] for _ in range(setups - 1)]
    result = spawn(["--trace"] if traced else [])
    setup_times.append(result["setup_s"])
    figures_ok = [f["matches"] for f in result["figures"].values()]
    failed = n_configs - result["runs_finite_positive"] + figures_ok.count(False)
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "rss_mb": result["rss_mb"],
            "pipeline_s": result["pipeline_s"],
            "table2_accuracy": result["table2_accuracy"],
        },
        "record": {
            "setup_s_each": setup_times,
            "seed": seed,
            "configs": n_configs,
            "simulations": {
                "sent": n_configs,
                "succeeded": result["runs_finite_positive"],
                "failed": n_configs - result["runs_finite_positive"],
            },
            "indicators_sha256": result["indicators_sha256"],
            "figures": result["figures"],
            "pipeline_wall_s": result["pipeline_wall_s"],
            "reference_ms": {
                "fastest": min(result["reference_ms"]),
                "median": statistics.median(result["reference_ms"]),
            },
        },
        # Each simulation, the cross-validation and each figure.
        "ops": n_configs + 1 + len(figures_ok),
        "failed": failed,
        "trace": None if result["trace"] is None else {
            "layers": result["trace"], "pipeline_s": result["pipeline_wall_s"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--configs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(
        args.seed,
        args.configs,
        recorder=Recorder() if args.trace else None,
        setup_only=args.setup_only,
    )
    tmp = args.out + ".tmp"
    with open(tmp, "w") as out:
        json.dump(result, out)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
