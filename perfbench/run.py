"""The repository benchmark: one workload under one seed, every metric.

    python3 perfbench/run.py --workload {reproduce,point,tune} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every run executes three phases:
``reproduce`` (simulate -> 5-fold CV -> Figures 4/7/8 in one process),
``point`` (single-config ``/predict`` traffic at an in-process
``repro-serve``) and ``tune`` (256-row sweeps and cold ``/recommend``
searches at ``repro-serve --workers <nproc>``).  The named workload's own
phase gets the full ``--seconds``; the other two run as short probes, so
every run reports every end-to-end metric.  ``setup_s`` and ``rss_mb``
are the own phase's.

``--trace 1`` runs the own phase twice, untraced and then with the layer
timers on, and reports the per-layer metrics, the remainder no layer
accounts for and each end-to-end metric's tracing overhead.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's record (environment, seed,
artifact, per-phase counts and checks).  Scratch files live under
``.perfbench_run/`` in the checkout and each run removes its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_ROOT = ROOT / ".perfbench_run"
REQUIRED = (
    "src/repro/__init__.py",
    "data/table2_samples.csv",
    "data/figure_samples.csv",
)
WORKLOADS = ("reproduce", "point", "tune")

#: One simulated configuration per second of run: a DES run of a Table 2
#: configuration costs about a second of host time on a 2-core host, and
#: from about 15 configurations on, 5-fold CV accuracy varies by a few
#: per cent between designs.
CONFIGS_PER_SECOND = 1.0
#: The ``reproduce`` probe: a fixed design, so its accuracy is exact.
PROBE_CONFIGS = 6
PROBE_SEED = 42
#: Share of ``--seconds`` a ``point`` or ``tune`` probe runs for.  The
#: ``point`` figures are set by timers (the batcher's 2 ms wait, delayed
#: ACKs), but under ~100 open-loop requests the share stalled by delayed
#: ACKs can dip below half and move p50 out of the stall cluster; the
#: ``tune`` figures are CPU-bound, and on a host whose speed swings they
#: need the full length.
PROBE_SHARE = {"point": 0.6, "tune": 1.0}
#: Share of the ``point`` phase spent in the open loop (the rest is the
#: closed loop behind ``capacity_rps``).  It keeps the open loop under 200
#: expected requests at 15 s, so ``tail_ms`` is read at p75, inside the
#: cluster of answers stalled by delayed ACKs, rather than at p95, which
#: falls among the few queued behind a stall and swings with the seed.
POINT_OPEN_SHARE = 0.55
#: Set-ups timed per run of the own phase (``setup_s`` is their median).
OWN_SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_phase(phase, ctx, seed, seconds, own, traced):
    import pipeline
    import servers

    setups = OWN_SETUPS if own else 1
    if phase == "reproduce":
        if not own:
            return pipeline.phase(ctx, PROBE_SEED, PROBE_CONFIGS, setups, traced)
        # 5-fold CV needs at least five configurations.
        configs = max(5, round(CONFIGS_PER_SECOND * seconds))
        return pipeline.phase(ctx, seed, configs, setups, traced)
    seconds *= 1.0 if own else PROBE_SHARE[phase]
    if phase == "point":
        return servers.point_phase(
            ctx, seed, POINT_OPEN_SHARE * seconds,
            (1.0 - POINT_OPEN_SHARE) * seconds, setups, traced,
        )
    return servers.tune_phase(ctx, seed, seconds, setups, traced)


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def make_context(run_dir: Path):
    """Fit the served artifact: the tuned (16, 8) model on the bundled
    Table 2 samples, floored as the paper experiments floor them."""
    import numpy as np

    import servers
    from repro.experiments.modeling import tuned_model
    from repro.models import load_model, save_model
    from repro.workload.dataset import Dataset

    data = Dataset.load_csv(ROOT / "data" / "table2_samples.csv")
    artifact = run_dir / "artifact.json"
    save_model(tuned_model().fit(data.x, np.maximum(data.y, 1e-3)), artifact)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=sys.pycache_prefix,
        PYTHONUNBUFFERED="1",
    )
    ctx = servers.Context(
        run_dir, env, load_model(artifact), len(os.sched_getaffinity(0))
    )
    return ctx, hashlib.sha256(artifact.read_bytes()).hexdigest()


def plain_run(args, ctx):
    phases = {
        phase: run_phase(
            phase, ctx, args.seed, args.seconds, phase == args.workload, False
        )
        for phase in WORKLOADS
    }
    metrics = {
        name: {
            "value": phases[source or args.workload]["metrics"][name],
            "unit": unit,
        }
        for name, unit, _, source in layers.END_TO_END
    }
    return phases, metrics


def traced_run(args, ctx):
    untraced = run_phase(args.workload, ctx, args.seed, args.seconds, True, False)
    traced = run_phase(args.workload, ctx, args.seed, args.seconds, True, True)
    values = layers.per_layer(args.workload, traced["trace"], traced["metrics"])
    for name, value in untraced["metrics"].items():
        values[f"trace.overhead.{name}"] = traced["metrics"][name] / value - 1.0
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in layers.PER_LAYER
    }
    return {"untraced": untraced, "traced": traced}, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(
            f"perfbench: not a repository checkout, missing {missing}",
            file=sys.stderr,
        )
        return 2
    RUN_ROOT.mkdir(exist_ok=True)
    # Bytecode is cached, as an installed package's would be, but in the
    # scratch area rather than the source tree; every process of the run
    # shares the cache.
    sys.pycache_prefix = str(RUN_ROOT / "pycache")
    sys.dont_write_bytecode = False
    for key in [k for k in os.environ if k.lower().endswith("_proxy")]:
        del os.environ[key]  # the clients only ever talk to 127.0.0.1
    # A terminated run still unwinds, so every server it started is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import numpy as np

    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_ROOT))
    try:
        ctx, artifact_sha256 = make_context(run_dir)
        phases, metrics = (traced_run if args.trace else plain_run)(args, ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(p["ops"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "artifact_sha256": artifact_sha256,
        "phases": {
            name: {"record": p["record"], "metrics": p["metrics"]}
            for name, p in phases.items()
        },
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
