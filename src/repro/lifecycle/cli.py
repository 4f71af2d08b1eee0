"""``repro lifecycle`` — drive the continuous-learning loop from the shell.

The CLI operates on the same on-disk surfaces as a running server: a
registry directory of deployed artifacts, a version store, and the
observation journal ``repro serve --journal-dir`` writes, so it works
against a live deployment or fully offline.  ``check-drift``, ``retrain``
and ``status`` only read the journal — no tail repair, no appends — so
they never truncate a segment a live server is still appending to;
``record`` appends, so point it only at a journal no server is writing.

Subcommands::

    repro lifecycle record      # measure sampled configs, journal them
    repro lifecycle check-drift # score the journal against the deployment
    repro lifecycle retrain     # fit a candidate, gate it, archive a version
    repro lifecycle promote     # deploy a stored version into the registry
    repro lifecycle rollback    # restore the previously-promoted version
    repro lifecycle status      # loop state as JSON
    repro lifecycle verify      # audit stored versions against checksums
    repro lifecycle recover     # repair manifests/artifacts/journal tail

``record`` uses the fast closed-form
:class:`~repro.workload.analytic.AnalyticWorkloadModel` as the measurement
backend; ``--rate-shift`` moves the sampled injection-rate window (to
exercise configuration drift) and ``--indicator-scale`` rescales the
measured indicators (to exercise residual drift) — both are how the CI
smoke and the demo provoke the loop on a tiny configuration.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..models.persistence import load_model
from ..workload.analytic import AnalyticWorkloadModel
from ..workload.service import WorkloadConfig
from .drift import DriftThresholds
from .observations import ObservationLog
from .orchestrator import GateThresholds, LifecycleOrchestrator
from .store import VersionedModelStore

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lifecycle",
        description=(
            "Continuous-learning loop for served workload models: capture "
            "observations, detect drift, retrain behind a validation gate, "
            "promote and roll back versions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, store=False, journal=False):
        p.add_argument(
            "--models-dir", required=True,
            help="registry directory of deployed <name>.json artifacts",
        )
        p.add_argument("--model", default="paper", help="model name")
        if store:
            p.add_argument(
                "--store-dir", required=True,
                help="version-store root directory",
            )
        if journal:
            p.add_argument(
                "--journal-dir", required=True,
                help="observation journal directory (the one "
                     "repro serve --journal-dir writes)",
            )

    p = sub.add_parser(
        "record",
        help="measure sampled configurations and append to the journal",
    )
    common(p, journal=True)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--rate-min", type=float, default=200.0,
        help="injection-rate window lower edge",
    )
    p.add_argument(
        "--rate-max", type=float, default=600.0,
        help="injection-rate window upper edge",
    )
    p.add_argument(
        "--rate-shift", type=float, default=0.0,
        help="shift the injection-rate window (provokes config drift)",
    )
    p.add_argument(
        "--threads-min", type=int, default=4,
        help="thread-pool size lower bound (inclusive)",
    )
    p.add_argument(
        "--threads-max", type=int, default=27,
        help="thread-pool size upper bound (inclusive)",
    )
    p.add_argument(
        "--indicator-scale", type=float, default=1.0,
        help="rescale measured indicators (provokes residual drift)",
    )
    p.add_argument(
        "--sampling-rate", type=float, default=1.0,
        help="observation sampling rate",
    )

    p = sub.add_parser(
        "check-drift", help="score the journal against the deployment"
    )
    common(p, journal=True)
    p.add_argument("--config-threshold", type=float, default=0.5)
    p.add_argument("--residual-threshold", type=float, default=0.10)
    p.add_argument("--min-observations", type=int, default=20)

    p = sub.add_parser(
        "retrain",
        help="fit a candidate on the journal, gate it, archive a version",
    )
    common(p, store=True, journal=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gate-max-error", type=float, default=0.15)
    p.add_argument("--holdout-fraction", type=float, default=0.25)
    p.add_argument("--kfold", type=int, default=0)
    p.add_argument(
        "--cold-start", action="store_true",
        help="train from scratch instead of warm-starting from the incumbent",
    )
    p.add_argument(
        "--shadow", action="store_true",
        help="also require the candidate to beat the incumbent (shadow eval)",
    )
    p.add_argument(
        "--promote", action="store_true",
        help="promote into the registry when the gate passes",
    )
    p.add_argument(
        "--force", action="store_true",
        help="retrain even when no drift tripped",
    )

    p = sub.add_parser(
        "promote", help="deploy one stored version into the registry"
    )
    common(p, store=True)
    p.add_argument("--version", type=int, required=True)

    p = sub.add_parser(
        "rollback", help="restore the previously-promoted version"
    )
    common(p, store=True)

    p = sub.add_parser("status", help="print loop state as JSON")
    common(p, store=True, journal=True)

    p = sub.add_parser(
        "verify",
        help="audit every stored version's bytes against its recorded sha256",
    )
    common(p, store=True)

    p = sub.add_parser(
        "recover",
        help="startup recovery offline: repair manifests, quarantine corrupt "
             "artifacts, redeploy the last verified-good version, repair the "
             "journal tail",
    )
    common(p, store=True)
    p.add_argument(
        "--journal-dir",
        help="observation journal directory to repair and account",
    )
    return parser


def _orchestrator(args, log: ObservationLog) -> LifecycleOrchestrator:
    return LifecycleOrchestrator(
        args.models_dir,
        VersionedModelStore(args.store_dir),
        log,
        seed=getattr(args, "seed", 0),
        kfold=getattr(args, "kfold", 0),
        gate=GateThresholds(
            max_error=getattr(args, "gate_max_error", 0.15),
            holdout_fraction=getattr(args, "holdout_fraction", 0.25),
        ),
    )


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _replay(args) -> ObservationLog:
    """The journal's observations, read without repairing or appending."""
    if not Path(args.journal_dir).is_dir():
        raise ValueError(
            f"--journal-dir {args.journal_dir} is not an existing directory"
        )
    return ObservationLog.replay_journal(
        args.journal_dir, resume=False, repair=False
    )


def _cmd_record(args) -> int:
    if not args.threads_min <= args.threads_max:
        raise ValueError(
            f"--threads-min {args.threads_min} must not exceed "
            f"--threads-max {args.threads_max}"
        )
    deployed = load_model(Path(args.models_dir) / f"{args.model}.json")
    backend = AnalyticWorkloadModel()
    rng = np.random.default_rng(args.seed)
    log = ObservationLog(
        capacity=max(4096, args.samples),
        sampling_rate=args.sampling_rate,
        seed=args.seed,
        journal_dir=args.journal_dir,
    )
    threads_hi = args.threads_max + 1
    kept = 0
    with log:
        for _ in range(args.samples):
            config = WorkloadConfig(
                injection_rate=float(
                    rng.uniform(
                        args.rate_min + args.rate_shift,
                        args.rate_max + args.rate_shift,
                    )
                ),
                default_threads=int(rng.integers(args.threads_min, threads_hi)),
                mfg_threads=int(rng.integers(args.threads_min, threads_hi)),
                web_threads=int(rng.integers(args.threads_min, threads_hi)),
            )
            vector = config.as_vector()
            measured = args.indicator_scale * backend.evaluate_vector(config)
            predicted = deployed.predict(vector.reshape(1, -1))[0]
            kept += log.record(
                args.model,
                vector,
                predicted=predicted,
                measured=measured,
                source="driver:analytic",
            )
    _emit(
        {
            "command": "record",
            "model": args.model,
            "requested": args.samples,
            "recorded": kept,
            "journal_dir": str(args.journal_dir),
        }
    )
    return 0


def _cmd_check_drift(args) -> int:
    log = _replay(args)
    deployed = load_model(Path(args.models_dir) / f"{args.model}.json")
    from .drift import DriftDetector

    detector = DriftDetector(
        DriftThresholds(
            config_score=args.config_threshold,
            residual_error=args.residual_threshold,
            min_observations=args.min_observations,
        )
    )
    report = detector.check(log, args.model, deployed)
    _emit({"command": "check-drift", **report.to_dict()})
    return 0


def _cmd_retrain(args) -> int:
    log = _replay(args)
    orch = _orchestrator(args, log)
    report = orch.run_cycle(
        args.model,
        force=args.force,
        warm_start=not args.cold_start,
        shadow=args.shadow,
        promote=args.promote,
    )
    _emit({"command": "retrain", **report.to_dict()})
    if report.retrained and report.gate is not None and not report.gate.passed:
        return 2
    return 0


def _cmd_promote(args) -> int:
    store = VersionedModelStore(args.store_dir)
    target = store.promote(args.model, args.version, args.models_dir)
    _emit(
        {
            "command": "promote",
            "model": args.model,
            "version": args.version,
            "deployed": str(target),
        }
    )
    return 0


def _cmd_rollback(args) -> int:
    store = VersionedModelStore(args.store_dir)
    version = store.rollback(args.model, args.models_dir)
    _emit(
        {
            "command": "rollback",
            "model": args.model,
            "restored_version": version,
        }
    )
    return 0


def _cmd_status(args) -> int:
    log = _replay(args)
    orch = _orchestrator(args, log)
    _emit({"command": "status", **orch.status()})
    return 0


def _cmd_verify(args) -> int:
    store = VersionedModelStore(args.store_dir)
    reports = store.verify_all(args.model)
    bad = [r for r in reports if r["verdict"] in ("mismatch", "missing")]
    _emit(
        {
            "command": "verify",
            "model": args.model,
            "versions": reports,
            "ok": not bad,
        }
    )
    return 1 if bad else 0


def _cmd_recover(args) -> int:
    from ..durability.recovery import RecoveryManager

    manager = RecoveryManager(
        store=VersionedModelStore(args.store_dir),
        registry_dir=args.models_dir,
        journal_dir=args.journal_dir,
        marker=Path(args.models_dir),
    )
    report = manager.run()
    _emit({"command": "recover", **report.to_dict()})
    return 0


_COMMANDS = {
    "record": _cmd_record,
    "check-drift": _cmd_check_drift,
    "retrain": _cmd_retrain,
    "promote": _cmd_promote,
    "rollback": _cmd_rollback,
    "status": _cmd_status,
    "verify": _cmd_verify,
    "recover": _cmd_recover,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
