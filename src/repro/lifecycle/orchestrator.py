"""The closed loop: drift check → gated retrain → promote → rollback.

:class:`LifecycleOrchestrator` ties the lifecycle pieces to the serving
stack.  One :meth:`run_cycle` performs the whole continuous-learning
round:

1. **Drift check** (:class:`~repro.lifecycle.drift.DriftDetector`) against
   the deployed artifact's own scaler statistics and the paper's
   harmonic-mean relative-error metric over live pairs.
2. **Retrain** with the paper's methodology — standardize (Section 3.1),
   loose-fit error threshold (Section 3.3), optional k-fold cross
   validation (Section 4) — warm-started from the incumbent weights and
   deterministic under the orchestrator seed.
3. **Validation gate**: the candidate must meet a per-indicator
   harmonic-mean relative-error bound (Table 2 style) on held-out
   observations it never trained on, or it is rejected with a report.
   Optional *shadow evaluation* additionally requires the candidate to
   beat the incumbent on the same mirrored traffic.
4. **Versioned promotion** through the
   :class:`~repro.lifecycle.store.VersionedModelStore`: the accepted
   candidate lands in the version history and is atomically promoted
   into the registry directory, where the serving engine's hot-reload
   path picks it up; :meth:`rollback` restores the prior artifact in one
   call.

Every transition is mirrored into
:class:`~repro.serving.metrics.ServingMetrics` (``retrains_total``,
``promotions_total``, ``rollbacks_total``, ``drift_score``) and the
whole state is summarized by :meth:`status` — the payload behind the
HTTP server's ``GET /lifecycle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..model_selection.cross_validation import cross_validate
from ..models.neural import NeuralWorkloadModel
from ..models.persistence import load_model
from ..observability.hooks import epoch_span_hook
from ..observability.trace import NOOP_SPAN, Tracer
from ..serving.metrics import ServingMetrics
from ..workload.service import OUTPUT_NAMES
from .drift import DriftDetector, DriftReport, DriftThresholds, residual_errors
from .observations import ObservationLog
from .store import VersionedModelStore

__all__ = [
    "GateThresholds",
    "GateReport",
    "CycleReport",
    "LifecycleOrchestrator",
]


@dataclass(frozen=True)
class GateThresholds:
    """The promotion gate: per-indicator harmonic-mean error bounds.

    Parameters
    ----------
    max_error:
        Default bound applied to every indicator (Table 2's grand-mean
        neighbourhood: the paper reports ~5 % average error; the default
        leaves loose-fit slack on held-out live traffic).
    per_indicator:
        Optional overrides keyed by indicator name.
    holdout_fraction / min_holdout:
        How much of the observation set is withheld from training and
        judged by the gate.
    min_actual:
        Measurements at or below this magnitude are excluded per
        indicator (relative error is undefined at zero and explodes for
        vanishing values, e.g. throughput of a saturated system); an
        indicator left with fewer than two valid measurements renders no
        verdict rather than failing the gate.
    """

    max_error: float = 0.15
    per_indicator: Optional[Dict[str, float]] = None
    holdout_fraction: float = 0.25
    min_holdout: int = 8
    min_actual: float = 1e-9

    def __post_init__(self):
        if self.max_error <= 0:
            raise ValueError(
                f"max_error must be positive, got {self.max_error}"
            )
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in (0, 1), "
                f"got {self.holdout_fraction}"
            )
        if self.min_holdout < 2:
            raise ValueError(
                f"min_holdout must be >= 2, got {self.min_holdout}"
            )
        if self.min_actual < 0:
            raise ValueError(
                f"min_actual must be >= 0, got {self.min_actual}"
            )

    def threshold_for(self, indicator: str) -> float:
        """The bound one indicator must meet."""
        if self.per_indicator and indicator in self.per_indicator:
            return float(self.per_indicator[indicator])
        return self.max_error


@dataclass
class GateReport:
    """Verdict of one validation-gate evaluation."""

    passed: bool
    n_holdout: int
    errors: Dict[str, float] = field(default_factory=dict)
    thresholds: Dict[str, float] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)
    shadow: Optional[dict] = None
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_holdout": self.n_holdout,
            "errors": dict(self.errors),
            "thresholds": dict(self.thresholds),
            "skipped": list(self.skipped),
            "shadow": self.shadow,
            "reasons": list(self.reasons),
        }


@dataclass
class CycleReport:
    """What one :meth:`LifecycleOrchestrator.run_cycle` did."""

    model: str
    drift: DriftReport
    retrained: bool = False
    epochs: Optional[int] = None
    cv_error: Optional[float] = None
    gate: Optional[GateReport] = None
    version: Optional[int] = None
    promoted: bool = False

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "drift": self.drift.to_dict(),
            "retrained": self.retrained,
            "epochs": self.epochs,
            "cv_error": self.cv_error,
            "gate": None if self.gate is None else self.gate.to_dict(),
            "version": self.version,
            "promoted": self.promoted,
        }


class LifecycleOrchestrator:
    """Drives the capture → drift → retrain → gate → promote loop.

    Parameters
    ----------
    registry_dir:
        The serving registry directory (``<name>.json`` artifacts) that
        promotions and rollbacks atomically rewrite.
    store:
        The :class:`VersionedModelStore` holding version history.
    log:
        The :class:`ObservationLog` traffic lands in.
    drift_thresholds / gate:
        Tuning of the two decision points.
    metrics:
        :class:`ServingMetrics` to mirror counters into — pass the
        serving engine's instance so ``/metrics`` shows the loop.
    seed:
        Seed for holdout splitting, k-fold structure, and candidate
        initialization; the whole cycle is deterministic under it.
    kfold:
        When > 1, run k-fold cross validation on the training split and
        report the overall error (the Section 4 protocol); 0 skips it.
    tracer:
        Optional :class:`~repro.observability.trace.Tracer` — pass the
        serving engine's so lifecycle cycles land in the same trace
        store.  A cycle then renders as a ``lifecycle.run_cycle`` span
        with ``drift_check`` / ``retrain`` (including per-epoch training
        spans) / ``gate`` / ``promote`` children, which answers *where a
        ten-second retrain cycle actually went*.
    tuner:
        Optional :class:`~repro.tuning.engine.RecommendationEngine`.
        Every promote and rollback then invalidates the recommendation
        cache and re-tunes the model's standing objectives
        (``lifecycle.retune`` span); the resulting config shift is
        surfaced under ``GET /lifecycle``.
    """

    def __init__(
        self,
        registry_dir: Union[str, Path],
        store: VersionedModelStore,
        log: ObservationLog,
        drift_thresholds: Optional[DriftThresholds] = None,
        gate: Optional[GateThresholds] = None,
        metrics: Optional[ServingMetrics] = None,
        seed: int = 0,
        kfold: int = 0,
        tracer: Optional[Tracer] = None,
        tuner=None,
    ):
        self.registry_dir = Path(registry_dir)
        self.store = store
        self.log = log
        self.detector = DriftDetector(drift_thresholds)
        self.gate = gate or GateThresholds()
        self.metrics = metrics
        self.tracer = tracer
        self.seed = int(seed)
        if kfold < 0 or kfold == 1:
            raise ValueError(f"kfold must be 0 or >= 2, got {kfold}")
        self.kfold = int(kfold)
        self.tuner = tuner
        self.last_drift: Dict[str, DriftReport] = {}
        self.last_cycle: Dict[str, CycleReport] = {}
        self.last_retune: Dict[str, List[dict]] = {}

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _span(self, name: str, **attributes):
        """A lifecycle stage span (the no-op span when tracing is off)."""
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.start_span(name, attributes=attributes or None)

    def deployed_model(self, name: str) -> NeuralWorkloadModel:
        """The artifact currently served for ``name``."""
        path = self.registry_dir / f"{name}.json"
        if not path.is_file():
            raise KeyError(f"no deployed artifact for model {name!r}")
        return load_model(path)

    def check_drift(self, name: str) -> DriftReport:
        """Score the log against the deployed model; updates the gauge."""
        with self._span("lifecycle.drift_check", model=name) as span:
            report = self.detector.check(
                self.log, name, self.deployed_model(name)
            )
            span.set_attribute("drifted", bool(report.drifted))
            if report.config_score is not None:
                span.set_attribute("config_score", float(report.config_score))
        self.last_drift[name] = report
        if self.metrics is not None and report.config_score is not None:
            self.metrics.set_gauge("drift_score", name, report.config_score)
        return report

    def _split(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deterministic shuffled train/holdout split."""
        n = x.shape[0]
        n_holdout = max(
            self.gate.min_holdout, int(round(n * self.gate.holdout_fraction))
        )
        if n - n_holdout < self.gate.min_holdout:
            raise ValueError(
                f"{n} observations cannot fund a training split plus a "
                f"holdout of {n_holdout}"
            )
        order = np.random.default_rng(self.seed).permutation(n)
        holdout, train = order[:n_holdout], order[n_holdout:]
        return x[train], y[train], x[holdout], y[holdout]

    def _clone_untrained(
        self, source: NeuralWorkloadModel
    ) -> NeuralWorkloadModel:
        """A fresh model with the deployed hyper-parameters (paper recipe)."""
        return NeuralWorkloadModel(
            hidden=source.hidden,
            error_threshold=source.error_threshold,
            max_epochs=source.max_epochs,
            joint=source.joint,
            standardize_inputs=source.standardize_inputs,
            standardize_outputs=source.standardize_outputs,
            learning_rate=source.learning_rate,
            hidden_activation=source.hidden_activation,
            l2=source.l2,
            seed=self.seed,
        )

    def retrain(
        self, name: str, warm_start: bool = True
    ) -> Tuple[NeuralWorkloadModel, np.ndarray, np.ndarray, Optional[float]]:
        """Fit a candidate on the log's measured observations.

        Returns ``(candidate, holdout_x, holdout_y, cv_error)``; the
        holdout was never seen by the candidate and is what the gate
        judges.
        """
        x, y = self.log.training_data(name)
        if x.size == 0:
            raise ValueError(
                f"no measured observations for model {name!r}; the ground "
                "truth driver has not recorded any"
            )
        train_x, train_y, holdout_x, holdout_y = self._split(x, y)
        with self._span(
            "lifecycle.retrain",
            model=name,
            warm_start=bool(warm_start),
            n_train=int(train_x.shape[0]),
        ) as span:
            incumbent = self.deployed_model(name)
            candidate = self._clone_untrained(incumbent)
            cv_error: Optional[float] = None
            if self.kfold:
                cv_report = cross_validate(
                    lambda trial: self._clone_untrained(incumbent),
                    train_x,
                    train_y,
                    k=self.kfold,
                    seed=self.seed,
                    output_names=OUTPUT_NAMES,
                )
                cv_error = float(cv_report.overall_error)
            candidate.fit(
                train_x,
                train_y,
                warm_start_from=incumbent if warm_start else None,
                epoch_callback=(
                    # One span per 10 epochs: enough resolution to see a
                    # stalled descent without a 1000-epoch run flooding
                    # the trace buffer's per-trace span bound.
                    epoch_span_hook(self.tracer, every=10)
                    if self.tracer is not None
                    else None
                ),
            )
            span.set_attribute("epochs", int(candidate.total_epochs_))
        if self.metrics is not None:
            self.metrics.count(retrains_total=1)
        return candidate, holdout_x, holdout_y, cv_error

    def validate(
        self,
        name: str,
        candidate: NeuralWorkloadModel,
        holdout_x: np.ndarray,
        holdout_y: np.ndarray,
        shadow: bool = False,
    ) -> GateReport:
        """Judge a candidate on held-out observations (Table 2 metric)."""
        with self._span(
            "lifecycle.gate", model=name, n_holdout=int(holdout_x.shape[0])
        ) as span:
            report = self._validate_inner(
                name, candidate, holdout_x, holdout_y, shadow
            )
            span.set_attribute("passed", bool(report.passed))
        return report

    def _validate_inner(
        self,
        name: str,
        candidate: NeuralWorkloadModel,
        holdout_x: np.ndarray,
        holdout_y: np.ndarray,
        shadow: bool,
    ) -> GateReport:
        report = GateReport(passed=True, n_holdout=int(holdout_x.shape[0]))
        if holdout_x.shape[0] < 2:
            report.passed = False
            report.reasons.append("holdout too small to judge")
            return report
        predicted = candidate.predict(holdout_x)
        errors = residual_errors(
            predicted, holdout_y, min_actual=self.gate.min_actual
        )
        names = (
            OUTPUT_NAMES
            if errors.size == len(OUTPUT_NAMES)
            else [f"y{j}" for j in range(errors.size)]
        )
        for indicator, error in zip(names, errors):
            if np.isnan(error):
                report.skipped.append(indicator)
                continue
            bound = self.gate.threshold_for(indicator)
            report.errors[indicator] = float(error)
            report.thresholds[indicator] = bound
            if error > bound:
                report.passed = False
                report.reasons.append(
                    f"{indicator}: harmonic-mean relative error "
                    f"{error:.3f} > gate {bound}"
                )
        if not report.errors:
            report.passed = False
            report.reasons.append(
                "no indicator had enough valid holdout measurements"
            )
        if shadow:
            report.shadow = self._shadow_compare(
                name, candidate, holdout_x, holdout_y
            )
            if not report.shadow["candidate_better"]:
                report.passed = False
                report.reasons.append(
                    "shadow evaluation: candidate did not beat the "
                    "incumbent on mirrored traffic"
                )
        return report

    def _shadow_compare(
        self,
        name: str,
        candidate: NeuralWorkloadModel,
        x: np.ndarray,
        measured: np.ndarray,
    ) -> dict:
        """Candidate vs incumbent on the same mirrored traffic."""

        def worst_error(model) -> Optional[float]:
            errors = residual_errors(
                model.predict(x), measured, min_actual=self.gate.min_actual
            )
            if np.all(np.isnan(errors)):
                return None
            return float(np.nanmax(errors))

        candidate_error = worst_error(candidate)
        incumbent_error: Optional[float] = None
        try:
            incumbent_error = worst_error(self.deployed_model(name))
        except (KeyError, ValueError, RuntimeError):
            pass
        return {
            "n": int(x.shape[0]),
            "candidate_error": candidate_error,
            "incumbent_error": incumbent_error,
            # A missing/broken/unjudgeable incumbent never blocks promotion.
            "candidate_better": (
                incumbent_error is None
                or (
                    candidate_error is not None
                    and candidate_error <= incumbent_error
                )
            ),
        }

    def _adopt_baseline(self, name: str) -> Optional[int]:
        """Bring an unmanaged deployed artifact under version control.

        When the registry serves an artifact the store has never seen
        (the original batch-trained deployment), archive it as the
        promoted baseline first — otherwise the first promotion would
        leave :meth:`rollback` with nothing to restore.
        """
        if self.store.promoted_version(name) is not None:
            return None
        deployed = self.registry_dir / f"{name}.json"
        if not deployed.is_file():
            return None
        return self.store.adopt(
            name, deployed, metadata={"status": "baseline"}
        )

    def promote(self, name: str, version: int) -> Path:
        """Deploy a stored version into the registry directory."""
        with self._span("lifecycle.promote", model=name, version=int(version)):
            target = self.store.promote(name, version, self.registry_dir)
        if self.metrics is not None:
            self.metrics.count(promotions_total=1)
        self._retune(name)
        return target

    def rollback(self, name: str) -> int:
        """Restore the previously-promoted version; returns it."""
        with self._span("lifecycle.rollback", model=name) as span:
            version = self.store.rollback(name, self.registry_dir)
            span.set_attribute("version", int(version))
        if self.metrics is not None:
            self.metrics.count(rollbacks_total=1)
        self._retune(name)
        return version

    def _retune(self, name: str) -> None:
        """After a deploy: drop stale recommendations, re-tune objectives.

        A promoted artifact answers differently, so cached
        recommendations against the old version must never be served and
        standing objectives deserve a fresh search.  Tuning failures are
        recorded but never block the deploy that triggered them.
        """
        if self.tuner is None:
            return
        with self._span("lifecycle.retune", model=name) as span:
            try:
                records = self.tuner.on_model_updated(name)
            except Exception as exc:  # noqa: BLE001 - deploys must survive
                self.last_retune[name] = [
                    {"model": name, "error": f"{type(exc).__name__}: {exc}"}
                ]
                span.record_error(exc)
                return
            self.last_retune[name] = records
            span.set_attribute("objectives", len(records))
            span.set_attribute(
                "shifted", sum(1 for r in records if r.get("shifted"))
            )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def run_cycle(
        self,
        name: str,
        force: bool = False,
        warm_start: bool = True,
        shadow: bool = False,
        promote: bool = True,
    ) -> CycleReport:
        """One full continuous-learning round for ``name``.

        Without drift (and without ``force``) the cycle stops after the
        check.  A gate-rejected candidate is still archived in the store
        (metadata ``status: rejected``) for post-mortem, but never
        promoted; ``promote=False`` archives even an accepted candidate
        without deploying it (promote later by version).
        """
        with self._span(
            "lifecycle.run_cycle", model=name, force=bool(force)
        ) as cycle_span:
            drift = self.check_drift(name)
            report = CycleReport(model=name, drift=drift)
            if not (drift.drifted or force):
                self.last_cycle[name] = report
                cycle_span.set_attribute("retrained", False)
                return report
            self._adopt_baseline(name)
            candidate, holdout_x, holdout_y, cv_error = self.retrain(
                name, warm_start=warm_start
            )
            report.retrained = True
            report.epochs = candidate.total_epochs_
            report.cv_error = cv_error
            gate = self.validate(
                name, candidate, holdout_x, holdout_y, shadow=shadow
            )
            report.gate = gate
            metadata = {
                "status": "accepted" if gate.passed else "rejected",
                "gate": gate.to_dict(),
                "drift": drift.to_dict(),
                "cv_error": cv_error,
                "warm_start": bool(warm_start),
                "seed": self.seed,
            }
            report.version = self.store.save_version(name, candidate, metadata)
            if gate.passed and promote:
                self.promote(name, report.version)
                report.promoted = True
            self.last_cycle[name] = report
            cycle_span.set_attribute("retrained", True)
            cycle_span.set_attribute("promoted", bool(report.promoted))
        return report

    # ------------------------------------------------------------------
    # status (the /lifecycle payload)
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """JSON-serializable loop state for ``GET /lifecycle``."""
        models = sorted(
            p.stem
            for p in self.registry_dir.glob("*.json")
            if not p.name.startswith(".")
        )
        per_model = {}
        for name in models:
            per_model[name] = {
                "promoted_version": self.store.promoted_version(name),
                "previous_version": self.store.previous_version(name),
                "versions": [
                    int(v["version"]) for v in self.store.list_versions(name)
                ],
                "last_drift": (
                    self.last_drift[name].to_dict()
                    if name in self.last_drift
                    else None
                ),
                "last_cycle": (
                    self.last_cycle[name].to_dict()
                    if name in self.last_cycle
                    else None
                ),
                "last_retune": self.last_retune.get(name),
            }
        payload = {
            "models": per_model,
            "observations": {
                "total": self.log.observations_total,
                "sampled_out": self.log.sampled_out_total,
                "resident": len(self.log),
                "sampling_rate": self.log.sampling_rate,
                "capacity": self.log.capacity,
            },
        }
        if self.metrics is not None:
            snapshot = self.metrics.to_dict()
            payload["counters"] = {
                name: snapshot[name]
                for name in ("observations_total", "retrains_total",
                             "promotions_total", "rollbacks_total",
                             "drift_scores")
            }
        if self.tuner is not None:
            payload["tuning"] = self.tuner.standing_status()
        return payload
