"""Continuous learning: keep the characterization model true to its workload.

The paper constructs its model once from a batch of sampled configurations
(Section 2.2); a production deployment must notice when the workload walks
away from that sample and respond.  This package closes the loop around
the serving stack:

* :class:`~repro.lifecycle.observations.ObservationLog` captures served
  traffic (via the :class:`~repro.serving.engine.ServingEngine`
  ``observer`` hook) and driver-measured ground truth into a thread-safe
  ring buffer, optionally backed by the write-ahead journal of
  :mod:`repro.durability.journal`;
* :class:`~repro.lifecycle.drift.DriftDetector` scores the stream against
  the deployed artifact's own Section 3.1 scaler statistics
  (configuration drift) and the paper's harmonic-mean relative-error
  metric (residual drift, Section 3.3);
* :class:`~repro.lifecycle.orchestrator.LifecycleOrchestrator` retrains
  with the paper's methodology — warm-started from the incumbent — and
  only promotes candidates that pass a Table 2-style per-indicator error
  gate on held-out observations;
* :class:`~repro.lifecycle.store.VersionedModelStore` keeps the version
  history and performs the atomic promote/rollback into the registry
  directory the hot-reloading server watches.

``repro lifecycle`` drives the same loop from the shell.
"""

from .drift import (
    DriftDetector,
    DriftReport,
    DriftThresholds,
    config_drift_scores,
    residual_errors,
)
from .observations import Observation, ObservationLog, serving_tap
from .orchestrator import (
    CycleReport,
    GateReport,
    GateThresholds,
    LifecycleOrchestrator,
)
from .store import VersionedModelStore

__all__ = [
    "Observation",
    "ObservationLog",
    "serving_tap",
    "DriftThresholds",
    "DriftReport",
    "DriftDetector",
    "config_drift_scores",
    "residual_errors",
    "VersionedModelStore",
    "GateThresholds",
    "GateReport",
    "CycleReport",
    "LifecycleOrchestrator",
]
