"""Startup recovery: make disk state trustworthy before serving begins.

A crash can die inside any of the durability windows — between a version
file and its manifest entry (``store.save``), between a registry deploy
and the promoted pointer (``store.promote``), or mid-append in a journal
segment.  :class:`RecoveryManager` runs once at startup and walks all of
it back to a consistent state:

1. consume the :class:`~repro.durability.integrity.CleanShutdownMarker`
   (absent marker = the last process died hard, so assume torn state);
2. for every model in the :class:`~repro.lifecycle.store.VersionedModelStore`,
   re-verify checksums and repair the manifest from the surviving
   version files (corrupt versions are quarantined, never deleted);
3. verify the *deployed* registry artifacts; a torn or digest-mismatched
   artifact is quarantined and the newest verified-good stored version is
   redeployed in its place;
4. repair the observation journal's torn tail and account what survived.

Everything is reported as a :class:`RecoveryReport`, mirrored into the
serving metrics (``recoveries_total``, ``journal_records_*``, quarantine
and rollback counters), and traced as ``recovery.*`` spans.

The manager duck-types its collaborators (anything with the
``VersionedModelStore`` repair surface works) and imports nothing from
:mod:`repro.lifecycle` or :mod:`repro.serving` at module level, keeping
the durability package import-cycle-free.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .integrity import (
    CleanShutdownMarker,
    quarantine_file,
    sha256_file,
    verify_file,
)
from .journal import replay_journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lifecycle.store import VersionedModelStore
    from ..observability.trace import Tracer
    from ..serving.metrics import ServingMetrics

__all__ = ["RecoveryManager", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """Everything one startup recovery pass found and fixed."""

    clean_shutdown: bool = False
    models: Dict[str, dict] = field(default_factory=dict)
    redeployed: Dict[str, int] = field(default_factory=dict)
    quarantined_artifacts: List[str] = field(default_factory=list)
    journal: dict = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def repaired_anything(self) -> bool:
        return bool(
            self.redeployed
            or self.quarantined_artifacts
            or self.journal.get("dropped")
            or any(r.get("repaired") for r in self.models.values())
        )

    def to_dict(self) -> dict:
        return {
            "clean_shutdown": self.clean_shutdown,
            "models": dict(self.models),
            "redeployed": dict(self.redeployed),
            "quarantined_artifacts": list(self.quarantined_artifacts),
            "journal": dict(self.journal),
            "repaired_anything": self.repaired_anything,
            "duration_s": self.duration_s,
        }


class RecoveryManager:
    """One-shot startup recovery over store, registry dir, and journal.

    Parameters
    ----------
    store:
        Optional versioned model store (anything exposing
        ``repair_manifest`` / ``redeploy_verified`` / ``promoted_version``
        and a ``root`` path).  ``None`` skips store + artifact repair.
    registry_dir:
        The serving registry directory whose deployed ``<name>.json``
        artifacts are verified (required for artifact repair).
    journal_dir:
        Optional observation-journal directory whose torn tail is
        repaired and accounted.
    marker:
        Optional :class:`CleanShutdownMarker` (or a path for one)
        consumed to learn whether the previous shutdown was graceful.
    metrics:
        Optional serving metrics mirror.
    tracer:
        Optional tracer; the pass is recorded as a ``recovery.run`` span
        with per-model ``recovery.store.repair`` /
        ``recovery.artifact.redeploy`` children.
    """

    def __init__(
        self,
        store: Optional["VersionedModelStore"] = None,
        registry_dir: Optional[Union[str, Path]] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        marker: Optional[Union[CleanShutdownMarker, str, Path]] = None,
        metrics: Optional["ServingMetrics"] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self.store = store
        self.registry_dir = (
            None if registry_dir is None else Path(registry_dir)
        )
        self.journal_dir = None if journal_dir is None else Path(journal_dir)
        if marker is not None and not isinstance(marker, CleanShutdownMarker):
            marker = CleanShutdownMarker(marker)
        self.marker = marker
        self.metrics = metrics
        self.tracer = tracer

    # ------------------------------------------------------------------

    def run(self) -> RecoveryReport:
        """Execute the full recovery pass; returns what it found/fixed."""
        started = time.monotonic()
        report = RecoveryReport()
        if self.marker is not None:
            report.clean_shutdown = self.marker.consume()
        if self.store is not None:
            for name in self._model_names():
                report.models[name] = self._repair_model(name, report)
        if self.journal_dir is not None:
            recovery = replay_journal(self.journal_dir, repair=True)
            report.journal = recovery.to_dict()
            if self.metrics is not None:
                self.metrics.count(
                    journal_records_recovered_total=recovery.recovered,
                    journal_records_dropped_total=recovery.dropped,
                )
        report.duration_s = time.monotonic() - started
        if self.metrics is not None:
            self.metrics.count(recoveries_total=1)
        self._record_span(
            "recovery.run",
            duration_s=report.duration_s,
            clean_shutdown=report.clean_shutdown,
            models=len(report.models),
            redeployed=len(report.redeployed),
            quarantined_artifacts=len(report.quarantined_artifacts),
            journal_recovered=report.journal.get("recovered", 0),
            journal_dropped=report.journal.get("dropped", 0),
            repaired_anything=report.repaired_anything,
        )
        return report

    # ------------------------------------------------------------------

    def _model_names(self) -> List[str]:
        """Model directories under the store root (quarantine excluded)."""
        root = Path(self.store.root)
        if not root.is_dir():
            return []
        names = []
        for entry in sorted(root.iterdir()):
            if not entry.is_dir() or entry.name.startswith("."):
                continue
            if entry.name == "quarantine":
                continue
            if (entry / "manifest.json").is_file() or any(
                entry.glob("v*.json")
            ):
                names.append(entry.name)
        return names

    def _repair_model(self, name: str, report: RecoveryReport) -> dict:
        """Repair one model's manifest, then its deployed artifact."""
        repair = self.store.repair_manifest(name)
        self._record_span(
            "recovery.store.repair",
            model=name,
            repaired=repair.get("repaired", False),
            quarantined=len(repair.get("quarantined", ())),
            recovered=len(repair.get("recovered", ())),
            dropped=len(repair.get("dropped", ())),
        )
        if self.registry_dir is None:
            return repair
        target = self.registry_dir / f"{name}.json"
        deployed_ok = self._deployed_artifact_ok(target)
        if deployed_ok:
            # The artifact is sound — but is it the *promoted* one?  A
            # crash inside promote() can die after the registry deploy
            # but before the manifest commit; the manifest is the commit
            # point, so a valid-but-uncommitted deploy is rolled back.
            expected = self._promoted_digest(name)
            if expected is None or sha256_file(target) == expected:
                return repair
        elif target.is_file():
            # Corrupt (not merely uncommitted) artifacts are evidence:
            # quarantine before redeploying over the path.
            moved = quarantine_file(target)
            if moved is not None:
                report.quarantined_artifacts.append(str(moved))
                if self.metrics is not None:
                    self.metrics.count(artifacts_quarantined_total=1)
        redeployed = self.store.redeploy_verified(name, self.registry_dir)
        if redeployed is not None:
            report.redeployed[name] = redeployed
            if self.metrics is not None:
                self.metrics.count(auto_rollbacks_total=1)
            self._record_span(
                "recovery.artifact.redeploy", model=name, version=redeployed
            )
        repair["redeployed"] = redeployed
        return repair

    def _promoted_digest(self, name: str) -> Optional[str]:
        """The manifest-recorded sha256 of the promoted version, if known."""
        try:
            version = self.store.promoted_version(name)
            if version is None:
                return None
            for entry in self.store.list_versions(name):
                if entry.get("version") == version:
                    return entry.get("sha256")
        except Exception:  # noqa: BLE001 - recovery must not die mid-pass
            pass
        return None

    def _deployed_artifact_ok(self, target: Path) -> bool:
        """Whether the deployed registry artifact is present and sound."""
        if not target.is_file():
            return False
        verdict, _, _ = verify_file(target)
        if verdict is False:
            if self.metrics is not None:
                self.metrics.count(artifact_verify_failures_total=1)
            return False
        # Unverified (pre-durability) artifacts must at least parse.
        try:
            json.loads(target.read_text())
        except (ValueError, OSError):
            return False
        return True

    def _record_span(self, name: str, duration_s: float = 0.0, **attributes):
        if self.tracer is None:
            return
        self.tracer.record_span(
            name,
            duration_s=duration_s,
            attributes={k: v for k, v in attributes.items() if v is not None},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryManager(store={self.store!r}, "
            f"registry_dir={str(self.registry_dir)!r}, "
            f"journal_dir={str(self.journal_dir)!r})"
        )
