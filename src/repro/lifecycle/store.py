"""Versioned model storage with atomic promotion into the serving registry.

Artifacts written by :func:`repro.models.persistence.save_model` are
immutable single JSON files; this store keeps a numbered history of them
per model name::

    <root>/<name>/v0001.json
    <root>/<name>/v0002.json
    <root>/<name>/manifest.json     # history + promoted/previous pointers

*Promotion* copies a stored version over ``<registry_dir>/<name>.json``
with the same write-temp-then-``os.replace`` discipline as ``save_model``,
so the mtime-polling :class:`~repro.serving.registry.ModelRegistry` hot
reload picks the new version up without ever seeing a torn file.  The
mtime is forced strictly past the previous artifact's, because the
registry treats an *equal* mtime as "unchanged" and coarse filesystem
timestamps could otherwise swallow a promotion.  ``rollback()`` is one
call: promote the remembered previous version back.

Every version file and every deployed artifact carries a sha256 recorded
both in a ``.sha256`` sidecar and in the manifest entry, so corruption is
detectable instead of silent.  :meth:`verify_all` audits a model's
history, :meth:`repair_manifest` rebuilds a torn manifest from the
surviving (verified) version files, and :meth:`redeploy_verified`
restores the newest checksum-valid version into the registry — the
primitive the serving layer's auto-rollback is built on.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from ..durability.integrity import (
    atomic_write_bytes,
    quarantine_file,
    read_checksum,
    sha256_bytes,
    verify_file,
    write_checksum,
)
from ..models.neural import NeuralWorkloadModel
from ..models.persistence import load_model, save_model
from ..reliability.faults import SITE_STORE_PROMOTE, SITE_STORE_SAVE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reliability.faults import FaultPlan

__all__ = ["VersionedModelStore"]

_MANIFEST = "manifest.json"


class VersionedModelStore:
    """Numbered artifact history plus promote/rollback into a registry dir.

    Parameters
    ----------
    root:
        Directory the per-model version folders live under (created on
        demand).
    retention:
        How many version files to keep per model.  Older versions are
        pruned after each save — except the promoted and previous
        versions, which are always retained so rollback can never be
        pruned out from under you.
    faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` consulted
        at ``store.save`` (after the version file lands, before the
        manifest write) and ``store.promote`` (after the registry
        deploy, before the manifest write) — the two windows a crash
        leaves manifest and disk disagreeing.
    """

    def __init__(
        self,
        root: Union[str, Path],
        retention: int = 8,
        faults: Optional["FaultPlan"] = None,
    ):
        if retention < 2:
            raise ValueError(
                f"retention must be >= 2 (promoted + previous), "
                f"got {retention}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.retention = int(retention)
        self.faults = faults
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # manifest plumbing
    # ------------------------------------------------------------------

    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise KeyError(f"invalid model name {name!r}")
        return self.root / name

    def _manifest_path(self, name: str) -> Path:
        return self._model_dir(name) / _MANIFEST

    def _read_manifest(self, name: str) -> dict:
        path = self._manifest_path(name)
        if not path.is_file():
            return {"versions": [], "promoted": None, "previous": None}
        return json.loads(path.read_text())

    def _write_manifest(self, name: str, manifest: dict) -> None:
        atomic_write_bytes(
            self._manifest_path(name), json.dumps(manifest, indent=2).encode()
        )

    @staticmethod
    def _version_file(version: int) -> str:
        return f"v{version:04d}.json"

    def _version_path(self, name: str, version: int) -> Path:
        return self._model_dir(name) / self._version_file(version)

    # ------------------------------------------------------------------
    # history
    # ------------------------------------------------------------------

    def save_version(
        self,
        name: str,
        model: NeuralWorkloadModel,
        metadata: Optional[dict] = None,
    ) -> int:
        """Store ``model`` as the next version of ``name``; returns it."""
        with self._lock:
            directory = self._model_dir(name)
            directory.mkdir(parents=True, exist_ok=True)
            manifest = self._read_manifest(name)
            version = 1 + max(
                (int(v["version"]) for v in manifest["versions"]), default=0
            )
            path = self._version_path(name, version)
            save_model(model, path)
            digest = read_checksum(path) or write_checksum(path)
            if self.faults is not None:
                self.faults.fire(SITE_STORE_SAVE, path=path)
            manifest["versions"].append(
                {
                    "version": version,
                    "file": self._version_file(version),
                    "sha256": digest,
                    "metadata": metadata or {},
                }
            )
            self._prune(name, manifest)
            self._write_manifest(name, manifest)
            return version

    def adopt(
        self,
        name: str,
        artifact_path: Union[str, Path],
        metadata: Optional[dict] = None,
        mark_promoted: bool = True,
    ) -> int:
        """Archive an existing deployed artifact as the next version.

        Brings a model that was deployed outside the store (e.g. the
        original batch-trained artifact the server started from) under
        version management, so a later promotion has a ``previous`` to
        roll back to.  With ``mark_promoted`` the manifest records it as
        the currently-promoted version — the file is already serving, so
        nothing is copied into the registry.  Returns the version number.
        """
        artifact_path = Path(artifact_path)
        if not artifact_path.is_file():
            raise KeyError(f"no artifact to adopt at {artifact_path}")
        payload = artifact_path.read_bytes()
        with self._lock:
            directory = self._model_dir(name)
            directory.mkdir(parents=True, exist_ok=True)
            manifest = self._read_manifest(name)
            version = 1 + max(
                (int(v["version"]) for v in manifest["versions"]), default=0
            )
            path = self._version_path(name, version)
            atomic_write_bytes(path, payload)
            digest = write_checksum(path, sha256_bytes(payload))
            manifest["versions"].append(
                {
                    "version": version,
                    "file": self._version_file(version),
                    "sha256": digest,
                    "metadata": metadata or {"status": "adopted"},
                }
            )
            if mark_promoted:
                promoted = manifest.get("promoted")
                if promoted is not None and promoted != version:
                    manifest["previous"] = promoted
                manifest["promoted"] = version
            self._prune(name, manifest)
            self._write_manifest(name, manifest)
            return version

    def _prune(self, name: str, manifest: dict) -> None:
        """Drop version files beyond ``retention`` (caller holds the lock).

        The promoted and previous versions are pinned regardless of age.
        """
        pinned = {manifest.get("promoted"), manifest.get("previous")}
        entries = manifest["versions"]
        keep = entries[-self.retention:]
        kept, dropped = [], []
        for entry in entries:
            if entry in keep or entry["version"] in pinned:
                kept.append(entry)
            else:
                dropped.append(entry)
        for entry in dropped:
            victim = self._model_dir(name) / entry["file"]
            for path in (victim, victim.with_name(victim.name + ".sha256")):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        manifest["versions"] = kept

    def list_versions(self, name: str) -> List[dict]:
        """History entries (version, file, metadata), oldest first."""
        with self._lock:
            return [dict(v) for v in self._read_manifest(name)["versions"]]

    def latest_version(self, name: str) -> Optional[int]:
        """The highest stored version number, or ``None``."""
        versions = self.list_versions(name)
        return int(versions[-1]["version"]) if versions else None

    def promoted_version(self, name: str) -> Optional[int]:
        """The version currently promoted into the registry, if any."""
        with self._lock:
            promoted = self._read_manifest(name).get("promoted")
            return None if promoted is None else int(promoted)

    def previous_version(self, name: str) -> Optional[int]:
        """The version a :meth:`rollback` would restore, if any."""
        with self._lock:
            previous = self._read_manifest(name).get("previous")
            return None if previous is None else int(previous)

    def load_version(self, name: str, version: int) -> NeuralWorkloadModel:
        """Materialize one stored version."""
        path = self._version_path(name, int(version))
        if not path.is_file():
            raise KeyError(f"model {name!r} has no stored version {version}")
        return load_model(path)

    # ------------------------------------------------------------------
    # promotion / rollback
    # ------------------------------------------------------------------

    def promote(
        self,
        name: str,
        version: int,
        registry_dir: Union[str, Path],
    ) -> Path:
        """Atomically deploy ``version`` as ``<registry_dir>/<name>.json``.

        The serving registry's hot-reload path (mtime polling) picks the
        new artifact up on the next lookup; the target file is never
        observable in a torn state.  The source version's bytes are
        verified against its recorded sha256 first — a store never
        promotes an artifact it can prove is corrupt.  Returns the
        deployed path.
        """
        version = int(version)
        with self._lock:
            source = self._version_path(name, version)
            if not source.is_file():
                raise KeyError(
                    f"model {name!r} has no stored version {version}"
                )
            manifest = self._read_manifest(name)
            expected = self._manifest_digest(manifest, version)
            verdict, actual, recorded = verify_file(source, expected=expected)
            if verdict is False:
                raise ValueError(
                    f"refusing to promote {name!r} v{version}: sha256 "
                    f"{actual[:12]}… != recorded {str(recorded)[:12]}…"
                )
            target = Path(registry_dir) / f"{name}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            self._deploy(source, target)
            if self.faults is not None:
                self.faults.fire(SITE_STORE_PROMOTE, path=target)
            promoted = manifest.get("promoted")
            if promoted is not None and promoted != version:
                manifest["previous"] = promoted
            manifest["promoted"] = version
            self._write_manifest(name, manifest)
            return target

    def rollback(self, name: str, registry_dir: Union[str, Path]) -> int:
        """Restore the previously-promoted version; returns it.

        After a rollback the rolled-back version becomes ``previous``, so
        rolling "forward" again is itself one more :meth:`rollback`.
        """
        with self._lock:
            manifest = self._read_manifest(name)
            previous = manifest.get("previous")
            if previous is None:
                raise RuntimeError(
                    f"model {name!r} has no previous version to roll back to"
                )
            source = self._version_path(name, int(previous))
            if not source.is_file():
                raise RuntimeError(
                    f"previous version {previous} of {name!r} is missing "
                    "on disk"
                )
            target = Path(registry_dir) / f"{name}.json"
            self._deploy(source, target)
            manifest["previous"] = manifest.get("promoted")
            manifest["promoted"] = int(previous)
            self._write_manifest(name, manifest)
            return int(previous)

    @staticmethod
    def _deploy(source: Path, target: Path) -> None:
        """Copy ``source`` over ``target`` atomically, mtime strictly newer.

        The deployed artifact gets its own ``.sha256`` sidecar (written
        after the artifact replace; readers tolerate the in-between
        instant by re-reading) so the serving registry can verify what
        it hot-reloads.
        """
        try:
            old_mtime_ns = os.stat(target).st_mtime_ns
        except OSError:
            old_mtime_ns = None
        payload = source.read_bytes()
        atomic_write_bytes(target, payload)
        if old_mtime_ns is not None:
            stat = os.stat(target)
            if stat.st_mtime_ns <= old_mtime_ns:
                os.utime(
                    target, ns=(stat.st_atime_ns, old_mtime_ns + 1)
                )
        write_checksum(target, sha256_bytes(payload))

    # ------------------------------------------------------------------
    # integrity / recovery
    # ------------------------------------------------------------------

    @staticmethod
    def _manifest_digest(manifest: dict, version: int) -> Optional[str]:
        """The sha256 the manifest records for ``version`` (or ``None``)."""
        for entry in manifest.get("versions", ()):
            if int(entry.get("version", -1)) == version:
                digest = entry.get("sha256")
                return str(digest).lower() if digest else None
        return None

    def verify_version(self, name: str, version: int) -> dict:
        """Audit one stored version against its recorded sha256.

        Returns ``{"version", "file", "verdict", "sha256"}`` with verdict
        ``"ok"`` (bytes match), ``"mismatch"``, ``"unverified"`` (no
        digest recorded anywhere — a pre-durability artifact), or
        ``"missing"`` (version file gone).
        """
        version = int(version)
        with self._lock:
            manifest = self._read_manifest(name)
            expected = self._manifest_digest(manifest, version)
        path = self._version_path(name, version)
        if not path.is_file():
            return {
                "version": version,
                "file": self._version_file(version),
                "verdict": "missing",
                "sha256": expected,
            }
        verdict, actual, _ = verify_file(path, expected=expected)
        label = (
            "unverified" if verdict is None else "ok" if verdict else "mismatch"
        )
        return {
            "version": version,
            "file": self._version_file(version),
            "verdict": label,
            "sha256": actual,
        }

    def verify_all(self, name: str) -> List[dict]:
        """Audit every manifest-listed version of ``name``, oldest first."""
        with self._lock:
            versions = [
                int(v["version"])
                for v in self._read_manifest(name)["versions"]
            ]
        return [self.verify_version(name, v) for v in versions]

    def repair_manifest(self, name: str) -> dict:
        """Rebuild ``name``'s manifest from the surviving version files.

        The startup-recovery primitive: a crash between writing a
        version/artifact file and the manifest (the ``store.save`` /
        ``store.promote`` windows), or a torn manifest write itself,
        leaves the two out of sync.  This method makes the on-disk files
        authoritative:

        * an unparseable manifest is discarded and rebuilt from scratch;
        * version files failing their sidecar digest are quarantined;
        * surviving files missing from the manifest are re-added with
          ``status: "recovered"``; entries whose file is gone are dropped;
        * every kept entry gets its ``sha256`` backfilled (writing the
          sidecar if it was missing);
        * promoted/previous pointers landing on dropped versions are
          moved to the newest surviving version (or cleared).

        Returns a report dict (``repaired`` flags whether anything
        changed).
        """
        with self._lock:
            directory = self._model_dir(name)
            report = {
                "model": name,
                "repaired": False,
                "manifest_rebuilt": False,
                "quarantined": [],
                "recovered": [],
                "dropped": [],
                "promoted": None,
                "previous": None,
            }
            if not directory.is_dir():
                return report
            try:
                manifest = self._read_manifest(name)
                entries = {
                    int(v["version"]): dict(v) for v in manifest["versions"]
                }
            except (ValueError, KeyError, TypeError, OSError):
                manifest = {"versions": [], "promoted": None, "previous": None}
                entries = {}
                report["manifest_rebuilt"] = True
                report["repaired"] = True

            # On-disk version files, verified against their sidecars.
            survivors = {}
            for path in sorted(directory.glob("v*.json")):
                stem = path.stem
                try:
                    version = int(stem[1:])
                except ValueError:
                    continue
                verdict, actual, _ = verify_file(path)
                if verdict is False:
                    moved = quarantine_file(path)
                    report["quarantined"].append(
                        {"version": version, "moved_to": str(moved)}
                    )
                    report["repaired"] = True
                    continue
                survivors[version] = actual
                if verdict is None:
                    # No sidecar — backfill one so the file is verifiable
                    # from now on.
                    write_checksum(path, actual)

            # Reconcile manifest entries with the survivors.
            rebuilt = []
            for version in sorted(set(entries) | set(survivors)):
                if version not in survivors:
                    report["dropped"].append(version)
                    report["repaired"] = True
                    continue
                entry = entries.get(version)
                if entry is None:
                    entry = {
                        "version": version,
                        "file": self._version_file(version),
                        "metadata": {"status": "recovered"},
                    }
                    report["recovered"].append(version)
                    report["repaired"] = True
                if entry.get("sha256") != survivors[version]:
                    entry["sha256"] = survivors[version]
                    report["repaired"] = True
                rebuilt.append(entry)
            manifest["versions"] = rebuilt

            # Pointers must land on surviving versions.
            newest = max(survivors) if survivors else None
            for pointer in ("promoted", "previous"):
                value = manifest.get(pointer)
                if value is not None and int(value) not in survivors:
                    fallback = newest if pointer == "promoted" else None
                    if fallback == manifest.get("promoted"):
                        fallback = None
                    manifest[pointer] = fallback
                    report["repaired"] = True
            if manifest.get("promoted") is None and newest is not None:
                manifest["promoted"] = newest
                report["repaired"] = True
            if manifest.get("previous") == manifest.get("promoted"):
                manifest["previous"] = None
            report["promoted"] = manifest.get("promoted")
            report["previous"] = manifest.get("previous")
            self._write_manifest(name, manifest)
            return report

    def redeploy_verified(
        self, name: str, registry_dir: Union[str, Path]
    ) -> Optional[int]:
        """Deploy the best verified-good version of ``name``; returns it.

        Candidates are tried promoted → previous → remaining versions
        newest-first; the first whose bytes match their recorded digest
        *and* parse as JSON wins.  The manifest's promoted/previous
        pointers are updated to match what was actually deployed.
        Returns ``None`` when no version survives verification — the
        caller is out of good artifacts.
        """
        with self._lock:
            manifest = self._read_manifest(name)
            versions = sorted(
                (int(v["version"]) for v in manifest["versions"]),
                reverse=True,
            )
            ordered = []
            for candidate in (
                manifest.get("promoted"),
                manifest.get("previous"),
                *versions,
            ):
                if candidate is None:
                    continue
                candidate = int(candidate)
                if candidate not in ordered:
                    ordered.append(candidate)
            for candidate in ordered:
                source = self._version_path(name, candidate)
                if not source.is_file():
                    continue
                expected = self._manifest_digest(manifest, candidate)
                verdict, _, _ = verify_file(source, expected=expected)
                if verdict is False:
                    continue
                try:
                    json.loads(source.read_text())
                except (ValueError, OSError):
                    continue
                target = Path(registry_dir) / f"{name}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                self._deploy(source, target)
                promoted = manifest.get("promoted")
                if promoted is not None and int(promoted) != candidate:
                    manifest["previous"] = int(promoted)
                manifest["promoted"] = candidate
                self._write_manifest(name, manifest)
                return candidate
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedModelStore({str(self.root)!r}, "
            f"retention={self.retention})"
        )
