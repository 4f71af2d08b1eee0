"""Hot-loading registry of persisted workload models.

Models live on disk as the single-file JSON artifacts written by
:func:`repro.models.persistence.save_model`; the registry maps
``<name>.json`` files in one directory to ready-to-predict
:class:`~repro.models.neural.NeuralWorkloadModel` instances.  Loading is
lazy (a model is materialized on first :meth:`ModelRegistry.get`),
thread-safe, and *hot*: every access re-checks the artifact's mtime and
atomically swaps in a reloaded model when the file changed, so a retrained
artifact can be dropped over the old one while the server keeps running.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..models.neural import NeuralWorkloadModel
from ..models.persistence import decode_model
from ..reliability.faults import SITE_REGISTRY_LOAD, SITE_REGISTRY_STAT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability.integrity import IntegrityGuard
    from ..observability.trace import Tracer
    from ..reliability.faults import FaultPlan

__all__ = ["RegistryEntry", "ModelRegistry"]


@dataclass(frozen=True)
class RegistryEntry:
    """One loaded model plus the provenance needed to detect staleness."""

    name: str
    model: NeuralWorkloadModel
    path: Path
    format_version: int
    mtime_ns: int

    @property
    def key(self) -> str:
        """Registry key: artifact name qualified by its format version."""
        return f"{self.name}@v{self.format_version}"


class ModelRegistry:
    """Load, list, and evict persisted models from a directory.

    Parameters
    ----------
    directory:
        Directory holding ``<name>.json`` model artifacts.
    check_mtime:
        When ``True`` (default) every :meth:`get` stats the artifact and
        transparently reloads it if the file changed since the cached
        load — the hot-deploy path.  Disable for strictly immutable
        artifact stores to save the ``stat`` call.
    faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` consulted at
        the ``registry.stat`` site (before the artifact ``stat``; file
        faults like ``corrupt_artifact``/``clock_skew`` land here) and the
        ``registry.load`` site (before parsing).
    tracer:
        Optional :class:`~repro.observability.trace.Tracer`; every
        artifact parse (first load and hot reload alike) then shows up as
        a ``registry.load`` span in the requesting trace — the stall a
        request pays when it lands right after a hot deploy.
    integrity:
        Optional :class:`~repro.durability.integrity.IntegrityGuard`.
        When present, every load first verifies the artifact's bytes
        against its recorded sha256, and a corrupt artifact (verification
        failure or parse error) is quarantined and — when the guard
        carries a rollback hook — replaced by the last verified-good
        stored version, with the load retried once against the healed
        file.  Without a guard, corruption raises as before.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        check_mtime: bool = True,
        faults: Optional["FaultPlan"] = None,
        tracer: Optional["Tracer"] = None,
        integrity: Optional["IntegrityGuard"] = None,
    ):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ValueError(f"model directory {self.directory} does not exist")
        self.check_mtime = bool(check_mtime)
        self.faults = faults
        self.tracer = tracer
        self.integrity = integrity
        self._entries: Dict[str, RegistryEntry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def path_for(self, name: str) -> Path:
        """The artifact path a model name maps to (no traversal allowed)."""
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise KeyError(f"invalid model name {name!r}")
        return self.directory / f"{name}.json"

    def list_models(self) -> List[str]:
        """Names of every artifact currently on disk, sorted."""
        return sorted(
            p.stem
            for p in self.directory.glob("*.json")
            if not p.name.startswith(".")
        )

    def loaded_models(self) -> List[str]:
        """Names already materialized in memory, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        try:
            return self.path_for(name).is_file()
        except KeyError:
            return False

    def __len__(self) -> int:
        return len(self.list_models())

    # ------------------------------------------------------------------

    def get(self, name: str) -> NeuralWorkloadModel:
        """The ready-to-predict model for ``name`` (lazy hot-load)."""
        return self.get_entry(name).model

    def get_entry(self, name: str) -> RegistryEntry:
        """Like :meth:`get` but returns the full :class:`RegistryEntry`."""
        path = self.path_for(name)
        if self.faults is not None:
            self.faults.fire(SITE_REGISTRY_STAT, path=path)
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and not self.check_mtime:
                return entry
            try:
                mtime_ns = os.stat(path).st_mtime_ns
            except OSError:
                self._entries.pop(name, None)
                raise KeyError(f"unknown model {name!r}") from None
            if entry is not None and entry.mtime_ns == mtime_ns:
                return entry
        # Parse outside the lock: loading a large artifact must not stall
        # concurrent lookups of other (or the old) models.
        try:
            entry = self._load(name, path, mtime_ns)
        except ValueError as exc:
            entry = self._recover_corrupt(name, path, exc)
        with self._lock:
            current = self._entries.get(name)
            # Another thread may have loaded an even newer artifact while
            # we parsed; keep whichever saw the later mtime.
            if current is None or current.mtime_ns <= entry.mtime_ns:
                self._entries[name] = entry
            else:
                entry = current
        return entry

    def reload(self, name: str) -> RegistryEntry:
        """Force a fresh load of ``name``, atomically swapping the entry."""
        with self._lock:
            self._entries.pop(name, None)
        return self.get_entry(name)

    def evict(self, name: str) -> bool:
        """Drop ``name`` from memory; returns whether it was loaded."""
        with self._lock:
            return self._entries.pop(name, None) is not None

    def clear(self) -> None:
        """Drop every materialized model (artifacts stay on disk)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------

    def _recover_corrupt(
        self, name: str, path: Path, exc: ValueError
    ) -> RegistryEntry:
        """Quarantine a corrupt artifact, roll back, and retry the load once.

        Only reached when a load raised :class:`ValueError` (torn JSON,
        digest mismatch, missing fields).  Without an integrity guard —
        or when the guard cannot restore a good artifact — the original
        error propagates; the self-healing path needs both a guard and
        its rollback hook.
        """
        if self.integrity is None:
            raise exc
        restored = self.integrity.handle_corrupt(name, path, exc)
        if not restored:
            raise exc
        try:
            mtime_ns = os.stat(path).st_mtime_ns
        except OSError:
            raise exc from None
        return self._load(name, path, mtime_ns)

    def _load(self, name: str, path: Path, mtime_ns: int) -> RegistryEntry:
        if self.tracer is None:
            return self._load_inner(name, path, mtime_ns)
        with self.tracer.start_span(
            "registry.load", attributes={"model": name}
        ) as span:
            entry = self._load_inner(name, path, mtime_ns)
            span.set_attribute("format_version", entry.format_version)
        return entry

    def _load_inner(
        self, name: str, path: Path, mtime_ns: int
    ) -> RegistryEntry:
        if self.faults is not None:
            self.faults.fire(SITE_REGISTRY_LOAD, path=path)
        # One read serves both the integrity check and the parse — the
        # verify-on-load overhead is the hash and the sidecar read only.
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(
                f"cannot read model file {path}: {exc}"
            ) from exc
        if self.integrity is not None:
            self.integrity.verify(path, payload=raw)
        payload, model = decode_model(raw, path)
        return RegistryEntry(
            name=name,
            model=model,
            path=path,
            format_version=int(payload["format_version"]),
            mtime_ns=mtime_ns,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelRegistry({str(self.directory)!r}, "
            f"loaded={self.loaded_models()})"
        )
