"""Artifact integrity: sha256 sidecars, quarantine, and auto-rollback.

A model artifact is one JSON file; a torn or bit-rotted artifact is a
model that silently predicts garbage (or a registry that crashes every
hot reload).  This module gives every artifact a verifiable identity:

* :func:`write_checksum` / :func:`read_checksum` manage a ``<file>.sha256``
  sidecar next to each artifact (written by
  :func:`repro.models.persistence.save_model` and by
  :meth:`VersionedModelStore promotions
  <repro.lifecycle.store.VersionedModelStore.promote>`);
* :func:`verify_file` compares the file's bytes against the sidecar (or
  an explicitly expected digest, e.g. the one recorded in a store
  manifest);
* :func:`quarantine_file` moves a corrupt artifact (plus its sidecar)
  into a ``quarantine/`` subdirectory instead of deleting evidence;
* :class:`IntegrityGuard` packages verify + quarantine + an optional
  rollback hook for the serving registry: when a freshly promoted
  artifact fails verification at hot reload, the guard quarantines it,
  asks the version store to redeploy the last verified-good version, and
  lets the registry retry — the serving path self-heals instead of
  erroring until a human intervenes;
* :class:`CleanShutdownMarker` is the one-byte contract between graceful
  drain and the next startup's :class:`~repro.durability.recovery.RecoveryManager`.

Verification tolerates the benign race between an artifact replace and
its sidecar replace (both are individually atomic, the pair is not) by
re-reading once before declaring a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.trace import Tracer
    from ..serving.metrics import ServingMetrics

__all__ = [
    "ArtifactIntegrityError",
    "atomic_write_bytes",
    "sha256_bytes",
    "sha256_file",
    "checksum_path",
    "write_checksum",
    "read_checksum",
    "verify_file",
    "quarantine_file",
    "IntegrityGuard",
    "CleanShutdownMarker",
]

#: Suffix of the digest sidecar written next to each artifact.
CHECKSUM_SUFFIX = ".sha256"

#: Subdirectory corrupt artifacts are moved into (never deleted).
QUARANTINE_DIR = "quarantine"


class ArtifactIntegrityError(ValueError):
    """An artifact's bytes do not match its recorded checksum.

    Subclasses :class:`ValueError` so every existing "cannot load model
    file" handler treats an integrity failure as the load failure it is.
    """

    def __init__(self, path: Union[str, Path], actual: str, expected: str):
        self.path = Path(path)
        self.actual = actual
        self.expected = expected
        super().__init__(
            f"artifact {self.path} failed integrity verification: "
            f"sha256 {actual[:12]}… != recorded {expected[:12]}…"
        )


def sha256_bytes(data: bytes) -> str:
    """Hex sha256 of a byte string."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Union[str, Path]) -> str:
    """Hex sha256 of a file's bytes (raises ``OSError`` if unreadable)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checksum_path(path: Union[str, Path]) -> Path:
    """The sidecar path recording ``path``'s digest."""
    path = Path(path)
    return path.with_name(path.name + CHECKSUM_SUFFIX)


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + fsync + ``os.replace``.

    A concurrent reader sees either the old file or the complete new one,
    never a torn write; on any failure the temporary file is removed.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_checksum(
    path: Union[str, Path], digest: Optional[str] = None
) -> str:
    """Record ``path``'s sha256 in its sidecar (atomically); returns it."""
    path = Path(path)
    if digest is None:
        digest = sha256_file(path)
    atomic_write_bytes(checksum_path(path), (digest + "\n").encode("ascii"))
    return digest


def read_checksum(path: Union[str, Path]) -> Optional[str]:
    """The recorded digest for ``path``, or ``None`` without a sidecar.

    Read with raw ``os`` calls: this sits on the registry's
    verify-on-load path, where a buffered-IO open costs more than the
    sidecar's 65 bytes (a hex digest is 64 chars; 256 covers any
    ``sha256sum``-style "digest  filename" line).
    """
    path = Path(path)
    try:
        fd = os.open(str(path.parent / (path.name + CHECKSUM_SUFFIX)), os.O_RDONLY)
    except OSError:
        return None
    try:
        text = os.read(fd, 256).decode("ascii", "replace").strip()
    finally:
        os.close(fd)
    # Tolerate `sha256sum`-style "digest  filename" lines.
    digest = text.split()[0] if text else ""
    return digest.lower() or None


def verify_file(
    path: Union[str, Path],
    expected: Optional[str] = None,
    retries: int = 1,
    retry_delay_s: float = 0.02,
    payload: Optional[bytes] = None,
) -> Tuple[Optional[bool], str, Optional[str]]:
    """Check ``path`` against its recorded digest.

    Returns ``(verdict, actual, expected)`` where ``verdict`` is ``True``
    (match), ``False`` (mismatch), or ``None`` (no digest recorded —
    a pre-durability artifact).  ``expected=None`` reads the sidecar.

    ``payload`` lets a caller that already holds the file's bytes (the
    registry load path) verify without a second read; it is only trusted
    on the first attempt — retries always go back to disk.

    A mismatch is re-read ``retries`` times before being believed: an
    artifact and its sidecar are each replaced atomically but not as a
    pair, so a reader can catch the microsecond between the two writes.
    """
    path = Path(path)
    sidecar = expected is None
    for attempt in range(retries + 1):
        recorded = read_checksum(path) if sidecar else expected
        if payload is not None and attempt == 0:
            actual = sha256_bytes(payload)
        else:
            actual = sha256_file(path)
        if recorded is None:
            return None, actual, None
        if actual == recorded.lower():
            return True, actual, recorded
        if attempt < retries:
            time.sleep(retry_delay_s)
    return False, actual, recorded


def quarantine_file(
    path: Union[str, Path],
    quarantine_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Move a corrupt artifact (and sidecar) aside; returns its new home.

    The file lands in ``quarantine_dir`` (default: a ``quarantine/``
    subdirectory next to it) under a collision-free numbered name, so
    repeated corruption of the same artifact keeps every specimen.
    Returns ``None`` when ``path`` no longer exists.
    """
    path = Path(path)
    if not path.exists():
        return None
    directory = (
        path.parent / QUARANTINE_DIR
        if quarantine_dir is None
        else Path(quarantine_dir)
    )
    directory.mkdir(parents=True, exist_ok=True)
    for counter in range(10_000):
        target = directory / f"{path.name}.quarantined-{counter:04d}"
        if not target.exists():
            break
    os.replace(path, target)
    sidecar = checksum_path(path)
    if sidecar.exists():
        try:
            os.replace(sidecar, checksum_path(target))
        except OSError:
            pass
    return target


class IntegrityGuard:
    """Verify-on-load, quarantine, and auto-rollback for a registry.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.serving.metrics.ServingMetrics` whose
        ``artifact_verify_failures_total`` / ``artifacts_quarantined_total``
        / ``auto_rollbacks_total`` counters mirror what the guard does.
    rollback:
        Optional ``(model_name) -> bool`` hook that restores a known-good
        artifact at the model's registry path — typically
        ``lambda name: store.redeploy_verified(name, registry_dir) is not
        None``.  Without it, corruption is quarantined but not healed.
    quarantine_dir:
        Where corrupt artifacts are moved (default: ``quarantine/`` next
        to each artifact).
    require_checksum:
        When ``True``, an artifact *without* a sidecar fails verification
        instead of passing unverified — for stores where every artifact
        is known to carry one.
    tracer:
        Optional tracer; quarantines and rollbacks are recorded as
        ``recovery.quarantine`` / ``recovery.rollback`` spans.
    """

    def __init__(
        self,
        metrics: Optional["ServingMetrics"] = None,
        rollback: Optional[Callable[[str], bool]] = None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        require_checksum: bool = False,
        tracer: Optional["Tracer"] = None,
    ):
        self.metrics = metrics
        self.rollback = rollback
        self.quarantine_dir = (
            None if quarantine_dir is None else Path(quarantine_dir)
        )
        self.require_checksum = bool(require_checksum)
        self.tracer = tracer
        self.verify_failures = 0
        self.quarantined = 0
        self.auto_rollbacks = 0
        # sidecar path -> (sidecar mtime_ns, digest).  A sidecar is only
        # ever replaced atomically (new inode, new mtime), so an
        # unchanged mtime proves the cached digest is still the recorded
        # one and one stat() replaces the open/read/close per load.
        self._digest_cache: Dict[str, Tuple[int, str]] = {}

    # ------------------------------------------------------------------

    def verify(
        self, path: Union[str, Path], payload: Optional[bytes] = None
    ) -> Optional[str]:
        """Verify one artifact; returns its digest (``None`` = unverified).

        ``payload`` skips the hashing read when the caller already holds
        the file's bytes.  Raises :class:`ArtifactIntegrityError` on a
        mismatch (after the race-tolerant re-read) and counts the
        failure.
        """
        if payload is not None:
            # Hot-reload fast path: with the bytes in hand, an unchanged
            # sidecar (by mtime) pins the expected digest, so the whole
            # verify is one stat() plus the sha256 of the payload.
            sidecar = str(path) + CHECKSUM_SUFFIX
            try:
                mtime_ns = os.stat(sidecar).st_mtime_ns
            except OSError:
                mtime_ns = None
            if mtime_ns is not None:
                cached = self._digest_cache.get(sidecar)
                if cached is not None and cached[0] == mtime_ns:
                    actual = sha256_bytes(payload)
                    if actual == cached[1]:
                        return actual
                    # Stale bytes or real corruption: fall through to the
                    # race-tolerant full verification before believing it.
            verdict, actual, expected = verify_file(path, payload=payload)
            if verdict and mtime_ns is not None:
                self._digest_cache[sidecar] = (mtime_ns, actual)
        else:
            verdict, actual, expected = verify_file(path)
        if verdict is None:
            if self.require_checksum:
                self._count_failure()
                raise ArtifactIntegrityError(path, actual, "<missing>")
            return None
        if not verdict:
            self._count_failure()
            raise ArtifactIntegrityError(path, actual, expected)
        return actual

    def handle_corrupt(
        self,
        name: str,
        path: Union[str, Path],
        error: Optional[BaseException] = None,
    ) -> bool:
        """Quarantine a corrupt artifact and try to restore a good one.

        Returns ``True`` when the rollback hook redeployed a verified
        artifact at ``path`` (the caller should retry its load), ``False``
        when there is nothing to heal with.
        """
        moved = quarantine_file(path, self.quarantine_dir)
        if moved is not None:
            self.quarantined += 1
            if self.metrics is not None:
                self.metrics.count(artifacts_quarantined_total=1)
            self._record_span(
                "recovery.quarantine",
                model=name,
                quarantined_to=str(moved),
                error=None if error is None else repr(error),
            )
        if self.rollback is None:
            return False
        try:
            restored = bool(self.rollback(name))
        except Exception:  # noqa: BLE001 - healing must never raise anew
            restored = False
        if restored:
            self.auto_rollbacks += 1
            if self.metrics is not None:
                self.metrics.count(auto_rollbacks_total=1)
            self._record_span("recovery.rollback", model=name)
        return restored

    # ------------------------------------------------------------------

    def _count_failure(self) -> None:
        self.verify_failures += 1
        if self.metrics is not None:
            self.metrics.count(artifact_verify_failures_total=1)

    def _record_span(self, name: str, **attributes) -> None:
        if self.tracer is None:
            return
        self.tracer.record_span(
            name,
            duration_s=0.0,
            attributes={k: v for k, v in attributes.items() if v is not None},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntegrityGuard(verify_failures={self.verify_failures}, "
            f"quarantined={self.quarantined}, "
            f"auto_rollbacks={self.auto_rollbacks})"
        )


class CleanShutdownMarker:
    """The drain → next-startup handshake: a marker file.

    Graceful shutdown :meth:`write`\\ s it after flushing journals and
    draining in-flight work; the next startup :meth:`consume`\\ s it.  A
    missing marker at startup means the last process died hard, and
    recovery should assume torn state.
    """

    FILENAME = ".clean_shutdown"

    def __init__(self, path: Union[str, Path]):
        path = Path(path)
        # A directory is a natural argument; the marker lives inside it.
        if path.is_dir() or not path.suffix and path.name != self.FILENAME:
            path = path / self.FILENAME
        self.path = path

    def write(self, payload: Optional[dict] = None) -> Path:
        """Record a clean shutdown (atomic)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(payload or {})
        body.setdefault("clean", True)
        body.setdefault("wall_time", time.time())
        atomic_write_bytes(self.path, json.dumps(body).encode())
        return self.path

    def consume(self) -> bool:
        """Whether the previous shutdown was clean; removes the marker."""
        try:
            self.path.unlink()
        except OSError:
            return False
        return True

    def present(self) -> bool:
        """Peek without consuming."""
        return self.path.is_file()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CleanShutdownMarker({str(self.path)!r})"
