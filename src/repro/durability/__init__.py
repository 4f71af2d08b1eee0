"""Crash safety: artifact integrity, write-ahead journaling, recovery.

The serving + lifecycle stack (PRs 1–4) survives *runtime* faults; this
package makes its *state* survive a kill at any instant.
:mod:`~repro.durability.integrity` gives every model artifact a sha256
identity (sidecars, verify-on-load, quarantine, auto-rollback via
:class:`IntegrityGuard`), :mod:`~repro.durability.journal` is the
observation log's CRC32-framed segmented write-ahead journal with
torn-tail recovery, and
:mod:`~repro.durability.recovery` runs the one-shot startup
:class:`RecoveryManager` that repairs manifests, redeploys the last
verified-good version over corrupt artifacts, and replays the journal —
so "crash then restart" is an invariant held by tests, not an incident.

This package deliberately imports nothing from :mod:`repro.models`,
:mod:`repro.lifecycle`, or :mod:`repro.serving` at module level: those
layers import *us* (``save_model`` writes sidecars, the store records
digests, the registry verifies loads), and the recovery manager
duck-types the store it repairs.
"""

from .integrity import (
    ArtifactIntegrityError,
    CleanShutdownMarker,
    IntegrityGuard,
    atomic_write_bytes,
    checksum_path,
    quarantine_file,
    read_checksum,
    sha256_bytes,
    sha256_file,
    verify_file,
    write_checksum,
)
from .journal import (
    FRAME_HEADER,
    Journal,
    JournalRecovery,
    read_segment,
    replay_journal,
)
from .recovery import RecoveryManager, RecoveryReport

__all__ = [
    "ArtifactIntegrityError",
    "CleanShutdownMarker",
    "IntegrityGuard",
    "atomic_write_bytes",
    "checksum_path",
    "quarantine_file",
    "read_checksum",
    "sha256_bytes",
    "sha256_file",
    "verify_file",
    "write_checksum",
    "FRAME_HEADER",
    "Journal",
    "JournalRecovery",
    "read_segment",
    "replay_journal",
    "RecoveryManager",
    "RecoveryReport",
]
