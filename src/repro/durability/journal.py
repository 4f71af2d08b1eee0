"""Write-ahead journal: CRC32 + length framed records in rotating segments.

The durable store behind
:class:`~repro.lifecycle.observations.ObservationLog`.  A plain
append-only text file survives a *clean* restart but not a crash: a
process killed mid-``write`` leaves a half line that poisons everything
after it, and there is no way to tell "truncated tail" from "corrupt
middle".  This journal is crash-safe:

* every record is framed ``<length:u32><crc32:u32><payload>``
  (little-endian), so replay can prove each record intact before using it;
* records land in numbered segment files (``seg-00000001.wal``) rotated at
  ``max_segment_bytes``, bounding the blast radius of any one bad file;
* :func:`replay_journal` walks the segments oldest-first, stops each
  segment at the first bad frame (torn-tail recovery: truncate there and
  count what was dropped), and yields the surviving payloads;
* :meth:`Journal.compact` rewrites the live records into one fresh
  segment — crash-safe because the merged segment is complete before any
  old segment is removed, and leftovers of an interrupted compaction are
  ignored by replay.

Durability is tunable: ``sync="buffered"`` (default) leaves frames in the
file object's write buffer and may lose that tail on a crash — exactly the
"at most the unsynced tail" contract — while ``"flush"`` and ``"fsync"``
push each record further down the stack for callers who want a harder
guarantee than they want throughput.  Batching small payloads into fewer
records is the caller's job (``ObservationLog`` group-commits ~4 KiB of
observation lines per record).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reliability.faults import FaultPlan

__all__ = [
    "FRAME_HEADER",
    "Journal",
    "JournalRecovery",
    "read_segment",
    "replay_journal",
]

#: ``<length:u32><crc32:u32>`` — little-endian, 8 bytes per record.
FRAME_HEADER = struct.Struct("<II")

#: Segment filename template / glob.
_SEGMENT_FMT = "seg-%08d.wal"
_SEGMENT_GLOB = "seg-*.wal"

#: Refuse frames claiming more than this many payload bytes (a corrupt
#: length field must not allocate gigabytes or swallow whole segments).
MAX_RECORD_BYTES = 16 << 20

SYNC_MODES = ("buffered", "flush", "fsync")

# The fault sites, duplicated as plain strings so this module stays
# importable without the reliability package (it only *consults* a plan).
_SITE_APPEND = "journal.append"
_SITE_COMPACT = "journal.compact"


# Bound once: Journal.append is a serving-hot-path method.
_PACK = FRAME_HEADER.pack
_CRC32 = zlib.crc32


def frame_record(payload: bytes) -> bytes:
    """One framed record: header (length + CRC32 of payload) + payload."""
    return _PACK(len(payload), _CRC32(payload)) + payload


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith("seg-") and name.endswith(".wal")):
        return None
    try:
        return int(name[4:-4])
    except ValueError:
        return None


@dataclass
class JournalRecovery:
    """What a replay (or startup repair) salvaged from a journal directory."""

    records: List[bytes] = field(default_factory=list)
    recovered: int = 0
    dropped: int = 0
    bytes_dropped: int = 0
    truncated_segments: List[str] = field(default_factory=list)
    segments: int = 0

    def to_dict(self) -> dict:
        return {
            "recovered": self.recovered,
            "dropped": self.dropped,
            "bytes_dropped": self.bytes_dropped,
            "truncated_segments": list(self.truncated_segments),
            "segments": self.segments,
        }


def read_segment(
    path: Union[str, Path], repair: bool = False
) -> Tuple[List[bytes], int, int]:
    """Read one segment; returns ``(payloads, dropped, bytes_dropped)``.

    Reading stops at the first bad frame — short header, absurd or
    overrunning length, or CRC mismatch — because nothing after a torn
    write can be trusted to be frame-aligned.  With ``repair`` the file
    is truncated at that offset so future appends continue from a clean
    tail.
    """
    path = Path(path)
    data = path.read_bytes()
    payloads: List[bytes] = []
    offset = 0
    size = len(data)
    good_end = 0
    while offset + FRAME_HEADER.size <= size:
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > size:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = end
        good_end = end
    bytes_dropped = size - good_end
    dropped = 1 if bytes_dropped else 0
    if repair and bytes_dropped:
        with open(path, "rb+") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
    return payloads, dropped, bytes_dropped


def _segment_paths(directory: Path) -> List[Path]:
    paths = [
        p for p in directory.glob(_SEGMENT_GLOB)
        if _segment_index(p) is not None
    ]
    return sorted(paths, key=_segment_index)


def replay_journal(
    directory: Union[str, Path], repair: bool = False
) -> JournalRecovery:
    """Replay every segment oldest-first with torn-tail recovery.

    Returns a :class:`JournalRecovery` carrying the surviving payloads
    plus recovered/dropped accounting.  ``repair`` truncates each torn
    segment at its last good record (the startup path); without it the
    files are left untouched (the read-only path).
    """
    directory = Path(directory)
    recovery = JournalRecovery()
    if not directory.is_dir():
        return recovery
    for path in _segment_paths(directory):
        payloads, dropped, bytes_dropped = read_segment(path, repair=repair)
        recovery.records.extend(payloads)
        recovery.recovered += len(payloads)
        recovery.dropped += dropped
        recovery.bytes_dropped += bytes_dropped
        recovery.segments += 1
        if bytes_dropped:
            recovery.truncated_segments.append(path.name)
    return recovery


class Journal:
    """Append-only framed record log across rotating segment files.

    Parameters
    ----------
    directory:
        Where the ``seg-*.wal`` files live (created on demand).  Opening
        a journal repairs the last segment's torn tail, if any, so
        appends always continue from a verified frame boundary.
    max_segment_bytes:
        Rotate to a fresh segment once the current one reaches this size.
    sync:
        ``"buffered"`` (default; cheapest — the unsynced tail is the
        accepted loss bound), ``"flush"`` (user-space buffer pushed to
        the OS per record), or ``"fsync"`` (per-record fsync).
    faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` consulted
        at ``journal.append`` (after each record write, with the segment
        path as context) and ``journal.compact`` (between writing the
        merged segment and removing the old ones).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_segment_bytes: int = 4 << 20,
        sync: str = "buffered",
        faults: Optional["FaultPlan"] = None,
    ):
        if max_segment_bytes < FRAME_HEADER.size + 1:
            raise ValueError(
                f"max_segment_bytes must be >= {FRAME_HEADER.size + 1}, "
                f"got {max_segment_bytes}"
            )
        if sync not in SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.sync = sync
        self._buffered = sync == "buffered"
        self.faults = faults
        self.records_written = 0
        self.tail_repaired_bytes = 0
        self._handle = None
        self._write = None
        self._current: Optional[Path] = None
        self._current_size = 0
        existing = _segment_paths(self.directory)
        self._next_index = (
            _segment_index(existing[-1]) + 1 if existing else 1
        )
        if existing:
            # Continue the last segment — after proving its tail is clean.
            tail = existing[-1]
            _, _, bytes_dropped = read_segment(tail, repair=True)
            self.tail_repaired_bytes = bytes_dropped
            self._open_segment(tail)
        else:
            self._open_segment(self._new_segment_path())

    # ------------------------------------------------------------------

    @property
    def faults(self) -> Optional["FaultPlan"]:
        return self._faults

    @faults.setter
    def faults(self, plan: Optional["FaultPlan"]) -> None:
        self._faults = plan
        # One check on the hot path covers both rare branches (per-record
        # sync and fault injection).
        self._slow_path = not self._buffered or plan is not None

    def _new_segment_path(self) -> Path:
        path = self.directory / (_SEGMENT_FMT % self._next_index)
        self._next_index += 1
        return path

    def _open_segment(self, path: Path) -> None:
        self._handle = open(path, "ab")
        self._write = self._handle.write
        self._current = path
        self._current_size = self._handle.tell()

    @property
    def write_through(self) -> bool:
        """Whether each append is pushed past the file object's buffer.

        True under per-record sync (``"flush"``/``"fsync"``) or when a
        fault plan is armed — the modes where callers must *not* batch
        records in user space, because each append carries a durability
        or fault-injection obligation of its own.
        """
        return self._slow_path

    @property
    def current_segment(self) -> Optional[Path]:
        """The segment new records append to (``None`` once closed)."""
        return self._current

    def segment_paths(self) -> List[Path]:
        """Every segment on disk, oldest first."""
        return _segment_paths(self.directory)

    # ------------------------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Append one framed record (rotating first if the segment is full).

        This sits on the serving request path when journaling is on (one
        call per group-committed batch of observations in buffered mode,
        one per observation otherwise), hence the flat, local-bound body.
        """
        if self._write is None:
            raise ValueError("append() on a closed Journal")
        frame = _PACK(len(payload), _CRC32(payload)) + payload
        size = self._current_size + len(frame)
        if size > self.max_segment_bytes and size != len(frame):
            self.rotate()
            size = len(frame)
        self._current_size = size
        self.records_written += 1
        self._write(frame)
        if self._slow_path:
            if not self._buffered:
                self._handle.flush()
                if self.sync == "fsync":
                    os.fsync(self._handle.fileno())
            if self._faults is not None:
                self._faults.fire(_SITE_APPEND, path=self._current)

    def flush(self) -> None:
        """Push the file object's buffer to the OS."""
        if self._handle is not None:
            self._handle.flush()

    def sync_to_disk(self) -> None:
        """Flush and fsync the current segment."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def rotate(self) -> Path:
        """Start a fresh segment; returns its path."""
        if self._handle is None:
            raise ValueError("rotate() on a closed Journal")
        self._handle.flush()
        self._handle.close()
        self._open_segment(self._new_segment_path())
        return self._current

    def compact(self) -> JournalRecovery:
        """Merge every sealed segment's live records into one segment.

        The merged segment is written (and fsynced) under a temporary
        name first, the old segments are removed, and only then is it
        renamed into the numbered sequence — a crash at any point leaves
        either the old segments (merge incomplete, ``.tmp`` leftovers are
        invisible to replay) or the merged data.  The current segment
        keeps receiving appends untouched.
        """
        if self._handle is None:
            raise ValueError("compact() on a closed Journal")
        sealed = [p for p in self.segment_paths() if p != self._current]
        recovery = JournalRecovery()
        if not sealed:
            return recovery
        for path in sealed:
            payloads, dropped, bytes_dropped = read_segment(path)
            recovery.records.extend(payloads)
            recovery.recovered += len(payloads)
            recovery.dropped += dropped
            recovery.bytes_dropped += bytes_dropped
            recovery.segments += 1
            if bytes_dropped:
                recovery.truncated_segments.append(path.name)
        merged_name = sealed[0].name
        tmp = self.directory / (merged_name + ".tmp")
        with open(tmp, "wb") as handle:
            for payload in recovery.records:
                handle.write(frame_record(payload))
            handle.flush()
            os.fsync(handle.fileno())
        if self.faults is not None:
            self.faults.fire(_SITE_COMPACT, path=tmp)
        for path in sealed[1:]:
            os.unlink(path)
        os.replace(tmp, sealed[0])
        return recovery

    def close(self) -> None:
        """Flush and close the current segment."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
            self._write = None
            self._current = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def replay(self) -> Iterator[bytes]:
        """The surviving payloads, oldest first (flushes first so the
        current segment's buffered tail is included)."""
        self.flush()
        return iter(replay_journal(self.directory).records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Journal({str(self.directory)!r}, "
            f"segments={len(self.segment_paths())}, "
            f"written={self.records_written})"
        )
