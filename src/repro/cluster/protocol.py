"""Framed wire protocol between the supervisor and its worker processes.

Each message is one *frame* on a ``socketpair`` stream::

    [4-byte big-endian header length][JSON header][binary payload]

The header is a small JSON object; bulk numeric data (configuration
matrices in, prediction matrices out) rides as raw little-endian float64
bytes after it — ``payload_len`` in the header says how many, as a JSON
integer in ``[0, MAX_PAYLOAD_BYTES]``; anything else is a
:class:`ProtocolError`, since reading a wrong count desyncs the stream.
Keeping arrays out of JSON matters: the front end must stay cheap per
request so one router process can keep N compute-bound workers fed, and
``ndarray.tobytes()`` / ``np.frombuffer`` are two orders of magnitude
faster than JSON round-tripping the same floats.

Trace context crosses the process boundary in the header (``trace_id``,
``parent_span_id``, ``request_id``), so worker-side timings can be
re-attached to the originating request's trace by the router.

Ops
---
Parent → worker: ``predict``, ``ping``, ``reload``, ``drain``.
Worker → parent: ``ready`` (once, after artifacts are preloaded), then one
response frame per request (``ok: true`` with results, or ``ok: false``
with ``kind`` naming the exception class).

Everything here is synchronous and single-stream: the parent serializes
access to each worker socket with a per-worker lock, so a frame on the
wire is always the answer to the last request sent.  After any timeout or
short read the stream is *poisoned* (a late answer would desync it) —
callers must discard the channel and let the supervisor restart the
worker.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "ProtocolError",
    "WorkerCallError",
    "send_frame",
    "recv_frame",
    "pack_array",
    "unpack_array",
]

_LEN = struct.Struct(">I")

#: Refuse absurd frames instead of allocating unbounded buffers: the
#: largest legitimate frame is a 10k-config predict (~320 KiB of floats).
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 64 << 20


class ProtocolError(RuntimeError):
    """The byte stream violated the framing contract (poisoned channel)."""


class WorkerCallError(RuntimeError):
    """A call to a worker failed for a reason that is the worker's own.

    Raised by the supervisor for timeouts, resets, short reads, and
    worker-side crashes — everything that makes *this worker* suspect
    without saying anything about the request itself — and by the
    cluster engine for a worker's ``ok: false`` reply that is not a
    caller error (an artifact or model failing in that worker).  The
    router treats it as "try a sibling replica".
    """

    def __init__(self, worker_id: int, message: str):
        self.worker_id = worker_id
        super().__init__(f"worker {worker_id}: {message}")


def send_frame(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    """Write one frame; ``payload_len`` is stamped into the header."""
    if payload:
        header = dict(header, payload_len=len(payload))
    raw = json.dumps(header, separators=(",", ":")).encode()
    # One sendall: small frames must not straddle two syscalls.
    sock.sendall(_LEN.pack(len(raw)) + raw + payload)


def recv_frame(
    sock: socket.socket, timeout: Optional[float] = None
) -> Tuple[dict, bytes]:
    """Read one frame; raises ``socket.timeout`` / :class:`ProtocolError`.

    ``timeout`` bounds the *whole* frame read (set as the socket timeout
    for each underlying ``recv``), so a worker that stops mid-frame
    cannot wedge the caller.
    """
    sock.settimeout(timeout)
    raw_len = _recv_exact(sock, _LEN.size)
    (header_len,) = _LEN.unpack(raw_len)
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} exceeds bound")
    try:
        header = json.loads(_recv_exact(sock, header_len))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    payload_len = header.get("payload_len", 0)
    # ``type() is int`` also refuses ``true``: a bool would read one byte.
    if type(payload_len) is not int or not 0 <= payload_len <= MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload length {payload_len!r} out of bounds")
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return header, payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise on EOF (a dead/killed peer)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def pack_array(x: np.ndarray) -> bytes:
    """Serialize a 2-D float array as contiguous little-endian float64."""
    return np.ascontiguousarray(x, dtype="<f8").tobytes()


def unpack_array(payload: bytes, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_array`; validates the byte count."""
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ProtocolError(
            f"array payload holds {len(payload)} bytes, expected {expected} "
            f"for a ({rows}, {cols}) float64 matrix"
        )
    return (
        np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    )
