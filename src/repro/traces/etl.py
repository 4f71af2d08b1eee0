"""Trace ETL: stream real request logs into arrival/service samples.

The first stage of the trace factory (ETL -> fit -> emit -> validate).
Two on-disk formats are understood:

* **Common Log Format** access logs (``host ident user [ts] "request"
  status bytes``), with the widespread extensions tolerated: quoted
  referer/user-agent fields are ignored and a trailing numeric field (the
  nginx ``$request_time`` convention) is read as the request's service
  time in seconds.  The transaction class is derived from the first
  path segment of the request line (``/browse/342`` -> ``browse``).
* **CSV job traces** with a ``timestamp,class,service_time`` header —
  the factory's canonical interchange format, also produced by
  :meth:`repro.lifecycle.observations.ObservationLog.export_trace` and
  :func:`repro.traces.synthetic.generate_synthetic_trace`.

Parsing is streaming (one line at a time, never the whole file) and
malformed-input tolerant: a truncated line, an unparsable or non-finite
timestamp, an out-of-order arrival or a negative duration *skips the
record and counts it* — ingestion never raises on dirty data.  Each
physical line is one record, so a stray quote costs only its own line.
Timestamps are normalized so the first accepted arrival is t = 0, and
:meth:`IngestedTrace.windows` aggregates arrivals into fixed-width
windows (arrival counts + service samples per window) for piecewise
fitting.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "TraceRecord",
    "IngestStats",
    "TraceWindow",
    "IngestedTrace",
    "parse_clf_line",
    "iter_clf",
    "iter_csv",
    "ingest",
    "CSV_HEADER",
    "MAX_WINDOWS",
]

#: Canonical CSV trace header (the interchange format).
CSV_HEADER = ["timestamp", "class", "service_time"]

#: The most windows :meth:`IngestedTrace.windows` builds.  One far-future
#: timestamp stretches a trace's duration without bound (arrivals never
#: run backwards), and a window per width of that span would never finish.
MAX_WINDOWS = 1_000_000

_CLF_PATTERN = re.compile(
    r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+)'
    r'(?: "[^"]*" "[^"]*")?'  # combined-format referer + user-agent
    r"(?: (\S+))?\s*$"  # optional trailing request duration (seconds)
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

#: Proleptic-ordinal of 1970-01-01 (the Unix epoch).
_EPOCH_ORDINAL = 719163


@dataclass(frozen=True)
class TraceRecord:
    """One parsed request: when it arrived, what it was, how long it took.

    ``service_time`` is ``None`` when the source format carries no
    duration (plain CLF without the trailing time field).
    """

    timestamp: float
    class_name: str
    service_time: Optional[float] = None


@dataclass
class IngestStats:
    """Line accounting for one ingestion pass — the skip counters."""

    lines_total: int = 0
    parsed: int = 0
    #: Skips keyed by reason: ``malformed``, ``out_of_order``,
    #: ``bad_service_time``, ``blank``.
    skipped: Dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        """Count one skipped line under ``reason``."""
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    @property
    def skipped_total(self) -> int:
        """Skips across all reasons."""
        return sum(self.skipped.values())

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "lines_total": self.lines_total,
            "parsed": self.parsed,
            "skipped_total": self.skipped_total,
            "skipped": dict(sorted(self.skipped.items())),
        }


def _clf_epoch(stamp: str, day_cache: Dict[str, float]) -> float:
    """Epoch seconds from ``10/Oct/2000:13:55:36 -0700``.

    The (day, zone) prefix repeats for thousands of consecutive lines, so
    its base offset is memoized — the per-line work is three int parses.
    """
    day_part, hh, mm, rest = stamp.split(":", 3)
    if " " in rest:
        ss, zone = rest.split(" ", 1)
    else:
        ss, zone = rest, "+0000"
    key = day_part + zone
    base = day_cache.get(key)
    if base is None:
        day, month_name, year = day_part.split("/")
        month = _MONTHS[month_name]
        ordinal = date(int(year), month, int(day)).toordinal()
        sign = -1.0 if zone.startswith("-") else 1.0
        zone_seconds = sign * (int(zone[1:3]) * 3600 + int(zone[3:5]) * 60)
        base = (ordinal - _EPOCH_ORDINAL) * 86400.0 - zone_seconds
        day_cache[key] = base
    # One int -> float conversion: an oversized field raises OverflowError
    # here instead of summing to inf.
    return base + (int(hh) * 3600 + int(mm) * 60 + int(ss))


def _class_from_request(request: str) -> str:
    """Transaction class from a CLF request line: the first path segment."""
    try:
        _method, path = request.split(" ", 2)[:2]
    except ValueError:
        return "root"
    segment = path.lstrip("/").split("/", 1)[0].split("?", 1)[0]
    return segment or "root"


def parse_clf_line(
    line: str, day_cache: Optional[Dict[str, float]] = None
) -> Optional[TraceRecord]:
    """Parse one access-log line; ``None`` when it is malformed."""
    match = _CLF_PATTERN.match(line)
    if match is None:
        return None
    if day_cache is None:
        day_cache = {}
    try:
        timestamp = _clf_epoch(match.group(4), day_cache)
    except (ValueError, KeyError, OverflowError):
        return None
    service_time: Optional[float] = None
    trailing = match.group(8)
    if trailing is not None:
        try:
            service_time = float(trailing)
        except ValueError:
            service_time = None  # e.g. a referer in a non-combined layout
    return TraceRecord(
        timestamp=timestamp,
        class_name=_class_from_request(match.group(5)),
        service_time=service_time,
    )


def iter_clf(
    lines: Iterable[str], stats: Optional[IngestStats] = None
) -> Iterator[TraceRecord]:
    """Stream records out of access-log lines, counting skips."""
    if stats is None:
        stats = IngestStats()
    day_cache: Dict[str, float] = {}
    for line in lines:
        stats.lines_total += 1
        if not line.strip():
            stats.skip("blank")
            continue
        record = parse_clf_line(line, day_cache)
        if record is None:
            stats.skip("malformed")
            continue
        stats.parsed += 1
        yield record


def iter_csv(
    lines: Iterable[str], stats: Optional[IngestStats] = None
) -> Iterator[TraceRecord]:
    """Stream records out of a ``timestamp,class,service_time`` CSV.

    Each line is parsed on its own: a quoted field never runs on into the
    next line, and a line the csv module rejects is skipped as malformed.
    """
    if stats is None:
        stats = IngestStats()
    # The reader pulls from ``pending``, which holds only the current line:
    # a quote still open at its end finds the list empty (IndexError)
    # instead of swallowing the lines after it.
    pending: List[str] = []
    reader = csv.reader(iter(pending.pop, None), strict=True)
    header_seen = False
    for line in lines:
        stats.lines_total += 1
        pending.append(line)
        try:
            row = next(reader)
        except (csv.Error, IndexError):
            stats.skip("malformed")
            continue
        if not any(cell.strip() for cell in row):
            stats.skip("blank")
            continue
        if not header_seen:
            header_seen = True
            if [cell.strip() for cell in row[:2]] == CSV_HEADER[:2]:
                continue  # header row, not data
        if len(row) < 2:
            stats.skip("malformed")
            continue
        try:
            timestamp = float(row[0])
        except ValueError:
            timestamp = math.nan
        if not math.isfinite(timestamp):
            stats.skip("malformed")
            continue
        class_name = row[1].strip() or "unknown"
        service_time: Optional[float] = None
        if len(row) > 2 and row[2].strip():
            try:
                service_time = float(row[2])
            except ValueError:
                stats.skip("bad_service_time")
                service_time = None
        stats.parsed += 1
        yield TraceRecord(timestamp, class_name, service_time)


@dataclass
class TraceWindow:
    """One fixed-width aggregation window of the normalized trace."""

    index: int
    start: float
    duration: float
    #: Normalized arrival times falling in ``[start, start + duration)``.
    arrivals: np.ndarray
    #: Service-time samples of those arrivals that carried one.
    service_samples: np.ndarray

    @property
    def count(self) -> int:
        """Arrivals in the window."""
        return int(self.arrivals.size)

    @property
    def rate(self) -> float:
        """Arrivals per second (0 for a degenerate window)."""
        if self.duration <= 0:
            return 0.0
        return self.count / self.duration

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive arrivals inside the window."""
        return np.diff(self.arrivals)


class IngestedTrace:
    """The ETL output: normalized arrivals, classes, service samples.

    Arrival timestamps are normalized to seconds since the first accepted
    record.  Records whose timestamp runs *backwards* relative to the
    maximum seen so far are dropped during construction and counted under
    ``out_of_order``; records with a negative service time keep their
    arrival but drop the duration (``bad_service_time``).
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        stats: Optional[IngestStats] = None,
        source: str = "<memory>",
    ):
        self.stats = stats if stats is not None else IngestStats()
        self.source = str(source)
        times: List[float] = []
        classes: List[str] = []
        services: List[float] = []
        service_mask: List[bool] = []
        origin: Optional[float] = None
        high_water = -np.inf
        for record in records:
            if record.timestamp < high_water:
                self.stats.skip("out_of_order")
                continue
            high_water = record.timestamp
            if origin is None:
                origin = record.timestamp
            service = record.service_time
            if service is not None and (service < 0 or not np.isfinite(service)):
                self.stats.skip("bad_service_time")
                service = None
            times.append(record.timestamp - origin)
            classes.append(record.class_name)
            if service is not None:
                services.append(service)
                service_mask.append(True)
            else:
                service_mask.append(False)
        self.arrivals = np.asarray(times, dtype=float)
        self.classes = classes
        self.service_samples = np.asarray(services, dtype=float)
        self._service_mask = np.asarray(service_mask, dtype=bool)
        self.origin = origin if origin is not None else 0.0

    def __len__(self) -> int:
        return int(self.arrivals.size)

    @property
    def duration(self) -> float:
        """Span from the first to the last arrival (seconds)."""
        if self.arrivals.size < 2:
            return 0.0
        return float(self.arrivals[-1])

    def mean_rate(self) -> float:
        """Arrivals per second across the whole trace."""
        if self.duration <= 0:
            return 0.0
        return len(self) / self.duration

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive arrivals across the whole trace."""
        return np.diff(self.arrivals)

    def zero_gap_fraction(self) -> float:
        """Fraction of inter-arrival gaps that are exactly zero.

        A high fraction means the source's timestamp resolution is
        coarser than the arrival process (1-second CLF stamps at tens of
        requests per second) — gap-level MLE is then meaningless and the
        fit stage falls back to window-rate-derived arrival models.
        """
        gaps = self.interarrivals()
        if not gaps.size:
            return 0.0
        return float((gaps == 0).mean())

    def class_counts(self) -> Dict[str, int]:
        """Arrivals per class name."""
        counts: Dict[str, int] = {}
        for name in self.classes:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def class_service_samples(self) -> Dict[str, np.ndarray]:
        """Service samples grouped by class (classes without any omitted)."""
        grouped: Dict[str, List[float]] = {}
        service_iter = iter(self.service_samples)
        for name, has_service in zip(self.classes, self._service_mask):
            if has_service:
                grouped.setdefault(name, []).append(next(service_iter))
        return {
            name: np.asarray(values, dtype=float)
            for name, values in grouped.items()
        }

    def windows(self, window_s: float) -> List[TraceWindow]:
        """Aggregate into fixed-width windows of ``window_s`` seconds.

        An empty trace yields no windows; a zero-duration trace (every
        arrival at the same instant) yields one window holding them all.
        Trailing windows with zero arrivals are dropped; interior empty
        windows are kept (rate 0) so the piecewise profile stays honest.
        More than :data:`MAX_WINDOWS` windows is a :class:`ValueError`.
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if not len(self):
            return []
        n_windows = max(1, int(np.ceil((self.duration + 1e-12) / window_s)))
        if self.duration <= 0:
            n_windows = 1
        if n_windows > MAX_WINDOWS:
            raise ValueError(
                f"{n_windows} windows of {window_s:g} s over a "
                f"{self.duration:g} s trace exceed the limit of "
                f"{MAX_WINDOWS}; use a wider window"
            )
        indices = np.minimum(
            (self.arrivals / window_s).astype(int), n_windows - 1
        )
        # Arrivals never decrease, so neither do their window indices:
        # window i is one contiguous slice.
        bounds = np.searchsorted(indices, np.arange(n_windows + 1))
        service_by_arrival = np.full(len(self), np.nan)
        service_by_arrival[self._service_mask] = self.service_samples
        windows = []
        for i in range(n_windows):
            cut = slice(bounds[i], bounds[i + 1])
            services = service_by_arrival[cut]
            windows.append(
                TraceWindow(
                    index=i,
                    start=i * window_s,
                    duration=float(window_s),
                    arrivals=self.arrivals[cut],
                    service_samples=services[~np.isnan(services)],
                )
            )
        while windows and windows[-1].count == 0:
            windows.pop()
        return windows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestedTrace(n={len(self)}, duration={self.duration:.1f}s, "
            f"rate={self.mean_rate():.1f}/s, "
            f"skipped={self.stats.skipped_total})"
        )


def _sniff_format(path: Path) -> str:
    """``clf`` or ``csv`` from the first non-blank line."""
    with path.open(errors="replace") as handle:
        for line in handle:
            if line.strip():
                return "clf" if line.lstrip().startswith(("[", '"')) or (
                    " [" in line and '"' in line
                ) else "csv"
    return "csv"


def ingest(
    path: Union[str, Path],
    fmt: str = "auto",
) -> IngestedTrace:
    """Stream one trace file into an :class:`IngestedTrace`.

    ``fmt`` is ``"clf"``, ``"csv"``, or ``"auto"`` (sniffed from the first
    non-blank line).  A missing file raises; *everything inside* the file
    is handled by skip-and-count.
    """
    path = Path(path)
    if fmt not in ("auto", "clf", "csv"):
        raise ValueError(f"fmt must be auto, clf or csv, got {fmt!r}")
    if fmt == "auto":
        fmt = _sniff_format(path)
    stats = IngestStats()
    parser = iter_clf if fmt == "clf" else iter_csv
    with path.open(errors="replace") as handle:
        return IngestedTrace(parser(handle, stats), stats, source=str(path))
