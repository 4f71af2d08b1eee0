"""Traffic capture: the observation log feeding the continuous-learning loop.

The paper trains its MLP once on a batch of sampled configurations
(Section 2.2); a production characterization model must keep watching the
workload it describes.  An :class:`Observation` is one served or measured
data point — a configuration vector, optionally the model's prediction for
it, and optionally the ground truth the workload driver measured.  The
:class:`ObservationLog` is a thread-safe ring buffer of recent
observations, optionally backed by a CRC32-framed write-ahead journal for
durability, cheap enough to sit on the serving hot path: recording is one
lock, one deque append, and (below sampling rate 1.0) one RNG draw.

Two producers feed it:

* the :class:`~repro.serving.engine.ServingEngine` ``observer`` hook
  (:func:`serving_tap`) records what traffic actually asked for and what
  the model answered — the configuration stream drives *config drift*;
* the workload driver, acting as ground truth, records
  (configuration → measured indicators) pairs — prediction/measurement
  pairs drive *residual drift* and become the retraining sample
  collection.
"""

from __future__ import annotations

import csv
import json
import threading
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..durability.journal import Journal, replay_journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reliability.faults import FaultPlan
    from ..serving.engine import ServingEngine
    from ..serving.metrics import ServingMetrics

__all__ = ["Observation", "ObservationLog", "serving_tap"]


@dataclass(frozen=True)
class Observation:
    """One captured data point of the serving/measurement stream."""

    model: str
    config: Tuple[float, ...]
    predicted: Optional[Tuple[float, ...]] = None
    measured: Optional[Tuple[float, ...]] = None
    source: str = "serving"
    seq: int = 0

    @property
    def is_paired(self) -> bool:
        """Whether both a prediction and a measurement are present."""
        return self.predicted is not None and self.measured is not None

    def to_json(self) -> str:
        """One JSON line (the journal's record format).

        The fields are declared in buffer-row order, so the dataclass's
        tuple *is* the row :func:`_row_to_json` serializes."""
        return _row_to_json(astuple(self))

    @classmethod
    def from_json(cls, line: str) -> "Observation":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(line)
        return cls(
            model=payload["model"],
            config=tuple(float(v) for v in payload["config"]),
            predicted=(
                None
                if payload.get("predicted") is None
                else tuple(float(v) for v in payload["predicted"])
            ),
            measured=(
                None
                if payload.get("measured") is None
                else tuple(float(v) for v in payload["measured"])
            ),
            source=payload.get("source", "serving"),
            seq=int(payload.get("seq", 0)),
        )


def _vector(values: Optional[Sequence[float]]) -> Optional[Tuple[float, ...]]:
    if values is None:
        return None
    if isinstance(values, np.ndarray):
        return tuple(values.ravel().tolist())
    return tuple(map(float, values))


def _service_from_vector(values: Optional[Tuple[float, ...]]) -> Optional[float]:
    """Mean response time out of an indicator vector (None when absent).

    Vectors with >= 2 components are read as response times followed by a
    throughput figure (:data:`repro.workload.service.OUTPUT_NAMES` order),
    so the last component is excluded from the mean."""
    if not values:
        return None
    rts = values[:-1] if len(values) >= 2 else values
    return float(sum(rts) / len(rts))


#: Group-commit threshold: journal batches flush once the pending lines
#: reach this many bytes (or on any flush/sync/close).
_GROUP_COMMIT_BYTES = 4096


def _row_to_json(row: tuple) -> str:
    """One journal line from a raw buffer row
    ``(model, config, predicted, measured, source, seq)``."""
    model, config, predicted, measured, source, seq = row
    return json.dumps(
        {
            "model": model,
            "config": list(config),
            "predicted": None if predicted is None else list(predicted),
            "measured": None if measured is None else list(measured),
            "source": source,
            "seq": seq,
        }
    )


class ObservationLog:
    """Bounded, thread-safe capture buffer with an optional journal.

    Parameters
    ----------
    capacity:
        Ring-buffer bound; the oldest observation is dropped when full.
    sampling_rate:
        Probability of keeping each offered observation.  ``1.0`` keeps
        everything (and skips the RNG draw entirely — the hot-path
        default), ``0.0`` drops everything; in between the decision is
        deterministic under ``seed``.
    seed:
        Seed for the sampling stream.
    journal_dir:
        When given, every *accepted* observation is also appended to a
        CRC32-framed :class:`~repro.durability.journal.Journal` in this
        directory, so capture survives a restart — or a kill — of the
        serving process.  A torn tail from a killed process is detected
        and truncated on replay instead of poisoning it
        (:meth:`replay_journal` reloads it).  Under ``"buffered"`` sync,
        lines are *group-committed*: coalesced into one framed record
        every ~4 KiB (and at every flush/sync/close), amortizing the
        framing cost; the loss bound stays "the unsynced tail".
    journal_sync:
        Journal durability mode: ``"buffered"`` (default), ``"flush"``,
        or ``"fsync"``.
    journal_segment_bytes:
        Journal segment rotation threshold.
    faults:
        Optional fault plan handed to the journal (``journal.append`` /
        ``journal.compact`` sites).
    metrics:
        Optional :class:`~repro.serving.metrics.ServingMetrics` whose
        ``observations_total`` counter mirrors accepted records (and
        whose ``journal_records_*`` counters mirror replay accounting).
    """

    def __init__(
        self,
        capacity: int = 4096,
        sampling_rate: float = 1.0,
        seed: int = 0,
        journal_dir: Optional[Union[str, Path]] = None,
        journal_sync: str = "buffered",
        journal_segment_bytes: int = 4 << 20,
        faults: Optional["FaultPlan"] = None,
        metrics: Optional["ServingMetrics"] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in [0, 1], got {sampling_rate}"
            )
        self.capacity = int(capacity)
        self.sampling_rate = float(sampling_rate)
        self.journal_dir = None if journal_dir is None else Path(journal_dir)
        self.metrics = metrics
        self.observations_total = 0
        self.sampled_out_total = 0
        self.journal_records_recovered = 0
        self.journal_records_dropped = 0
        # Raw rows: (model, config, predicted, measured, source, seq).
        self._buffer: "deque[tuple]" = deque(maxlen=self.capacity)
        self._rng = np.random.default_rng(seed)
        self._seq = 0
        self._lock = threading.Lock()
        self._journal: Optional[Journal] = None
        # Group commit: in buffered mode accepted lines coalesce here and
        # go to the journal as one newline-joined framed record, so the
        # crc/frame/write cost amortizes across ~a dozen observations.
        self._journal_batch: list = []
        self._journal_batch_bytes = 0
        if self.journal_dir is not None:
            self._journal = Journal(
                self.journal_dir,
                max_segment_bytes=journal_segment_bytes,
                sync=journal_sync,
                faults=faults,
            )

    @property
    def journal(self) -> Optional[Journal]:
        """The backing write-ahead journal, when one is configured."""
        return self._journal

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        model: str,
        config: Sequence[float],
        predicted: Optional[Sequence[float]] = None,
        measured: Optional[Sequence[float]] = None,
        source: str = "serving",
    ) -> bool:
        """Offer one observation; returns whether it was kept.

        Sampling happens *before* any conversion work so a sampled-out
        observation costs one RNG draw and nothing else.  The buffer
        stores plain tuples; :class:`Observation` objects are only
        materialized by the read-side accessors, keeping this method
        cheap enough for the serving hot path.
        """
        if self.sampling_rate <= 0.0:
            with self._lock:
                self.sampled_out_total += 1
            return False
        if self.sampling_rate < 1.0:
            with self._lock:
                keep = self._rng.random() < self.sampling_rate
                if not keep:
                    self.sampled_out_total += 1
                    return False
        config = _vector(config)
        predicted = _vector(predicted)
        measured = _vector(measured)
        with self._lock:
            self._seq += 1
            row = (model, config, predicted, measured, source, self._seq)
            self._buffer.append(row)
            self.observations_total += 1
            if self._journal is not None:
                line = _row_to_json(row)
                if self._journal.write_through:
                    # Per-record sync or armed faults: no coalescing —
                    # each record carries its own durability obligation.
                    self._drain_journal_batch()
                    self._journal.append(line.encode("utf-8"))
                else:
                    batch = self._journal_batch
                    batch.append(line)
                    total = self._journal_batch_bytes + len(line) + 1
                    if total >= _GROUP_COMMIT_BYTES:
                        self._journal.append(
                            "\n".join(batch).encode("utf-8")
                        )
                        batch.clear()
                        total = 0
                    self._journal_batch_bytes = total
        if self.metrics is not None:
            self.metrics.count(observations_total=1)
        return True

    def record_batch(
        self,
        model: str,
        configs: np.ndarray,
        predicted: Optional[np.ndarray] = None,
        measured: Optional[np.ndarray] = None,
        source: str = "serving",
    ) -> int:
        """Offer one observation per row; returns how many were kept."""
        kept = 0
        record = self.record
        # Rows as plain lists: iterating a 2-D ndarray materializes a view
        # object per row, which costs more than the whole record() call.
        config_rows = np.asarray(configs, dtype=float).tolist()
        predicted_rows = (
            None if predicted is None
            else np.asarray(predicted, dtype=float).tolist()
        )
        measured_rows = (
            None if measured is None
            else np.asarray(measured, dtype=float).tolist()
        )
        for i, row in enumerate(config_rows):
            kept += record(
                model,
                row,
                predicted=None if predicted_rows is None else predicted_rows[i],
                measured=None if measured_rows is None else measured_rows[i],
                source=source,
            )
        return kept

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def _rows(self, model: Optional[str] = None) -> List[tuple]:
        """Raw buffer rows (optionally one model's), oldest first."""
        with self._lock:
            rows = list(self._buffer)
        if model is not None:
            rows = [r for r in rows if r[0] == model]
        return rows

    def snapshot(self, model: Optional[str] = None) -> List[Observation]:
        """The resident observations (optionally one model's), oldest first."""
        return [
            Observation(
                model=r[0],
                config=r[1],
                predicted=r[2],
                measured=r[3],
                source=r[4],
                seq=r[5],
            )
            for r in self._rows(model)
        ]

    def configs(self, model: str) -> np.ndarray:
        """``(n, d)`` configuration matrix of one model's observations."""
        rows = self._rows(model)
        if not rows:
            return np.empty((0, 0))
        return np.array([r[1] for r in rows], dtype=float)

    def paired(self, model: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(configs, predicted, measured)`` from fully-paired observations.

        Only observations carrying *both* a prediction and a measurement
        contribute — these drive residual drift and shadow evaluation.
        """
        rows = [
            r
            for r in self._rows(model)
            if r[2] is not None and r[3] is not None
        ]
        if not rows:
            empty = np.empty((0, 0))
            return empty, empty, empty
        return (
            np.array([r[1] for r in rows], dtype=float),
            np.array([r[2] for r in rows], dtype=float),
            np.array([r[3] for r in rows], dtype=float),
        )

    def training_data(self, model: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` from every observation with a measurement.

        This is the retraining sample collection: configuration vectors
        against ground-truth indicators, prediction or not.
        """
        rows = [r for r in self._rows(model) if r[3] is not None]
        if not rows:
            return np.empty((0, 0)), np.empty((0, 0))
        return (
            np.array([r[1] for r in rows], dtype=float),
            np.array([r[3] for r in rows], dtype=float),
        )

    def export_trace(
        self,
        path: Union[str, Path],
        model: Optional[str] = None,
        time_scale: float = 1.0,
    ) -> int:
        """Dump the resident observations as a CSV job trace.

        Each observation becomes one ``timestamp,class,service_time`` row
        in the canonical trace interchange format, re-ingestible by
        :func:`repro.traces.etl.ingest` — the bridge from captured serving
        traffic back into the trace-driven scenario factory.  The
        timestamp is the observation's sequence number times
        ``time_scale`` (monotone by construction), the class is the model
        name, and the service time is the mean of the measured
        response-time indicators (the measured vector is read in
        ``OUTPUT_NAMES`` order — response times then throughput — so the
        last component is excluded when there are at least two; the
        prediction stands in when no measurement was captured, and rows
        with neither carry no duration).  Returns the number of rows
        written.
        """
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        from ..traces.etl import CSV_HEADER

        rows = self._rows(model)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for model_name, _config, predicted, measured, _source, seq in rows:
                service = _service_from_vector(measured)
                if service is None:
                    service = _service_from_vector(predicted)
                writer.writerow(
                    [
                        f"{seq * time_scale:.6f}",
                        model_name,
                        "" if service is None else f"{service:.9g}",
                    ]
                )
        return len(rows)

    # ------------------------------------------------------------------
    # lifecycle / persistence
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop the resident buffer (counters and journal are kept)."""
        with self._lock:
            self._buffer.clear()

    def _drain_journal_batch(self) -> None:
        """Frame and append the pending group-commit lines (lock held)."""
        if self._journal_batch:
            self._journal.append(
                "\n".join(self._journal_batch).encode("utf-8")
            )
            self._journal_batch.clear()
            self._journal_batch_bytes = 0

    def flush(self) -> None:
        """Flush the journal to the OS (no-op without one)."""
        with self._lock:
            if self._journal is not None:
                self._drain_journal_batch()
                self._journal.flush()

    def sync_to_disk(self) -> None:
        """Flush *and* fsync the journal — the graceful-drain guarantee."""
        with self._lock:
            if self._journal is not None:
                self._drain_journal_batch()
                self._journal.sync_to_disk()

    def close(self) -> None:
        """Close the journal; further records stay in memory."""
        with self._lock:
            if self._journal is not None:
                self._drain_journal_batch()
                self._journal.close()
                self._journal = None

    def __enter__(self) -> "ObservationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def replay_journal(
        cls,
        journal_dir: Union[str, Path],
        capacity: int = 4096,
        resume: bool = True,
        repair: bool = True,
        **kwargs,
    ) -> "ObservationLog":
        """Rebuild a log from a CRC32-framed journal directory.

        Each segment is replayed up to its first bad frame (``repair``
        truncates the torn tail on disk so appends continue cleanly);
        recovered/dropped counts land in ``journal_records_recovered`` /
        ``journal_records_dropped`` and the metrics mirrors.  A payload
        that is not UTF-8, or a line that does not parse, is skipped and
        counted as dropped: losing one record must not cost the rest.
        With ``resume`` (the default) the returned log keeps journaling
        to the same directory — this is the crash-restart path.  With
        ``resume=False, repair=False`` replay is a pure read that leaves
        every file as it was, safe beside a live writer.
        """
        recovery = replay_journal(journal_dir, repair=repair)
        log = cls(
            capacity=capacity,
            journal_dir=journal_dir if resume else None,
            **kwargs,
        )
        for payload in recovery.records:
            try:
                text = payload.decode("utf-8")
            except UnicodeDecodeError:
                log._count_replay_dropped(1)
                continue
            # A payload is one observation line, or — group commit — a
            # newline-joined batch of them; each line stands alone.
            for line in text.splitlines():
                if not line:
                    continue
                try:
                    obs = Observation.from_json(line)
                except (ValueError, KeyError, TypeError):
                    log._count_replay_dropped(1)
                    continue
                log._ingest(obs)
        if recovery.dropped:
            log._count_replay_dropped(recovery.dropped)
        if log.metrics is not None and log.journal_records_recovered:
            log.metrics.count(
                journal_records_recovered_total=log.journal_records_recovered
            )
        return log

    def _ingest(self, obs: Observation) -> None:
        """Append one replayed observation (counts it as recovered)."""
        with self._lock:
            self._seq = max(self._seq, obs.seq)
            self._buffer.append(
                (
                    obs.model,
                    obs.config,
                    obs.predicted,
                    obs.measured,
                    obs.source,
                    obs.seq,
                )
            )
            self.observations_total += 1
            self.journal_records_recovered += 1

    def _count_replay_dropped(self, count: int) -> None:
        with self._lock:
            self.journal_records_dropped += count
        if self.metrics is not None:
            self.metrics.count(journal_records_dropped_total=count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObservationLog(size={len(self)}/{self.capacity}, "
            f"sampling_rate={self.sampling_rate}, "
            f"total={self.observations_total})"
        )


def serving_tap(log: ObservationLog):
    """An :class:`~repro.serving.engine.ServingEngine` observer that records
    every served prediction into ``log``.

    Wire it at engine construction::

        log = ObservationLog(sampling_rate=0.1)
        engine = ServingEngine(models_dir, observer=serving_tap(log))
    """

    def observer(
        model_name: str,
        configs: np.ndarray,
        outputs: np.ndarray,
        source: str,
    ) -> None:
        log.record_batch(
            model_name, configs, predicted=outputs, source=f"serving:{source}"
        )

    return observer
