"""Durability overhead: the crash-safety features must stay near-free.

Two hot paths gained integrity machinery in the durability PR, and each
carries an explicit cost ceiling:

1. the observation *record* path — ``ObservationLog.record()`` into a
   CRC32-framed write-ahead journal (``ObservationLog(journal_dir=...)``)
   must cost < 5 % over the same ``record()`` into :class:`PlainFile`, a
   stand-in that writes the same group-committed payloads unframed to
   one plain file, so journaling can stay on in production.  The two
   sides differ only in framing, CRC and segment bookkeeping;
2. the artifact *load* path — sha256 verify-on-load through an
   :class:`~repro.durability.integrity.IntegrityGuard` must cost < 10 %
   over an unverified load, so hot reloads keep their latency budget.

Both comparisons time the two variants back-to-back in small paired
windows and report the *median of per-pair ratios*: the halves of a pair
share whatever the machine was doing at that instant, so common-mode
noise (CPU steal, frequency scaling, writeback) divides out, and the
median discards the pairs a spike landed inside.  Min-of-sums or
min-of-mins would compare extremes of two independent noisy samples and
jitter by more than the bars themselves on a busy host.
"""

import gc
import time

import numpy as np

from conftest import once
from repro.durability.integrity import IntegrityGuard
from repro.lifecycle import ObservationLog
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.serving.registry import ModelRegistry


class PlainFile:
    """The journal's surface as ``ObservationLog`` uses it, minus the
    journal: each payload is appended newline-terminated to one file, with
    no length header, no CRC and no segment rotation."""

    write_through = False

    def __init__(self, path):
        self._handle = open(path, "ab")
        self._write = self._handle.write

    def append(self, payload):
        self._write(payload + b"\n")

    def flush(self):
        self._handle.flush()

    def close(self):
        self._handle.close()


N_RECORDS = 4096
RECORD_BLOCK = 128  # timing-window size on the record path
N_LOADS = 40
N_TRIALS = 5
MAX_RECORD_OVERHEAD = 0.05
MAX_LOAD_OVERHEAD = 0.10


def _fitted_model():
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 8.0, size=(60, 4))
    y = np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )
    model = NeuralWorkloadModel(
        hidden=(24, 12), error_threshold=0.02, max_epochs=2000, seed=0
    )
    return model.fit(x, y)


def test_durability_overhead(benchmark, tmp_path):
    model = _fitted_model()
    artifact = tmp_path / "paper.json"
    save_model(model, artifact)  # writes the sha256 sidecar too
    rng = np.random.default_rng(1)
    configs = rng.uniform(1.0, 8.0, size=(N_RECORDS, 4))
    predicted = rng.uniform(0.1, 1.0, size=(N_RECORDS, 5))
    measured = rng.uniform(0.1, 1.0, size=(N_RECORDS, 5))
    guard = IntegrityGuard()

    def record_trial(file_log, journal_log, pairs):
        # Both logs see every record; each block times the two variants
        # back-to-back (order flipping per block) and contributes one
        # (file_seconds, journal_seconds) pair.
        clock = time.perf_counter
        for block, start in enumerate(range(0, N_RECORDS, RECORD_BLOCK)):
            stop = start + RECORD_BLOCK
            first, second = (
                (file_log, journal_log) if block % 2 == 0
                else (journal_log, file_log)
            )
            t0 = clock()
            for i in range(start, stop):
                first.record(
                    "paper",
                    configs[i],
                    predicted=predicted[i],
                    measured=measured[i],
                    source="bench",
                )
            t1 = clock()
            for i in range(start, stop):
                second.record(
                    "paper",
                    configs[i],
                    predicted=predicted[i],
                    measured=measured[i],
                    source="bench",
                )
            t2 = clock()
            if first is file_log:
                pairs.append((t1 - t0, t2 - t1))
            else:
                pairs.append((t2 - t1, t1 - t0))

    plain_registry = ModelRegistry(tmp_path)
    verified_registry = ModelRegistry(tmp_path, integrity=guard)

    def load_trial(pairs):
        # The production path end to end: evict forces each get() to
        # re-read, (for the verified registry) hash + check the sidecar,
        # and re-parse the artifact.  Each iteration is one
        # (plain_seconds, verified_seconds) pair, order flipping.
        clock = time.perf_counter
        for i in range(N_LOADS):
            plain_registry.evict("paper")
            verified_registry.evict("paper")
            first, second = (
                (plain_registry, verified_registry) if i % 2 == 0
                else (verified_registry, plain_registry)
            )
            start = clock()
            first.get("paper")
            mid = clock()
            second.get("paper")
            end = clock()
            if first is plain_registry:
                pairs.append((mid - start, end - mid))
            else:
                pairs.append((end - mid, mid - start))

    def run():
        capacity = 2 * N_RECORDS * (N_TRIALS + 1)
        # The log reaches its journal only through append/flush/close/
        # write_through, so the stand-in runs the very same record() path.
        file_log = ObservationLog(capacity=capacity)
        file_log._journal = PlainFile(tmp_path / "plain.jsonl")
        journal_log = ObservationLog(
            capacity=capacity, journal_dir=tmp_path / "journal"
        )
        record_trial(file_log, journal_log, [])  # warm-up pass
        load_trial([])
        record_pairs = []
        load_pairs = []
        gc.disable()  # a GC pause inside one window would skew the ratio
        try:
            for _ in range(N_TRIALS):
                record_trial(file_log, journal_log, record_pairs)
                load_trial(load_pairs)
        finally:
            gc.enable()
        file_log.close()
        journal_log.close()
        # The journal really persisted what it was asked to.
        replayed = ObservationLog.replay_journal(
            tmp_path / "journal", capacity=capacity, resume=False
        )
        plain = (tmp_path / "plain.jsonl").read_bytes()

        def median(values):
            values = sorted(values)
            return values[len(values) // 2]

        file_s = median([p[0] for p in record_pairs])
        journal_s = median([p[1] for p in record_pairs])
        plain_s = median([p[0] for p in load_pairs])
        verified_s = median([p[1] for p in load_pairs])
        return {
            "file_us": 1e6 * file_s / RECORD_BLOCK,
            "journal_us": 1e6 * journal_s / RECORD_BLOCK,
            "record_overhead": median([j / f - 1.0 for f, j in record_pairs]),
            "plain_ms": 1e3 * plain_s,
            "verified_ms": 1e3 * verified_s,
            "load_overhead": median([v / p - 1.0 for p, v in load_pairs]),
            "journaled": len(replayed),
            "plain_lines": plain.count(b"\n"),
        }

    results = once(benchmark, run)

    print()
    print(f"plain-file record {results['file_us']:7.2f} us")
    print(
        f"journal record   {results['journal_us']:8.2f} us "
        f"({100 * results['record_overhead']:+.2f}% overhead)"
    )
    print(f"plain load       {results['plain_ms']:8.2f} ms")
    print(
        f"verified load    {results['verified_ms']:8.2f} ms "
        f"({100 * results['load_overhead']:+.2f}% overhead)"
    )

    # Every record of every pass (warm-up + measured) survived replay, and
    # the baseline wrote every record too.
    assert results["journaled"] == N_RECORDS * (N_TRIALS + 1)
    assert results["plain_lines"] == N_RECORDS * (N_TRIALS + 1)
    # The acceptance bars from the durability issue.
    assert results["record_overhead"] < MAX_RECORD_OVERHEAD
    assert results["load_overhead"] < MAX_LOAD_OVERHEAD
