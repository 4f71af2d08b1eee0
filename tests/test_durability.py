"""Crash-safe state layer: journals, artifact integrity, recovery, drain.

The durability subsystem's contract is stated as invariants, and the tests
here attack each one the way a crash would:

* an artifact is either absent or bit-identical to what was written
  (sha256 sidecars, verify-on-load, quarantine of anything that fails);
* a journal replay returns every record up to the first torn frame and
  nothing after it — loss is bounded to the unsynced tail;
* after a crash at *any* injection point, startup recovery leaves the
  store's manifest naming only existing checksum-valid files and the
  registry serving the last verified-good version (the randomized
  kill-point test sweeps the crash site across seeds);
* a drain completes queued work, stops admission, and leaves a clean
  shutdown marker.
"""

import json
import os
import random
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterEngine
from repro.durability.integrity import (
    ArtifactIntegrityError,
    CleanShutdownMarker,
    IntegrityGuard,
    checksum_path,
    quarantine_file,
    read_checksum,
    sha256_bytes,
    verify_file,
    write_checksum,
)
from repro.durability.journal import (
    FRAME_HEADER,
    Journal,
    frame_record,
    read_segment,
    replay_journal,
)
from repro.durability.recovery import RecoveryManager
from repro.lifecycle.observations import ObservationLog
from repro.lifecycle.store import VersionedModelStore
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import load_model, model_to_dict, save_model
from repro.reliability.degradation import OverloadedError
from repro.reliability.faults import (
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_COMPACT,
    SITE_STORE_PROMOTE,
    SITE_STORE_SAVE,
    FaultPlan,
    SimulatedCrash,
)
from repro.serving.batcher import BatcherClosedError, MicroBatcher
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry
from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES

CONFIG = [450.0, 14.0, 16.0, 18.0]


def _fit(seed: int) -> NeuralWorkloadModel:
    """A tiny fitted model mapping the serving contract's 4 -> 5 shape."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 1.0, size=(24, len(INPUT_NAMES)))
    y = rng.uniform(0.1, 1.0, size=(24, len(OUTPUT_NAMES)))
    return NeuralWorkloadModel(hidden=(4,), max_epochs=3, seed=seed).fit(x, y)


@pytest.fixture(scope="module")
def model_a():
    return _fit(1)


@pytest.fixture(scope="module")
def model_b():
    return _fit(2)


# ----------------------------------------------------------------------
# journal framing + segments
# ----------------------------------------------------------------------


class TestJournalFraming:
    def test_round_trip(self, tmp_path):
        seg = tmp_path / "seg-00000001.wal"
        payloads = [b"alpha", b"", b"\x00\xffbinary", b"x" * 3000]
        seg.write_bytes(b"".join(frame_record(p) for p in payloads))
        recovered, dropped, bytes_dropped = read_segment(seg)
        assert recovered == payloads
        assert dropped == 0 and bytes_dropped == 0

    def test_torn_tail_stops_at_last_good_frame(self, tmp_path):
        seg = tmp_path / "seg-00000001.wal"
        frames = [frame_record(b"a"), frame_record(b"b"), frame_record(b"c")]
        blob = b"".join(frames)
        seg.write_bytes(blob[:-3])  # tear mid-frame
        recovered, dropped, bytes_dropped = read_segment(seg)
        assert recovered == [b"a", b"b"]
        assert dropped == 1
        assert bytes_dropped == len(frames[2]) - 3

    def test_crc_mismatch_drops_rest_of_segment(self, tmp_path):
        seg = tmp_path / "seg-00000001.wal"
        blob = frame_record(b"good") + frame_record(b"flip") + frame_record(b"after")
        blob = bytearray(blob)
        blob[len(frame_record(b"good")) + FRAME_HEADER.size] ^= 0xFF
        seg.write_bytes(bytes(blob))
        recovered, dropped, _ = read_segment(seg)
        # Nothing after a bad frame can be trusted: its length field may
        # itself be the corruption.
        assert recovered == [b"good"]
        assert dropped >= 1

    def test_insane_length_field_is_bounded(self, tmp_path):
        seg = tmp_path / "seg-00000001.wal"
        seg.write_bytes(
            frame_record(b"ok") + FRAME_HEADER.pack(0x7FFFFFFF, 0) + b"tail"
        )
        recovered, dropped, _ = read_segment(seg)
        assert recovered == [b"ok"]
        assert dropped >= 1

    def test_repair_truncates_to_frame_boundary(self, tmp_path):
        seg = tmp_path / "seg-00000001.wal"
        good = frame_record(b"keep")
        seg.write_bytes(good + frame_record(b"lost")[:-2])
        read_segment(seg, repair=True)
        assert seg.stat().st_size == len(good)
        recovered, dropped, _ = read_segment(seg)
        assert recovered == [b"keep"] and dropped == 0


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        with Journal(tmp_path / "j") as journal:
            for i in range(20):
                journal.append(f"rec-{i}".encode())
            assert journal.records_written == 20
            assert list(journal.replay()) == [
                f"rec-{i}".encode() for i in range(20)
            ]

    def test_rotation_bounds_segment_size(self, tmp_path):
        journal = Journal(tmp_path / "j", max_segment_bytes=256)
        for i in range(50):
            journal.append(b"p" * 30)
        journal.close()
        segments = replay_journal(tmp_path / "j")
        assert segments.segments > 1
        assert segments.recovered == 50
        for path in sorted((tmp_path / "j").glob("seg-*.wal")):
            assert path.stat().st_size <= 256 + FRAME_HEADER.size + 30

    def test_reopen_continues_after_tail_repair(self, tmp_path):
        journal = Journal(tmp_path / "j", sync="flush")
        for i in range(5):
            journal.append(f"r{i}".encode())
        journal.close()
        seg = journal.segment_paths()[-1]
        with open(seg, "r+b") as handle:
            handle.truncate(seg.stat().st_size - 2)
        reopened = Journal(tmp_path / "j")
        assert reopened.tail_repaired_bytes > 0
        reopened.append(b"fresh")
        reopened.close()
        recovery = replay_journal(tmp_path / "j")
        assert recovery.records == [b"r0", b"r1", b"r2", b"r3", b"fresh"]
        assert recovery.dropped == 0  # repair already excised the tear

    def test_compact_merges_sealed_segments(self, tmp_path):
        journal = Journal(tmp_path / "j", max_segment_bytes=64)
        for i in range(24):
            journal.append(f"c{i}".encode())
        before = len(journal.segment_paths())
        assert before > 2
        journal.compact()
        after = journal.segment_paths()
        assert len(after) == 2  # one merged sealed segment + the live one
        journal.append(b"post")
        journal.close()
        recovery = replay_journal(tmp_path / "j")
        assert recovery.records == [
            f"c{i}".encode() for i in range(24)
        ] + [b"post"]

    def test_sync_modes_validated(self, tmp_path):
        with pytest.raises(ValueError, match="sync"):
            Journal(tmp_path / "j", sync="yolo")

    def test_closed_journal_refuses_append(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append(b"x")


# ----------------------------------------------------------------------
# artifact integrity primitives
# ----------------------------------------------------------------------


class TestIntegrity:
    def test_save_model_writes_sidecar(self, tmp_path, model_a):
        path = tmp_path / "m.json"
        save_model(model_a, path)
        sidecar = checksum_path(path)
        assert sidecar.is_file()
        assert read_checksum(path) == sha256_bytes(path.read_bytes())
        assert verify_file(path)[0] is True

    def test_verify_file_verdicts(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"payload")
        assert verify_file(path)[0] is None  # no sidecar: unverifiable
        write_checksum(path)
        assert verify_file(path)[0] is True
        path.write_bytes(b"tampered")
        assert verify_file(path, retries=0)[0] is False

    def test_quarantine_moves_artifact_and_sidecar(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"{}")
        write_checksum(path)
        moved = quarantine_file(path)
        assert not path.exists()
        assert not checksum_path(path).exists()
        assert moved.parent.name == "quarantine"
        assert moved.name.startswith("bad.json.quarantined-")
        # Evidence accumulates: a second quarantine of the same name
        # gets the next slot, never overwrites the first.
        path.write_bytes(b"{}")
        again = quarantine_file(path)
        assert again != moved and again.exists() and moved.exists()

    def test_guard_verify_raises_and_counts(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"{}")
        write_checksum(path)
        path.write_bytes(b"{ }")

        metrics = ServingMetrics()
        guard = IntegrityGuard(metrics=metrics)
        with pytest.raises(ArtifactIntegrityError):
            guard.verify(path)
        assert metrics.counters["artifact_verify_failures_total"] == 1

    def test_guard_handle_corrupt_quarantines_and_rolls_back(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"corrupt")
        write_checksum(path, sha256_bytes(b"original"))
        restored = []
        guard = IntegrityGuard(rollback=lambda name: restored.append(name) or True)
        assert guard.handle_corrupt("m", path, ValueError("boom")) is True
        assert restored == ["m"]
        assert not path.exists()
        assert (tmp_path / "quarantine").is_dir()

    def test_clean_shutdown_marker_lifecycle(self, tmp_path):
        marker = CleanShutdownMarker(tmp_path)
        assert marker.present() is False
        assert marker.consume() is False
        marker.write({"drained": True})
        assert marker.present() is True
        assert marker.consume() is True  # consuming removes it
        assert marker.present() is False


# ----------------------------------------------------------------------
# versioned store integrity
# ----------------------------------------------------------------------


class TestStoreIntegrity:
    def test_manifest_records_sha256(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        version = store.save_version("paper", model_a)
        entry = store.list_versions("paper")[-1]
        path = tmp_path / "store" / "paper" / entry["file"]
        assert entry["sha256"] == sha256_bytes(path.read_bytes())
        assert store.verify_version("paper", version)["verdict"] == "ok"

    def test_promote_refuses_corrupt_version(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        version = store.save_version("paper", model_a)
        vpath = tmp_path / "store" / "paper" / ("v%04d.json" % version)
        vpath.write_text(vpath.read_text()[:-40] + "}")  # still JSON-ish bytes
        with pytest.raises(ValueError, match="refusing to promote"):
            store.promote("paper", version, tmp_path / "registry")
        assert not (tmp_path / "registry" / "paper.json").exists()

    def test_prune_removes_sidecars(self, tmp_path, model_a, model_b):
        store = VersionedModelStore(tmp_path / "store", retention=2)
        for model in (model_a, model_b, model_a, model_b):
            store.save_version("paper", model)
        directory = tmp_path / "store" / "paper"
        files = sorted(p.name for p in directory.glob("v*.json"))
        sidecars = sorted(p.name for p in directory.glob("v*.json.sha256"))
        assert files == ["v0003.json", "v0004.json"]
        assert sidecars == ["v0003.json.sha256", "v0004.json.sha256"]

    def test_repair_manifest_quarantines_and_recovers(
        self, tmp_path, model_a, model_b
    ):
        store = VersionedModelStore(tmp_path / "store")
        v1 = store.save_version("paper", model_a)
        v2 = store.save_version("paper", model_b)
        store.promote("paper", v2, tmp_path / "registry")
        directory = tmp_path / "store" / "paper"
        # Corrupt v2's bytes, orphan a v3 file the manifest never saw,
        # and tear the manifest itself.
        (directory / "v0002.json").write_text("{garbage")
        v3 = directory / "v0003.json"
        save_model(model_b, v3)
        (directory / "manifest.json").write_text('{"versions": [')
        report = store.repair_manifest("paper")
        assert report["repaired"] and report["manifest_rebuilt"]
        assert [q["version"] for q in report["quarantined"]] == [v2]
        assert set(report["recovered"]) == {v1, 3}
        versions = {v["version"] for v in store.list_versions("paper")}
        assert versions == {v1, 3}
        assert store.promoted_version("paper") == 3
        assert (directory / "quarantine").is_dir()
        for entry in store.list_versions("paper"):
            assert verify_file(directory / entry["file"])[0] is True

    def test_repair_manifest_drops_missing_files(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        v1 = store.save_version("paper", model_a)
        v2 = store.save_version("paper", model_a)
        os.unlink(tmp_path / "store" / "paper" / ("v%04d.json" % v2))
        report = store.repair_manifest("paper")
        assert report["dropped"] == [v2]
        assert {v["version"] for v in store.list_versions("paper")} == {v1}

    def test_redeploy_verified_prefers_promoted_then_previous(
        self, tmp_path, model_a, model_b
    ):
        store = VersionedModelStore(tmp_path / "store")
        registry = tmp_path / "registry"
        v1 = store.save_version("paper", model_a)
        v2 = store.save_version("paper", model_b)
        store.promote("paper", v1, registry)
        store.promote("paper", v2, registry)  # promoted=v2, previous=v1
        assert store.redeploy_verified("paper", registry) == v2
        # Corrupt the promoted version: redeploy falls through to previous.
        (tmp_path / "store" / "paper" / ("v%04d.json" % v2)).write_text("{bad")
        assert store.redeploy_verified("paper", registry) == v1
        deployed = registry / "paper.json"
        assert verify_file(deployed)[0] is True
        expected = store.load_version("paper", v1)
        engine = ServingEngine(registry, batching=False, tracing=False)
        np.testing.assert_allclose(
            engine.predict("paper", [CONFIG])[0],
            expected.predict(np.asarray([CONFIG]))[0],
            rtol=1e-9,
        )
        engine.close()

    def test_redeploy_verified_exhausted_returns_none(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        v1 = store.save_version("paper", model_a)
        (tmp_path / "store" / "paper" / ("v%04d.json" % v1)).write_text("{bad")
        assert store.redeploy_verified("paper", tmp_path / "registry") is None


# ----------------------------------------------------------------------
# registry verify-on-load + auto-rollback
# ----------------------------------------------------------------------


class TestRegistryIntegrity:
    def _served_engine(self, tmp_path, model_a, model_b, backend="serving"):
        store = VersionedModelStore(tmp_path / "store")
        registry_dir = tmp_path / "registry"
        v1 = store.save_version("paper", model_a)
        v2 = store.save_version("paper", model_b)
        store.promote("paper", v1, registry_dir)
        store.promote("paper", v2, registry_dir)
        guard = IntegrityGuard(
            rollback=lambda name: store.redeploy_verified(name, registry_dir)
            is not None
        )
        if backend == "cluster":
            engine = ClusterEngine(
                registry_dir, workers=1, tracing=False, integrity=guard
            ).start()
        else:
            engine = ServingEngine(
                registry_dir, batching=False, tracing=False, integrity=guard
            )
        return store, registry_dir, engine, v1, v2

    @pytest.mark.parametrize("backend", ["serving", "cluster"])
    def test_corrupt_hot_reload_rolls_back_to_good_version(
        self, tmp_path, model_a, model_b, backend
    ):
        store, registry_dir, engine, v1, v2 = self._served_engine(
            tmp_path, model_a, model_b, backend
        )
        with engine:
            engine.predict("paper", [CONFIG])  # loads v2 cleanly
            # A torn re-deploy lands: artifact bytes no longer match the
            # sidecar, and the mtime bump forces a hot reload.
            deployed = registry_dir / "paper.json"
            payload = deployed.read_bytes()
            deployed.write_bytes(payload[: len(payload) // 2])
            stat = os.stat(deployed)
            os.utime(deployed, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10))
            result = engine.predict_detailed("paper", [CONFIG])
            assert not result.degraded
            expected = store.load_version(
                "paper", store.promoted_version("paper")
            )
            np.testing.assert_allclose(
                result.outputs[0],
                expected.predict(np.asarray([CONFIG]))[0],
                rtol=1e-9,
            )
            assert engine.metrics.to_dict()["artifact_verify_failures_total"] >= 1
            assert engine.metrics.to_dict()["artifacts_quarantined_total"] >= 1
            assert engine.metrics.to_dict()["auto_rollbacks_total"] >= 1
            quarantined = list((registry_dir / "quarantine").iterdir())
            assert quarantined

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["hyper"].update(hidden=5),
            lambda doc: doc.update(x_scaler=None),
            lambda doc: doc.update(networks=[]),
            lambda doc: doc["x_scaler"].update(mean=[0.0] * 5),
            lambda doc: doc["networks"][0]["parameters"].__setitem__(
                0, float("nan")
            ),
        ],
        ids=["hidden-int", "x-scaler-null", "no-networks", "wide-mean",
             "nan-weight"],
    )
    def test_undecodable_artifact_reaches_the_rollback_hook(
        self, tmp_path, model_a, mutate
    ):
        """A document that parses but cannot serve is a ValueError, so the
        guard quarantines it and its rollback hook restores a good one."""
        good = model_to_dict(model_a)
        document = json.loads(json.dumps(good))
        mutate(document)
        path = tmp_path / "paper.json"  # no sha256 sidecar: unverified
        path.write_text(json.dumps(document))
        restored = []

        def rollback(name):
            restored.append(name)
            path.write_text(json.dumps(good))
            return True

        guard = IntegrityGuard(rollback=rollback)
        registry = ModelRegistry(tmp_path, integrity=guard)
        model = registry.get("paper")
        assert restored == ["paper"]
        np.testing.assert_allclose(
            model.predict(np.asarray([CONFIG])),
            model_a.predict(np.asarray([CONFIG])),
        )
        assert list((tmp_path / "quarantine").iterdir())

    def test_without_guard_corruption_still_raises(self, tmp_path, model_a):
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir()
        save_model(model_a, registry_dir / "paper.json")
        engine = ServingEngine(registry_dir, batching=False, tracing=False)
        with engine:
            engine.predict("paper", [CONFIG])
            deployed = registry_dir / "paper.json"
            deployed.write_text("{torn")
            stat = os.stat(deployed)
            os.utime(deployed, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10))
            with pytest.raises(ValueError):
                engine.registry.get_entry("paper")


# ----------------------------------------------------------------------
# startup recovery
# ----------------------------------------------------------------------


class TestRecoveryManager:
    def test_clean_shutdown_is_a_no_op(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        registry = tmp_path / "registry"
        v1 = store.save_version("paper", model_a)
        store.promote("paper", v1, registry)
        CleanShutdownMarker(registry).write()
        report = RecoveryManager(
            store=store, registry_dir=registry, marker=registry
        ).run()
        assert report.clean_shutdown is True
        assert report.repaired_anything is False
        # The marker is consumed: a crash before the *next* clean
        # shutdown will be seen as such.
        assert CleanShutdownMarker(registry).present() is False

    def test_recovers_corrupt_deployed_artifact(self, tmp_path, model_a):
        store = VersionedModelStore(tmp_path / "store")
        registry = tmp_path / "registry"
        v1 = store.save_version("paper", model_a)
        store.promote("paper", v1, registry)
        (registry / "paper.json").write_text("{torn-by-crash")
        report = RecoveryManager(
            store=store, registry_dir=registry, marker=registry
        ).run()
        assert report.clean_shutdown is False
        assert report.redeployed == {"paper": v1}
        assert report.quarantined_artifacts
        assert verify_file(registry / "paper.json")[0] is True

    def test_replays_journal_tail(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = Journal(journal_dir, sync="flush")
        for i in range(8):
            journal.append(json.dumps({"i": i}).encode())
        journal.close()
        seg = sorted(journal_dir.glob("seg-*.wal"))[-1]
        with open(seg, "r+b") as handle:
            handle.truncate(seg.stat().st_size - 4)

        metrics = ServingMetrics()
        report = RecoveryManager(
            journal_dir=journal_dir, marker=tmp_path, metrics=metrics
        ).run()
        assert report.journal["recovered"] == 7
        assert report.journal["dropped"] == 1
        assert metrics.counters["journal_records_recovered_total"] == 7
        assert metrics.counters["journal_records_dropped_total"] == 1
        assert metrics.counters["recoveries_total"] == 1

    def test_report_serializes(self, tmp_path):
        report = RecoveryManager(marker=tmp_path).run()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["clean_shutdown"] is False


# ----------------------------------------------------------------------
# fault kinds
# ----------------------------------------------------------------------


class TestFaultKinds:
    def test_partial_write_tears_the_tail(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 1000)
        plan = FaultPlan()
        plan.add("site", "partial_write")
        plan.fire("site", path=path)
        assert 0 < path.stat().st_size < 1000

    def test_disk_full_raises_enospc(self, tmp_path):
        plan = FaultPlan()
        plan.add("site", "disk_full")
        with pytest.raises(OSError) as excinfo:
            plan.fire("site", path=tmp_path / "f")
        import errno

        assert excinfo.value.errno == errno.ENOSPC

    def test_crash_at_raises_simulated_crash(self):
        plan = FaultPlan()
        plan.add("site", "crash_at", after=1)
        plan.fire("site")  # hit 0: armed but not due
        with pytest.raises(SimulatedCrash):
            plan.fire("site")

    def test_simulated_crash_escapes_except_exception(self):
        plan = FaultPlan()
        plan.add("site", "crash_at")
        with pytest.raises(SimulatedCrash):
            try:
                plan.fire("site")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must not be an Exception")

    def test_disk_full_during_save_leaves_store_recoverable(
        self, tmp_path, model_a
    ):
        plan = FaultPlan()
        plan.add(SITE_STORE_SAVE, "disk_full", count=1)
        store = VersionedModelStore(tmp_path / "store", faults=plan)
        with pytest.raises(OSError):
            store.save_version("paper", model_a)
        # The version file exists but the manifest never saw it; repair
        # adopts it.
        report = store.repair_manifest("paper")
        assert report["recovered"] == [1]
        assert store.latest_version("paper") == 1


# ----------------------------------------------------------------------
# randomized kill-point crash recovery
# ----------------------------------------------------------------------


CRASH_SITES = (SITE_STORE_SAVE, SITE_STORE_PROMOTE, SITE_JOURNAL_APPEND)


@pytest.mark.parametrize("seed", range(24))
def test_kill_point_recovery(tmp_path, seed, model_a, model_b):
    """Crash at a random injection point; recovery must restore service.

    Invariants checked after restart, for every seed:

    * ``/predict`` answers from a version the store can prove is good —
      the outputs equal the promoted version's own predictions;
    * the manifest names only files that exist and verify;
    * journal loss is bounded to the record being appended at the crash.
    """
    rng = random.Random(seed)
    store_root = tmp_path / "store"
    registry = tmp_path / "registry"
    journal_dir = tmp_path / "journal"

    # ---- before the crash: a healthy deployment with history ----------
    setup_store = VersionedModelStore(store_root)
    v1 = setup_store.save_version("paper", model_a)
    setup_store.promote("paper", v1, registry)

    plan = FaultPlan(seed=seed)
    site = rng.choice(CRASH_SITES)
    crash_after = rng.randrange(3)
    if rng.random() < 0.5:
        # Half the seeds tear bytes at the same hit the crash fires on,
        # modelling a partially-flushed write under the kill (rules fire
        # in add order, so the tear lands just before the crash raises).
        plan.add(site, "partial_write", after=crash_after, count=1)
    plan.add(site, "crash_at", after=crash_after)

    store = VersionedModelStore(store_root, faults=plan)
    journal = Journal(journal_dir, sync="flush", faults=plan)
    appended = 0
    crashed = False
    try:
        for step in range(6):
            journal.append(json.dumps({"step": step, "seed": seed}).encode())
            appended += 1
            version = store.save_version(
                "paper", model_b if step % 2 else model_a
            )
            store.promote("paper", version, registry)
    except SimulatedCrash:
        crashed = True
    assert crashed, "the fault plan must fire within the workload"
    # Simulated kill: the journal object is abandoned, never closed.

    # ---- restart: recovery, then serving ------------------------------
    recovered_store = VersionedModelStore(store_root)
    report = RecoveryManager(
        store=recovered_store,
        registry_dir=registry,
        journal_dir=journal_dir,
        marker=registry,
    ).run()
    assert report.clean_shutdown is False

    # Manifest names only existing, checksum-valid files; pointers valid.
    entries = recovered_store.list_versions("paper")
    assert entries, "recovery must never lose every version"
    versions = {entry["version"] for entry in entries}
    for entry in entries:
        path = store_root / "paper" / entry["file"]
        assert path.is_file()
        assert verify_file(path)[0] is True
    promoted = recovered_store.promoted_version("paper")
    assert promoted in versions

    # The registry serves, and serves the promoted version's exact bytes.
    engine = ServingEngine(registry, batching=False, tracing=False)
    with engine:
        outputs = engine.predict("paper", [CONFIG])
    expected = recovered_store.load_version("paper", promoted)
    np.testing.assert_allclose(
        outputs[0], expected.predict(np.asarray([CONFIG]))[0], rtol=1e-9
    )

    # Journal loss bounded to the record in flight at the crash: with
    # per-record flush, every fully-appended record except possibly the
    # torn tail survives.
    assert report.journal["recovered"] >= appended - 1
    assert report.journal["recovered"] + report.journal["dropped"] >= appended - 1


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------


class TestBatcherDrain:
    def test_drain_completes_queued_futures(self):
        release = threading.Event()
        calls = []

        def predict_fn(batch):
            calls.append(batch.shape[0])
            release.wait(1.0)
            return np.ones((batch.shape[0], 2))

        batcher = MicroBatcher(predict_fn, max_batch_size=1, max_wait_ms=0.0)
        futures = [batcher.submit([float(i)]) for i in range(6)]
        release.set()
        batcher.close(drain=True)
        for future in futures:
            np.testing.assert_allclose(future.result(1.0), [1.0, 1.0])
        assert sum(calls) == 6

    def test_fail_fast_close_still_fails_queued(self):
        gate = threading.Event()

        def predict_fn(batch):
            gate.wait(0.5)
            return np.zeros((batch.shape[0], 1))

        batcher = MicroBatcher(predict_fn, max_batch_size=1, max_wait_ms=0.0)
        futures = [batcher.submit([float(i)]) for i in range(4)]
        batcher.close(timeout=0.05, drain=False)
        gate.set()
        outcomes = []
        for future in futures:
            try:
                future.result(1.0)
                outcomes.append("ok")
            except BatcherClosedError:
                outcomes.append("closed")
        assert "closed" in outcomes  # queued work was failed, not stranded

    def test_submit_after_close_raises_either_mode(self):
        batcher = MicroBatcher(lambda b: np.zeros((b.shape[0], 1)))
        batcher.close(drain=True)
        with pytest.raises(BatcherClosedError):
            batcher.submit([1.0])


class TestEngineDrain:
    def test_drain_stops_admission_with_retry_after(self, tmp_path, model_a):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(model_a, registry / "paper.json")
        engine = ServingEngine(registry, batching=False, tracing=False)
        engine.predict("paper", [CONFIG])
        assert engine.draining is False
        engine.drain()
        assert engine.draining is True
        with pytest.raises(OverloadedError) as excinfo:
            engine.predict("paper", [CONFIG])
        assert excinfo.value.retry_after > 0
        assert engine.health()["draining"] is True
        engine.drain()  # idempotent
        engine.close()

    def test_drain_completes_batched_inflight_work(self, tmp_path, model_a):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_model(model_a, registry / "paper.json")
        engine = ServingEngine(
            registry, batching=True, max_wait_ms=20.0, tracing=False
        )
        results = []

        def worker():
            results.append(engine.predict("paper", [CONFIG]))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(2.0)
        engine.drain()
        assert len(results) == 4
        engine.close()


# ----------------------------------------------------------------------
# observation log durability
# ----------------------------------------------------------------------


class TestObservationLogDurability:
    def test_replay_skips_malformed_lines(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with ObservationLog(journal_dir=journal_dir) as log:
            log.record("paper", CONFIG, measured=[1.0] * 5, source="test")
            log.record("paper", CONFIG, measured=[2.0] * 5, source="test")
        # Intact frames whose payloads are not observations: a line that
        # does not parse, and bytes that are not UTF-8.
        with Journal(journal_dir) as journal:
            journal.append(b"{torn line")
            journal.append(b"\xff\xfe not utf-8")
        with ObservationLog(journal_dir=journal_dir) as log:
            log.record("paper", CONFIG, measured=[3.0] * 5, source="test")
        replayed = ObservationLog.replay_journal(
            journal_dir, resume=False, repair=False
        )
        assert [obs.measured[0] for obs in replayed.snapshot()] == [
            1.0, 2.0, 3.0
        ]
        assert replayed.journal_records_dropped == 2
        assert replayed.journal_records_recovered == 3

    def test_journal_backed_log_round_trips(self, tmp_path):
        journal_dir = tmp_path / "journal"
        log = ObservationLog(journal_dir=journal_dir, journal_sync="flush")
        for i in range(5):
            log.record(
                "paper", CONFIG, measured=[float(i)] * 5, source="test"
            )
        log.close()
        replayed = ObservationLog.replay_journal(journal_dir, resume=True)
        assert len(replayed) == 5
        assert replayed.journal is not None  # resume: keeps journaling
        replayed.record("paper", CONFIG, measured=[9.0] * 5, source="test")
        replayed.close()
        final = ObservationLog.replay_journal(journal_dir, resume=False)
        assert len(final) == 6
        assert final.journal is None

    def test_journal_torn_tail_bounded_loss(self, tmp_path):
        journal_dir = tmp_path / "journal"
        log = ObservationLog(journal_dir=journal_dir, journal_sync="flush")
        for i in range(6):
            log.record("paper", CONFIG, measured=[float(i)] * 5, source="t")
        log.close()
        seg = sorted(journal_dir.glob("seg-*.wal"))[-1]
        with open(seg, "r+b") as handle:
            handle.truncate(seg.stat().st_size - 5)
        replayed = ObservationLog.replay_journal(journal_dir)
        assert len(replayed) == 5
        assert replayed.journal_records_dropped == 1
        replayed.close()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VECTOR = st.lists(_FINITE, min_size=1, max_size=5)
# (model, config, predicted, measured, flush after recording it)
_OBSERVATION = st.tuples(
    st.text(max_size=8),
    _VECTOR,
    st.none() | _VECTOR,
    st.none() | _VECTOR,
    st.booleans(),
)


@given(observations=st.lists(_OBSERVATION, max_size=60), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_journal_byte_prefix_replays_a_record_prefix(observations, data):
    """Cut a group-committed segment anywhere: a read-only replay never
    raises, returns a prefix of what was recorded (all of it when the
    file is whole), and leaves the cut file as it found it."""

    def replay(journal_dir):
        return ObservationLog.replay_journal(
            journal_dir, resume=False, repair=False
        ).snapshot()

    with tempfile.TemporaryDirectory() as tmp:
        journal_dir = Path(tmp)
        with ObservationLog(journal_dir=journal_dir) as log:
            for model, config, predicted, measured, flush in observations:
                log.record(
                    model, config, predicted=predicted, measured=measured
                )
                if flush:
                    log.flush()  # ends a group-commit frame here
            recorded = log.snapshot()
        (segment,) = journal_dir.glob("seg-*.wal")
        whole = segment.read_bytes()
        assert replay(journal_dir) == recorded
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        segment.write_bytes(whole[:cut])
        replayed = replay(journal_dir)
        assert replayed == recorded[: len(replayed)]
        assert segment.read_bytes() == whole[:cut]


def _field_paths(node, prefix=()):
    """Every dict key of an artifact document, nested ones included."""
    if isinstance(node, list):
        for index, value in enumerate(node):
            yield from _field_paths(value, prefix + (index,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))


_FIELD_VALUES = [
    None, True, 0, -1, 2.5, float("nan"), float("inf"), float("-inf"),
    "x", [], [1, 2], {}, {"a": 1}, 1000000,
]
_VALID_ROWS = np.asarray([CONFIG, [500.0, 10.0, 12.0, 20.0]])


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_artifact_is_a_named_valueerror_or_a_working_model(
    model_a, data
):
    """One field replaced or one byte changed: loading either raises a
    ValueError naming the file or yields a model that answers valid rows
    finitely, through ``load_model`` and the registry alike."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model_a, Path(tmp) / "paper.json")
        whole = path.read_bytes()
        if data.draw(st.booleans(), label="byte edit"):
            at = data.draw(st.integers(0, len(whole) - 1), label="offset")
            flip = data.draw(st.integers(1, 255), label="xor")
            mutated = bytearray(whole)
            mutated[at] ^= flip
            path.write_bytes(bytes(mutated))
            assert verify_file(path, retries=0)[0] is False
        else:
            document = json.loads(whole)
            field = data.draw(
                st.sampled_from(list(_field_paths(document))), label="field"
            )
            node = document
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = data.draw(
                st.sampled_from(_FIELD_VALUES), label="value"
            )
            path.write_text(json.dumps(document))
        for load in (load_model, lambda p: ModelRegistry(p.parent).get("paper")):
            try:
                model = load(path)
            except ValueError as exc:
                assert str(path) in str(exc)
                continue
            answer = model.predict(_VALID_ROWS)
            assert answer.shape == (2, len(OUTPUT_NAMES))
            assert np.isfinite(answer).all()


# ----------------------------------------------------------------------
# concurrent promote vs rollback (satellite)
# ----------------------------------------------------------------------


def test_promote_rollback_hammer(tmp_path, model_a, model_b):
    """Concurrent promote/rollback must never leave a dangling manifest.

    Whatever interleaving wins, the manifest's promoted pointer names a
    version whose file exists and verifies, and the deployed artifact is
    checksum-valid JSON.
    """
    store = VersionedModelStore(tmp_path / "store")
    registry = tmp_path / "registry"
    v1 = store.save_version("paper", model_a)
    v2 = store.save_version("paper", model_b)
    store.promote("paper", v1, registry)
    store.promote("paper", v2, registry)
    stop = threading.Event()
    errors = []

    def promoter():
        toggle = [v1, v2]
        i = 0
        while not stop.is_set():
            try:
                store.promote("paper", toggle[i % 2], registry)
            except (RuntimeError, KeyError, ValueError) as exc:
                errors.append(exc)
            i += 1

    def rollbacker():
        while not stop.is_set():
            try:
                store.rollback("paper", registry)
            except RuntimeError:
                pass  # legitimately no previous yet
            except (KeyError, ValueError) as exc:
                errors.append(exc)

    threads = [
        threading.Thread(target=promoter),
        threading.Thread(target=rollbacker),
        threading.Thread(target=rollbacker),
    ]
    for thread in threads:
        thread.start()
    deadline = threading.Event()
    deadline.wait(0.5)
    stop.set()
    for thread in threads:
        thread.join(2.0)
    assert not errors, errors[:3]
    promoted = store.promoted_version("paper")
    source = tmp_path / "store" / "paper" / ("v%04d.json" % promoted)
    assert source.is_file()
    assert verify_file(source)[0] is True
    deployed = registry / "paper.json"
    assert verify_file(deployed)[0] is True
    json.loads(deployed.read_text())  # parseable, not torn
