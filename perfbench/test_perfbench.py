"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench -q

The end-to-end tests start real servers and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import run
import servers

ROOT = Path(__file__).resolve().parents[1]
SERVER_MARKERS = ("repro.serving.server", "repro.cluster.worker", "launcher.py")


def request_stream(seed: int) -> bytes:
    """Every byte a run would send for ``seed``, in order."""
    point = inputs.point_stream(seed, "paper", 22.0, 5.0, 200)
    tune = inputs.tune_stream(seed, ["paper0", "paper1"], 20, 50)
    parts = [inputs.design(seed, 20).tobytes(), point.open_due.tobytes()]
    parts += point.open_bodies + point.closed_bodies + [point.warmup_body]
    parts += tune.sweep_bodies + tune.recommend_bodies
    return b"\n".join(parts)


def test_one_seed_gives_one_byte_identical_request_stream():
    assert request_stream(7) == request_stream(7)
    assert request_stream(7) != request_stream(8)


def test_point_stream_mixes_hot_repeats_with_never_repeated_configs():
    stream = inputs.point_stream(3, "paper", 22.0, 10.0, 500)
    rows = np.vstack([stream.open_x, stream.closed_x])
    hot = {tuple(r) for r in stream.hot}
    from_hot = [tuple(r) in hot for r in rows]
    assert 0.4 < np.mean(from_hot) < 0.6
    cold = [tuple(r) for r, h in zip(rows, from_hot) if not h]
    assert len(cold) == len(set(cold))


def test_sweep_bodies_encode_the_sweep_rows():
    stream = inputs.tune_stream(5, ["a", "b"], 4, 2)
    for model, pair, body in zip(
        stream.sweep_models, stream.sweep_pairs, stream.sweep_bodies
    ):
        assert body == inputs.predict_body(model, inputs.sweep_rows(*pair))
    assert len(set(map(tuple, stream.sweep_pairs))) == 4


def test_input_ranges_match_the_table2_space():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.config import TABLE2_SPACE

    assert inputs.TABLE2_RANGES == tuple(
        (r.name, r.low, r.high) for r in TABLE2_SPACE.ranges
    )


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_tail_reads_the_highest_percentile_with_ten_samples_beyond():
    assert servers.tail_percentile(1000) == 99.0
    assert servers.tail_percentile(999) == 95.0
    assert servers.tail_percentile(231) == 95.0
    assert servers.tail_percentile(100) == 75.0
    assert servers.tail_percentile(12) == 50.0
    assert servers.nearest_rank(list(range(1, 101)), 95.0) == 95


def test_robust_rate_ignores_one_slow_stretch():
    done = list(np.arange(1, 101) * 0.01)
    done[50:60] = list(np.array(done[50:60]) + 0.5)  # a 0.5 s stall
    done[60:] = list(np.array(done[60:]) + 0.5)
    assert servers.robust_rate(done, [1] * 100, 0.0) == pytest.approx(100.0)


def _server_pids() -> set:
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if str(run.RUN_ROOT).encode() in cmdline and any(
            m.encode() in cmdline for m in SERVER_MARKERS
        ):
            pids.add(int(entry))
    return pids


def _tree_state() -> dict:
    """Size and mtime of every file of the checkout outside the scratch
    area and git's own directory."""
    state = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in (".git", run.RUN_ROOT.name) or not path.is_file():
            continue
        stat = path.stat()
        state[str(rel)] = (stat.st_size, stat.st_mtime_ns)
    return state


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_reaps_its_servers_and_writes_nothing_in_the_repo(trace):
    before_pids, before_tree = _server_pids(), _tree_state()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune",
         "--seed", "3", "--seconds", "2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    *_, record_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = layers.PER_LAYER if trace == "1" else layers.END_TO_END
    assert set(result["metrics"]) == {name for name, *_ in expected}
    for phase in json.loads(record_line)["record"]["phases"].values():
        assert phase["record"].get("orphans_killed", 0) == 0
    assert _server_pids() - before_pids == set()
    assert _tree_state() == before_tree
    assert not [p for p in run.RUN_ROOT.iterdir() if p.name.startswith("run-")]


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
