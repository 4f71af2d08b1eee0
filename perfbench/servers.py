"""The ``point`` and ``tune`` phases: ``repro-serve`` driven over HTTP.

Each phase starts its own server (``--port 0``, fresh models and journal
directories), times spawn -> first 200 on ``/readyz`` as its set-up,
warms it, sends the seeded traffic from :mod:`inputs`, stores every raw
answer, and only after the timed phase checks each one against the
benchmark's own ``NeuralWorkloadModel.predict`` on the same artifact.
The server runs in its own session and is reaped with all its workers.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import inputs

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.cluster.router import RendezvousRouter  # noqa: E402
from repro.models import save_model  # noqa: E402
from repro.serving.client import ServingClient, ServingError  # noqa: E402
from repro.workload.sampler import ConfigSpace  # noqa: E402
from repro.workload.service import OUTPUT_NAMES  # noqa: E402

JSON_HEADERS = {"Content-Type": "application/json"}
CLIENT_TIMEOUT_S = 30.0
#: A failed, refused, degraded or wrong answer counts as this slow, which
#: is beyond every latency an answer can have under the client timeout.
FAILED_MS = CLIENT_TIMEOUT_S * 1000.0
#: ``point`` open-loop rate per connection: about half of what one
#: keep-alive connection completed in the closed loop when this benchmark
#: was written (~22 req/s on a 2-core host).
OPEN_LOOP_RPS_PER_CONNECTION = 12.0
#: Bodies pre-built per closed-loop second; a faster server than that
#: wraps around and repeats them, which the record counts.
CLOSED_LOOP_BODIES_PER_S = 4000
#: ``tune`` bodies pre-built per client second (sweeps then wrap around,
#: which costs the server the same work as no cache is on that path;
#: recommends never wrap, so every search stays cold).
SWEEPS_PER_S = 150
RECOMMENDS_PER_S = 1000
#: Answers per client second in the ``tune`` closed loop on a 2-core host
#: when this benchmark was written; they fix which tail percentile is read.
NOMINAL_SWEEPS_PER_S = 50
NOMINAL_RECOMMENDS_PER_S = 12
#: Percentiles a tail may be read at.  Rungs far apart keep the one read
#: from sitting where the ``point`` latencies change mode (stalled vs
#: queued behind a stall).
TAIL_LADDER = (99.0, 95.0, 75.0, 50.0)


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


def tail_percentile(expected: float) -> float:
    """The highest ladder percentile leaving ten of ``expected`` samples
    beyond it.  It is chosen from the phase's expected sample count, not
    the realised one, so every run and commit reads the same percentile;
    the record keeps the realised count."""
    for p in TAIL_LADDER:
        if expected * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def robust_rate(done_at, amounts, start: float, chunks: int = 10) -> float:
    """Amount completed per second, as the median over ``chunks`` runs of
    consecutive completions: a few seconds of a slower host move one or
    two chunks, not the median."""
    order = sorted(zip(done_at, amounts))
    edges = sorted({round(i * len(order) / chunks) for i in range(chunks + 1)})
    rates, since = [], start
    for first, stop in zip(edges, edges[1:]):
        until = order[stop - 1][0]
        rates.append(sum(a for _, a in order[first:stop]) / (until - since))
        since = until
    return statistics.median(rates)


def counts(oks) -> dict:
    succeeded = sum(oks)
    return {"sent": len(oks), "succeeded": succeeded, "failed": len(oks) - succeeded}


def group_members(pgid: int) -> list:
    """Live (non-zombie) processes in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Context:
    """What every phase of one run shares: scratch space, child
    environment, the served artifact and the host's CPU count."""

    def __init__(self, run_dir: Path, env: dict, model, nproc: int):
        self.run_dir = run_dir
        self.env = env
        self.model = model
        self.nproc = nproc

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.run_dir))

    def models_dir(self, names) -> Path:
        """A fresh models directory serving the artifact under ``names``."""
        directory = self.fresh_dir("models")
        for name in names:
            save_model(self.model, directory / f"{name}.json")
        return directory


class Server:
    """One ``repro-serve`` process in its own session.

    ``traced`` starts it through ``launcher.py``, which installs the layer
    timers and answers SIGUSR1 with a snapshot of them.
    """

    def __init__(self, ctx: Context, args: list, traced: bool):
        self.ctx = ctx
        self.dir = ctx.fresh_dir("server")
        if traced:
            self.cmd = [
                sys.executable, str(BENCH_DIR / "launcher.py"), str(self.dir)
            ]
        else:
            self.cmd = [sys.executable, "-m", "repro.serving.server"]
        self.cmd += args
        self.proc = None
        self.snapshots = 0

    def start(self, timeout: float = 120.0) -> float:
        """Spawn and wait for the first 200 on ``/readyz``; returns seconds."""
        log_path = self.dir / "server.log"
        started = time.monotonic()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=self.dir, env=self.ctx.env,
                start_new_session=True,
            )
        deadline = started + timeout
        address = None
        while address is None:
            self._check_alive(deadline, log_path)
            address = re.search(
                rb"at http://([\d.]+):(\d+)", log_path.read_bytes()
            )
            time.sleep(0.002)
        self.host, self.port = address.group(1).decode(), int(address.group(2))
        while True:
            self._check_alive(deadline, log_path)
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return time.monotonic() - started
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.002)

    def _check_alive(self, deadline: float, log_path: Path) -> None:
        if self.proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(
                f"server did not become ready: {log_path.read_text()[-2000:]}"
            )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def snapshot(self, timeout: float = 30.0) -> dict:
        """The launcher's layer aggregates since the previous snapshot."""
        path = self.dir / f"snapshot-{self.snapshots}.json"
        self.snapshots += 1
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no snapshot")
            time.sleep(0.002)
        return json.loads(path.read_text())

    def rss_mb(self) -> float:
        """Summed peak RSS of the server and its worker processes."""
        return sum(peak_rss_mb(pid) for pid in group_members(self.proc.pid))

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap the whole session.

        Returns how many processes were still alive five seconds after
        the server exited and had to be killed.
        """
        if self.proc is None:
            return 0
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        orphans = group_members(pgid)
        if orphans:
            os.killpg(pgid, signal.SIGKILL)
            while group_members(pgid):
                time.sleep(0.01)
        return len(orphans)


def start_servers(ctx: Context, make_args, setups: int, traced: bool):
    """Start ``setups`` servers one after another (each on fresh
    directories), keep the last; returns (server, set-up seconds, orphans)."""
    times, orphans, server = [], 0, None
    for _ in range(setups):
        if server is not None:
            orphans += server.stop()
        server = Server(ctx, make_args(), traced)
        try:
            times.append(server.start())
        except BaseException:
            server.stop()
            raise
    return server, times, orphans


def check_predictions(status, raw: bytes, expected: np.ndarray) -> bool:
    """A 200, not degraded, equal to ``expected`` at rtol 1e-9."""
    if status != 200:
        return False
    try:
        payload = json.loads(raw)
        if payload["degraded"] is not False:
            return False
        got = np.array(
            [[p[name] for name in OUTPUT_NAMES] for p in payload["predictions"]],
            dtype=float,
        )
    except (ValueError, KeyError, TypeError):
        return False
    return got.shape == expected.shape and bool(
        np.allclose(got, expected, rtol=1e-9, atol=0.0)
    )


# ----------------------------------------------------------------------
# point
# ----------------------------------------------------------------------


def _post(conn: http.client.HTTPConnection, body: bytes):
    """One keep-alive ``/predict``; (status or None, raw body)."""
    try:
        conn.request("POST", "/predict", body, JSON_HEADERS)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()  # the next request reconnects
        return None, b""


def _run_threads(target, args_list) -> None:
    threads = [threading.Thread(target=target, args=args) for args in args_list]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(conns, due: np.ndarray, bodies) -> list:
    """Send ``bodies[i]`` at ``due[i]`` s on a free connection.

    Free connections are reused most recently freed first, as urllib3's
    pool does.  Returns per request (status, raw, late_s, latency_s),
    both timed from the request's due time, so a stall delays later
    requests visibly.
    """
    results = [None] * len(bodies)
    order = itertools.count()
    pool = queue.LifoQueue()
    for conn in conns:
        pool.put(conn)
    origin = time.perf_counter() + 0.05

    def sender():
        for i in order:
            if i >= len(bodies):
                return
            due_at = origin + due[i]
            pause = due_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            conn = pool.get()
            sent = time.perf_counter()
            status, raw = _post(conn, bodies[i])
            done = time.perf_counter()
            pool.put(conn)
            results[i] = (status, raw, sent - due_at, done - due_at)

    _run_threads(sender, [()] * len(conns))
    return results


def closed_loop(conns, bodies, seconds: float):
    """Each connection sends its next body as soon as the last returns.

    Returns ([(index, status, raw, done_at)], start, wrapped).
    """
    results = []
    order = itertools.count()
    start = time.perf_counter()
    end = start + seconds

    def sender(conn):
        while time.perf_counter() < end:
            i = next(order) % len(bodies)
            status, raw = _post(conn, bodies[i])
            results.append((i, status, raw, time.perf_counter()))

    _run_threads(sender, [(conn,) for conn in conns])
    return results, start, len(results) > len(bodies)


def point_phase(
    ctx: Context, seed: int, open_s: float, closed_s: float,
    setups: int, traced: bool,
) -> dict:
    stream = inputs.point_stream(
        seed, "paper", OPEN_LOOP_RPS_PER_CONNECTION * ctx.nproc, open_s,
        int(CLOSED_LOOP_BODIES_PER_S * closed_s) + 1,
    )

    def args():
        return ["--models-dir", str(ctx.models_dir(["paper"])), "--port", "0"]

    server, setup_times, orphans = start_servers(ctx, args, setups, traced)
    conns = []
    try:
        conns = [
            http.client.HTTPConnection(
                server.host, server.port, timeout=CLIENT_TIMEOUT_S
            )
            for _ in range(ctx.nproc)
        ]
        for conn in conns:
            conn.connect()
        status, _ = _post(conns[0], stream.warmup_body)
        if status != 200:
            raise RuntimeError(f"point warm-up answered {status}")
        if traced:
            server.snapshot()  # drop the warm-up
        opened = open_loop(conns, stream.open_due, stream.open_bodies)
        layers = server.snapshot() if traced else None
        closed, closed_start, wrapped = closed_loop(
            conns, stream.closed_bodies, closed_s
        )
        rss = server.rss_mb()
    finally:
        for conn in conns:
            conn.close()
        orphans += server.stop()

    expected_open = ctx.model.predict(stream.open_x)
    open_ok = [
        check_predictions(status, raw, expected_open[i : i + 1])
        for i, (status, raw, _, _) in enumerate(opened)
    ]
    sent_closed = sorted({i for i, *_ in closed})
    expected_closed = dict(
        zip(sent_closed, ctx.model.predict(stream.closed_x[sent_closed]))
    )
    closed_ok = [
        check_predictions(status, raw, expected_closed[i][None])
        for i, status, raw, _ in closed
    ]
    latencies = [
        r[3] * 1000.0 if ok else FAILED_MS for r, ok in zip(opened, open_ok)
    ]
    tail_p = tail_percentile(OPEN_LOOP_RPS_PER_CONNECTION * ctx.nproc * open_s)
    lates = [r[2] * 1000.0 for r in opened]
    rtts = [r[3] - r[2] for r, ok in zip(opened, open_ok) if ok]
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "rss_mb": rss,
            "p50_ms": nearest_rank(latencies, 50.0),
            "tail_ms": nearest_rank(latencies, tail_p),
            "capacity_rps": robust_rate(
                [done for *_, done in closed], closed_ok, closed_start
            ),
        },
        "record": {
            "setup_s_each": setup_times,
            "open_loop": {
                **counts(open_ok),
                "rate_rps": OPEN_LOOP_RPS_PER_CONNECTION * ctx.nproc,
                "connections": ctx.nproc,
                "tail_percentile": tail_p,
                "tail_samples": len(latencies),
                "late_p99_ms": nearest_rank(lates, 99.0),
                "cache_hot_share": inputs.HOT_SHARE,
            },
            "closed_loop": {
                **counts(closed_ok),
                "seconds": closed_s,
                "bodies_wrapped": wrapped,
            },
            "orphans_killed": orphans,
        },
        "ops": len(open_ok) + len(closed_ok),
        "failed": open_ok.count(False) + closed_ok.count(False),
        "trace": None if layers is None else {
            "server": layers,
            "latency_mean_s": statistics.fmean(latencies) / 1000.0,
            "rtt_mean_s": statistics.fmean(rtts) if rtts else 0.0,
            "late_mean_s": statistics.fmean(lates) / 1000.0,
            "late_p99_ms": nearest_rank(lates, 99.0),
        },
    }


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------


def artifact_names(workers: int) -> list:
    """Names for the one artifact, enough that every worker is the
    rendezvous primary of at least one of them."""
    router = RendezvousRouter()
    names, primaries = [], set()
    while len(primaries) < workers:
        name = f"paper{len(names)}"
        names.append(name)
        primaries.add(router.replicas(name, list(range(workers)))[0])
    return names


def _client_post(client: ServingClient, path: str, body: bytes):
    """One fresh-connection POST through ``ServingClient``'s transport,
    which sends pre-encoded bytes and returns the raw answer."""
    try:
        raw = client._request("POST", path, data=body, headers=JSON_HEADERS)
        return 200, raw
    except ServingError as exc:
        return exc.status, b""
    except (OSError, http.client.HTTPException):
        return None, b""


def check_recommend(status, raw: bytes, model: str, space: ConfigSpace) -> bool:
    """A 200 for ``model`` whose config lies in ``space``, with evals > 0."""
    if status != 200:
        return False
    try:
        payload = json.loads(raw)
        config = payload["config"]
        inside = all(r.low <= config[r.name] <= r.high for r in space.ranges)
        return inside and payload["evals"] > 0 and payload["model"] == model
    except (ValueError, KeyError, TypeError):
        return False


def tune_phase(
    ctx: Context, seed: int, seconds: float, setups: int, traced: bool
) -> dict:
    names = artifact_names(ctx.nproc)
    n_clients = max(2, ctx.nproc)
    sweepers, recommenders = (n_clients + 1) // 2, n_clients // 2
    stream = inputs.tune_stream(
        seed, names,
        int(SWEEPS_PER_S * seconds * sweepers) + 1,
        int(RECOMMENDS_PER_S * seconds * recommenders) + 1,
    )
    journals = []

    def args():
        journals.append(ctx.fresh_dir("journal"))
        return [
            "--models-dir", str(ctx.models_dir(names)), "--port", "0",
            "--workers", str(ctx.nproc), "--journal-dir", str(journals[-1]),
        ]

    server, setup_times, orphans = start_servers(ctx, args, setups, traced)
    sweeps, recommends, ends = [], [], []
    try:
        client = ServingClient(server.url, timeout=CLIENT_TIMEOUT_S)
        # One predict and one search per name (seeds no stream draws)
        # load every worker's copy and distil every surrogate.
        for name in names:
            warm = [
                _client_post(client, "/predict", inputs.predict_body(
                    name, inputs.sweep_rows(500.0, 16.0)[:1])),
                _client_post(client, "/recommend", inputs.recommend_body(
                    name, inputs.WARMUP_RECOMMEND_SEED)),
            ]
            if [status for status, _ in warm] != [200, 200]:
                raise RuntimeError(f"tune warm-up answered {warm}")
        warmup = server.snapshot() if traced else None
        sweep_order, recommend_order = itertools.count(), itertools.count()
        start = time.perf_counter()
        end = start + seconds

        def client_loop(path, bodies, order, wrap, results):
            client = ServingClient(server.url, timeout=CLIENT_TIMEOUT_S)
            for i in order:
                if time.perf_counter() >= end or (not wrap and i >= len(bodies)):
                    break
                i %= len(bodies)
                sent = time.perf_counter()
                status, raw = _client_post(client, path, bodies[i])
                results.append((i, status, raw, sent, time.perf_counter()))
            ends.append(time.perf_counter())

        sweep = ("/predict", stream.sweep_bodies, sweep_order, True, sweeps)
        search = (
            "/recommend", stream.recommend_bodies, recommend_order, False,
            recommends,
        )
        _run_threads(client_loop, [sweep] * sweepers + [search] * recommenders)
        layers = server.snapshot() if traced else None
        rss = server.rss_mb()
    finally:
        orphans += server.stop()
    journal_bytes = sum(
        f.stat().st_size for f in journals[-1].rglob("*") if f.is_file()
    )

    sweep_ok = [
        check_predictions(
            status, raw,
            ctx.model.predict(inputs.sweep_rows(*stream.sweep_pairs[i])),
        )
        for i, status, raw, _, _ in sweeps
    ]
    space = ConfigSpace()
    recommend_ok = [
        check_recommend(status, raw, stream.recommend_models[i], space)
        for i, status, raw, _, _ in recommends
    ]
    sweep_ms = [
        (done - sent) * 1000.0 if ok else FAILED_MS
        for (_, _, _, sent, done), ok in zip(sweeps, sweep_ok)
    ]
    recommend_ms = [
        (done - sent) * 1000.0 if ok else FAILED_MS
        for (_, _, _, sent, done), ok in zip(recommends, recommend_ok)
    ]
    sweep_tail_p = tail_percentile(NOMINAL_SWEEPS_PER_S * seconds * sweepers)
    recommend_tail_p = tail_percentile(
        NOMINAL_RECOMMENDS_PER_S * seconds * recommenders
    )
    trace = None
    if layers is not None:
        rtts = [
            done - sent
            for (_, _, _, sent, done), ok in zip(sweeps, sweep_ok) if ok
        ]
        trace = {
            "server": layers,
            "warmup": warmup,
            "sweep_rtt_mean_s": statistics.fmean(rtts) if rtts else 0.0,
            "client_s": sum(t - start for t in ends),
            "requests_s": sum(done - sent for *_, sent, done in sweeps + recommends),
            "journal_bytes": journal_bytes,
        }
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "rss_mb": rss,
            "sweep_rows_per_s": robust_rate(
                [done for *_, done in sweeps],
                [inputs.SWEEP_ROWS * ok for ok in sweep_ok], start,
            ),
            "sweep_tail_ms": nearest_rank(sweep_ms, sweep_tail_p),
            "recommend_p50_ms": nearest_rank(recommend_ms, 50.0),
            "recommend_tail_ms": nearest_rank(recommend_ms, recommend_tail_p),
        },
        "record": {
            "setup_s_each": setup_times,
            "artifact_names": names,
            "workers": ctx.nproc,
            "clients": {"sweep": sweepers, "recommend": recommenders},
            "sweeps": {
                **counts(sweep_ok),
                "rows_each": inputs.SWEEP_ROWS,
                "tail_percentile": sweep_tail_p,
                "bodies_wrapped": len(sweeps) > len(stream.sweep_bodies),
            },
            "recommends": {
                **counts(recommend_ok),
                "tail_percentile": recommend_tail_p,
            },
            "journal_bytes": journal_bytes,
            "orphans_killed": orphans,
        },
        "ops": len(sweep_ok) + len(recommend_ok),
        "failed": sweep_ok.count(False) + recommend_ok.count(False),
        "trace": trace,
    }
