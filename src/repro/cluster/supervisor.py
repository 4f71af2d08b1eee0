"""Worker lifecycle management: spawn, heartbeat, restart, drain.

The supervisor owns N :mod:`repro.cluster.worker` processes and the
sockets to them.  Its job is the boring, load-bearing part of the cluster
story:

* **Pre-fork with preload.**  Workers are spawned at startup and only
  enter the ready pool after their ``ready`` frame — which a worker sends
  strictly after materializing every artifact — so routing never waits on
  a cold model parse.
* **Crash detection.**  A monitor thread polls ``Popen.poll()`` every
  tick: a SIGKILL'd or segfaulted worker is noticed within one heartbeat
  interval.  Transport errors during a call mark the worker *suspect*
  immediately (its channel is poisoned — a late reply would desync the
  stream), and the monitor converts suspects into restarts.
* **Wedge detection.**  A worker stuck inside one request past
  ``wedge_timeout`` (alive for ``waitpid``, silent on its socket) is
  SIGKILLed; the in-flight caller's recv fails fast and fails over.
  Idle workers are pinged; a missed heartbeat marks them suspect.
* **Exponential-backoff restarts with a budget.**  Each death schedules a
  respawn after ``backoff_base * 2^consecutive_failures`` (capped);
  surviving ``stable_after_s`` resets the exponent.  More than
  ``restart_budget`` restarts inside ``restart_window_s`` marks the
  worker **failed** — permanently out of the pool — and when every
  worker is failed the engine above degrades to its surrogate tier
  rather than erroring.
* **Graceful drain.**  :meth:`drain` sends each ready worker the
  ``drain`` op and waits for its acknowledgement — the per-worker half of
  the server's SIGTERM / ``/admin/drain`` sequence.

States: ``starting → ready ⇄ suspect → restarting → ready … → failed``,
with ``stopped`` terminal after :meth:`stop`.  Every transition lands in
the ``worker_state`` metrics gauge; every respawn increments
``worker_restarts_total``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

from .protocol import ProtocolError, WorkerCallError, recv_frame, send_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reliability.faults import FaultPlan
    from ..serving.metrics import ServingMetrics

__all__ = [
    "WORKER_STATES",
    "STARTING",
    "READY",
    "SUSPECT",
    "RESTARTING",
    "FAILED",
    "STOPPED",
    "WorkerHandle",
    "WorkerSupervisor",
]

STARTING = "starting"
READY = "ready"
SUSPECT = "suspect"
RESTARTING = "restarting"
FAILED = "failed"
STOPPED = "stopped"

WORKER_STATES = (STARTING, READY, SUSPECT, RESTARTING, FAILED, STOPPED)


class WorkerHandle:
    """One supervised worker process plus its channel and bookkeeping."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.proc: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None
        self.state = STARTING
        #: Serializes all traffic on ``sock`` — one frame in flight.
        self.lock = threading.Lock()
        #: Callers queued on / holding :attr:`lock` (the queue-depth gauge).
        self.pending = 0
        #: ``perf_counter`` when the current call started (wedge detector).
        self.busy_since: Optional[float] = None
        self.started_at = 0.0
        self.last_heartbeat = 0.0
        self.restarts = 0
        self.consecutive_failures = 0
        self.restart_times: Deque[float] = deque()
        self.next_restart_at = 0.0
        self.models: List[str] = []
        self.pid: Optional[int] = None

    def to_dict(self) -> dict:
        """Status snapshot for ``/healthz`` and :meth:`WorkerSupervisor.status`."""
        return {
            "worker": self.worker_id,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "pending": self.pending,
            "models": list(self.models),
        }


class WorkerSupervisor:
    """Spawn and babysit N inference worker processes.

    Parameters
    ----------
    models_dir:
        Artifact directory every worker serves from (workers preload it).
    n_workers:
        Pool size.
    worker_faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` (or its
        ``to_dict`` form) shipped to every worker as JSON — the
        ``worker.handle`` kill points (``kill_worker`` / ``hang_worker``
        / ``slow_worker``) fire inside the worker process.  Restarted
        workers get the plan afresh.
    heartbeat_interval / heartbeat_timeout:
        Monitor tick period and the budget an idle worker has to answer
        a ping before being marked suspect.
    wedge_timeout:
        How long one call may hold a worker before the monitor SIGKILLs
        it as wedged.
    restart_backoff_base / restart_backoff_cap:
        Exponential-backoff knobs between a death and its respawn.
    restart_budget / restart_window_s:
        More than ``restart_budget`` restarts inside the window marks the
        worker failed (no further respawns).
    stable_after_s:
        A worker surviving this long resets its backoff exponent.
    start_timeout:
        Budget for a spawned worker to preload artifacts and send
        ``ready``.
    metrics:
        Optional :class:`~repro.serving.metrics.ServingMetrics` receiving
        ``worker_state`` / ``worker_restarts_total`` / queue-depth gauges.
    """

    def __init__(
        self,
        models_dir: Union[str, Path],
        n_workers: int = 4,
        worker_faults: Optional[Union["FaultPlan", dict]] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        wedge_timeout: float = 5.0,
        restart_backoff_base: float = 0.1,
        restart_backoff_cap: float = 5.0,
        restart_budget: int = 5,
        restart_window_s: float = 60.0,
        stable_after_s: float = 5.0,
        start_timeout: float = 30.0,
        metrics: Optional["ServingMetrics"] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.models_dir = Path(models_dir)
        if not self.models_dir.is_dir():
            raise ValueError(f"model directory {self.models_dir} does not exist")
        if worker_faults is not None and not isinstance(worker_faults, dict):
            worker_faults = worker_faults.to_dict()
        self.worker_faults = worker_faults
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.wedge_timeout = float(wedge_timeout)
        self.restart_backoff_base = float(restart_backoff_base)
        self.restart_backoff_cap = float(restart_backoff_cap)
        self.restart_budget = int(restart_budget)
        self.restart_window_s = float(restart_window_s)
        self.stable_after_s = float(stable_after_s)
        self.start_timeout = float(start_timeout)
        self.metrics = metrics
        self._handles = [WorkerHandle(i) for i in range(int(n_workers))]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Spawn every worker, wait for all ready frames, start monitoring."""
        if self._started:
            return self
        self._started = True
        # Launch all processes first (they preload in parallel), then
        # collect ready frames — startup cost is max, not sum.
        for handle in self._handles:
            self._spawn(handle)
        for handle in self._handles:
            self._await_ready(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, handle: WorkerHandle) -> None:
        parent_sock, child_sock = socket.socketpair()
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--models-dir", str(self.models_dir),
            "--socket-fd", str(child_sock.fileno()),
            "--worker-id", str(handle.worker_id),
        ]
        if self.worker_faults is not None:
            argv += ["--faults", json.dumps(self.worker_faults)]
        env = dict(os.environ)
        # The worker must import repro from the same tree as this process,
        # venv-installed or PYTHONPATH=src alike.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        handle.proc = subprocess.Popen(
            argv, pass_fds=(child_sock.fileno(),), env=env,
        )
        child_sock.close()
        handle.sock = parent_sock
        handle.pid = handle.proc.pid
        handle.started_at = time.monotonic()
        self._set_state(handle, STARTING)

    def _await_ready(self, handle: WorkerHandle) -> None:
        try:
            header, _ = recv_frame(handle.sock, timeout=self.start_timeout)
            if header.get("op") != "ready":
                raise ProtocolError(f"expected ready frame, got {header}")
        except (ProtocolError, OSError) as exc:
            self._terminate(handle)
            raise RuntimeError(
                f"worker {handle.worker_id} failed to start: {exc}"
            ) from exc
        handle.models = list(header.get("models", []))
        handle.last_heartbeat = time.monotonic()
        self._set_state(handle, READY)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def ready_ids(self) -> List[int]:
        """Worker ids currently accepting traffic."""
        return [h.worker_id for h in self._handles if h.state == READY]

    @property
    def n_workers(self) -> int:
        return len(self._handles)

    def handle(self, worker_id: int) -> WorkerHandle:
        return self._handles[worker_id]

    def call(
        self,
        worker_id: int,
        header: dict,
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Tuple[dict, bytes]:
        """One request/response round trip on ``worker_id``'s channel.

        Raises :class:`WorkerCallError` on any transport failure —
        timeout, reset, short read, or a worker that died mid-call — and
        poisons the channel so the monitor restarts the worker.
        Application-level failures (``ok: false`` frames) are returned to
        the caller untouched; they say nothing about the worker's health.
        """
        handle = self._handles[worker_id]
        if handle.state != READY:
            raise WorkerCallError(
                worker_id, f"not accepting work (state={handle.state})"
            )
        with self._lock:
            handle.pending += 1
            self._gauge_depth(handle)
        try:
            with handle.lock:
                if handle.state != READY or handle.sock is None:
                    raise WorkerCallError(
                        worker_id,
                        f"not accepting work (state={handle.state})",
                    )
                handle.busy_since = time.monotonic()
                try:
                    send_frame(handle.sock, header, payload)
                    return recv_frame(handle.sock, timeout=timeout)
                except (ProtocolError, OSError) as exc:
                    # Channel poisoned: never reuse it.  The monitor will
                    # kill + restart; in-flight siblings are untouched.
                    self._mark_suspect(handle)
                    raise WorkerCallError(
                        worker_id, f"{type(exc).__name__}: {exc}"
                    ) from exc
                finally:
                    handle.busy_since = None
        finally:
            with self._lock:
                handle.pending -= 1
                self._gauge_depth(handle)

    # ------------------------------------------------------------------
    # chaos helpers
    # ------------------------------------------------------------------

    def kill_worker(self, worker_id: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to a worker process (chaos testing); returns its pid."""
        handle = self._handles[worker_id]
        proc = handle.proc
        if proc is None or proc.poll() is not None:
            raise WorkerCallError(worker_id, "no live process to kill")
        os.kill(proc.pid, sig)
        self._wake.set()
        return proc.pid

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.heartbeat_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            now = time.monotonic()
            for handle in self._handles:
                try:
                    self._tick(handle, now)
                except Exception:  # noqa: BLE001 - monitor must survive
                    pass

    def _tick(self, handle: WorkerHandle, now: float) -> None:
        state = handle.state
        if state in (FAILED, STOPPED, STARTING):
            return
        if state == RESTARTING:
            if now >= handle.next_restart_at:
                self._restart(handle)
            return
        # READY or SUSPECT from here on.
        proc = handle.proc
        if proc is None or proc.poll() is not None:
            # Crash detected (SIGKILL, segfault, clean exit — all the same
            # from out here): schedule the backoff respawn.
            self._begin_restart(handle, now, reason="process exited")
            return
        if state == SUSPECT:
            # A poisoned channel: the process may be alive but its stream
            # is unusable.  Kill and respawn.
            self._terminate(handle)
            self._begin_restart(handle, now, reason="suspect channel")
            return
        busy_since = handle.busy_since
        if busy_since is not None:
            if now - busy_since > self.wedge_timeout:
                # Wedged mid-request: alive by waitpid, dead by socket.
                # SIGKILL fails the in-flight caller fast (bulkhead), and
                # the next tick sees the corpse and schedules the respawn.
                self._terminate(handle)
            return
        # Idle: heartbeat when due.
        if now - handle.last_heartbeat < self.heartbeat_interval:
            return
        if not handle.lock.acquire(blocking=False):
            return  # raced a new call; activity is its own liveness proof
        try:
            if handle.state != READY or handle.sock is None:
                return
            try:
                send_frame(handle.sock, {"op": "ping"})
                header, _ = recv_frame(
                    handle.sock, timeout=self.heartbeat_timeout
                )
                if header.get("op") != "pong":
                    raise ProtocolError(f"expected pong, got {header}")
                handle.last_heartbeat = time.monotonic()
            except (ProtocolError, OSError):
                self._mark_suspect(handle)
        finally:
            handle.lock.release()

    def _begin_restart(self, handle: WorkerHandle, now: float, reason: str) -> None:
        self._close_sock(handle)
        if handle.started_at and now - handle.started_at > self.stable_after_s:
            handle.consecutive_failures = 0
        handle.consecutive_failures += 1
        # Budget check over the sliding window.
        window_start = now - self.restart_window_s
        while handle.restart_times and handle.restart_times[0] < window_start:
            handle.restart_times.popleft()
        if len(handle.restart_times) >= self.restart_budget:
            self._set_state(handle, FAILED)
            return
        backoff = min(
            self.restart_backoff_cap,
            self.restart_backoff_base
            * (2.0 ** (handle.consecutive_failures - 1)),
        )
        handle.next_restart_at = now + backoff
        self._set_state(handle, RESTARTING)

    def _restart(self, handle: WorkerHandle) -> None:
        handle.restart_times.append(time.monotonic())
        handle.restarts += 1
        if self.metrics is not None:
            self.metrics.count(worker_restarts_total=1)
        try:
            self._spawn(handle)
            self._await_ready(handle)
        except Exception:  # noqa: BLE001 - a failed start is another failure
            self._begin_restart(
                handle, time.monotonic(), reason="start failed"
            )

    def _mark_suspect(self, handle: WorkerHandle) -> None:
        if handle.state == READY:
            self._set_state(handle, SUSPECT)
        self._wake.set()

    def _terminate(self, handle: WorkerHandle) -> None:
        proc = handle.proc
        if proc is not None and proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._close_sock(handle)

    def _close_sock(self, handle: WorkerHandle) -> None:
        sock = handle.sock
        handle.sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _set_state(self, handle: WorkerHandle, state: str) -> None:
        handle.state = state
        if self.metrics is not None:
            self.metrics.set_gauge(
                "worker_state", str(handle.worker_id), state
            )

    def _gauge_depth(self, handle: WorkerHandle) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                "worker_queue_depth", str(handle.worker_id), handle.pending
            )

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Snapshot for ``/healthz`` and the cluster engine's health()."""
        workers = [h.to_dict() for h in self._handles]
        return {
            "workers": workers,
            "ready": sum(1 for w in workers if w["state"] == READY),
            "failed": sum(1 for w in workers if w["state"] == FAILED),
            "restarts_total": sum(h.restarts for h in self._handles),
        }

    def drain(self, timeout: float = 10.0) -> dict:
        """Gracefully stop every worker; returns per-worker results.

        Ready workers get the ``drain`` op and a chance to acknowledge;
        everything still alive afterwards is killed.  The monitor stops
        first so nothing is restarted behind the drain's back.
        """
        self._stop_monitor()
        report = {}
        deadline = time.monotonic() + max(0.0, float(timeout))
        for handle in self._handles:
            drained = False
            if handle.state == READY and handle.sock is not None:
                budget = max(0.1, deadline - time.monotonic())
                acquired = handle.lock.acquire(timeout=budget)
                try:
                    if acquired and handle.sock is not None:
                        try:
                            send_frame(handle.sock, {"op": "drain"})
                            header, _ = recv_frame(
                                handle.sock,
                                timeout=max(0.1, deadline - time.monotonic()),
                            )
                            drained = bool(header.get("ok"))
                        except (ProtocolError, OSError):
                            drained = False
                finally:
                    if acquired:
                        handle.lock.release()
            report[handle.worker_id] = drained
            self._terminate(handle)
            self._set_state(handle, STOPPED)
        return report

    def stop(self) -> None:
        """Hard stop: kill everything, close every channel."""
        self._stop_monitor()
        for handle in self._handles:
            self._terminate(handle)
            if handle.state != STOPPED:
                self._set_state(handle, STOPPED)

    def _stop_monitor(self) -> None:
        self._stop.set()
        self._wake.set()
        monitor = self._monitor
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=5.0)

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
