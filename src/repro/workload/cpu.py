"""Multicore CPU with round-robin scheduling and context-switch overhead.

This is the mechanism behind the paper's central non-linearity.  Application
threads do not run for free: a thread's CPU burst is executed on one of
``cores`` cores in round-robin quanta, and every dispatch pays a context
switch whose cost grows with the number of runnable threads beyond the core
count (cache/TLB pollution: the more working sets a core multiplexes, the
colder each one runs).  Consequences, none of which are curve-fit:

* **undersized thread pools** leave cores idle while requests queue at the
  pool — response time rises (the left wall of the paper's valleys);
* **oversized pools** admit more runnable threads than cores, so every
  quantum pays inflated switch costs — service times stretch and throughput
  sags (the right wall of the valleys and the downhill side of the hills).

Processes yield :class:`Execute` to burn CPU; the scheduler resumes them
when their burst has received its full service.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .des import Effect, Process, Simulator

__all__ = ["CpuJob", "MultiCoreCpu", "Execute"]

#: Remaining-work threshold below which a job is considered finished.
_EPSILON = 1e-12


class CpuJob:
    """One CPU burst awaiting (or receiving) service."""

    __slots__ = ("process", "remaining", "overhead_paid", "dispatches")

    def __init__(self, process: Process, work: float):
        self.process = process
        self.remaining = float(work)
        self.overhead_paid = 0.0
        self.dispatches = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CpuJob({self.process.name}, remaining={self.remaining:.6f})"


class MultiCoreCpu:
    """``cores`` identical cores sharing one round-robin ready queue.

    Parameters
    ----------
    sim:
        The owning simulator.
    cores:
        Number of cores (Table 1's machine models as 8).
    quantum:
        Maximum CPU time a job receives per dispatch.
    switch_cost:
        Base context-switch cost paid at every dispatch.
    pollution_factor:
        Additional switch cost *per runnable thread in excess of the core
        count*, as a multiple of ``switch_cost``.  Zero disables the
        contention non-linearity (used by the ablation benches).
    excess_cap:
        Upper bound on the excess-runnable count that inflates the switch
        cost.  Cache/TLB pollution saturates once every core's cache is
        fully thrashed, so the penalty is bounded; this also keeps extreme
        misconfigurations degrading gracefully instead of running away.
    """

    def __init__(
        self,
        sim: Simulator,
        cores: int = 8,
        quantum: float = 0.020,
        switch_cost: float = 0.0002,
        pollution_factor: float = 0.25,
        excess_cap: int = 10,
    ):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if switch_cost < 0:
            raise ValueError(f"switch_cost must be non-negative, got {switch_cost}")
        if pollution_factor < 0:
            raise ValueError(
                f"pollution_factor must be non-negative, got {pollution_factor}"
            )
        if excess_cap < 0:
            raise ValueError(f"excess_cap must be non-negative, got {excess_cap}")
        self.sim = sim
        self.cores = int(cores)
        self.quantum = float(quantum)
        self.switch_cost = float(switch_cost)
        self.pollution_factor = float(pollution_factor)
        self.excess_cap = int(excess_cap)
        self.ready: Deque[CpuJob] = deque()
        self.running = 0
        # statistics
        self.total_dispatches = 0
        self.total_overhead = 0.0
        self.total_work_done = 0.0
        self._busy_integral = 0.0
        self._last_change = sim.now

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _advance_integral(self) -> None:
        elapsed = self.sim.now - self._last_change
        if elapsed > 0:
            self._busy_integral += elapsed * self.running
        self._last_change = self.sim.now

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Time-averaged fraction of cores occupied (work plus overhead)."""
        self._advance_integral()
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (horizon * self.cores)

    @property
    def runnable(self) -> int:
        """Jobs on a core plus jobs in the ready queue."""
        return self.running + len(self.ready)

    def dispatch_overhead(self, runnable: int) -> float:
        """Context-switch cost for a dispatch with ``runnable`` total jobs.

        Memory-bandwidth and cache contention begin before every core has a
        private queue, so the pollution term engages once the runnable count
        exceeds half the cores and saturates at ``excess_cap`` beyond that.
        """
        threshold = self.cores // 2
        excess = min(max(0, runnable - threshold), self.excess_cap)
        return self.switch_cost * (1.0 + self.pollution_factor * excess)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def submit(self, job: CpuJob) -> None:
        """Add a burst to the ready queue and fill any idle cores."""
        if not job.remaining >= 0:
            raise ValueError(f"work must be non-negative, got {job.remaining}")
        if job.remaining <= _EPSILON:
            # Zero-length burst: complete without occupying a core.
            self.sim.schedule(0.0, job.process.resume)
            return
        self.ready.append(job)
        self._fill_cores()

    def _fill_cores(self) -> None:
        while self.running < self.cores and self.ready:
            job = self.ready.popleft()
            self._advance_integral()
            self.running += 1
            overhead = self.dispatch_overhead(self.runnable)
            time_slice = min(self.quantum, job.remaining)
            job.dispatches += 1
            job.overhead_paid += overhead
            self.total_dispatches += 1
            self.total_overhead += overhead
            self.sim.schedule(
                overhead + time_slice,
                lambda job=job, time_slice=time_slice: self._slice_done(
                    job, time_slice
                ),
            )

    def _slice_done(self, job: CpuJob, time_slice: float) -> None:
        self._advance_integral()
        self.running -= 1
        job.remaining -= time_slice
        self.total_work_done += time_slice
        if job.remaining <= _EPSILON:
            self.sim.schedule(0.0, job.process.resume)
        else:
            self.ready.append(job)
        self._fill_cores()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiCoreCpu(cores={self.cores}, running={self.running}, "
            f"ready={len(self.ready)})"
        )


class Execute(Effect):
    """Yielded by a process to consume ``work`` seconds of CPU time.

    The process resumes once the scheduler has granted the burst its full
    service, which takes at least ``work`` wall-clock time and more under
    contention.
    """

    def __init__(self, cpu: MultiCoreCpu, work: float):
        if not work >= 0:
            raise ValueError(f"work must be non-negative, got {work}")
        self.cpu = cpu
        self.work = float(work)

    def apply(self, sim, process):
        self.cpu.submit(CpuJob(process, self.work))
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Execute(work={self.work})"
