"""Discrete-event simulation core.

A tiny process-oriented DES engine in the style of SimPy, built from scratch:

* the :class:`Simulator` owns a binary-heap event queue and the clock;
* a :class:`Process` wraps a Python generator that *yields effects*
  (:class:`Delay`, :class:`~repro.workload.resources.Acquire`, ...) and is
  resumed by the engine when each effect completes;
* an :class:`Effect` knows how to arrange its own completion — immediate
  effects resume the process synchronously, waiting effects park it until a
  resource or timer fires.

Determinism: the heap holds ``(time, seq, event)`` tuples, where ``seq`` is a
unique insertion counter, so events at equal timestamps run in insertion
order, the comparison never reaches the :class:`Event`, and runs are exactly
reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator, Optional, Tuple

__all__ = ["Effect", "Delay", "Event", "Process", "Simulator"]


class Effect:
    """Something a process can yield to the engine.

    ``apply`` must either resume the process later (returning ``None``) or
    return ``(True, value)`` to indicate immediate completion with ``value``
    as the yield-expression result.
    """

    def apply(
        self, sim: "Simulator", process: "Process"
    ) -> Optional[Tuple[bool, object]]:
        raise NotImplementedError


class Delay(Effect):
    """Suspend the process for a fixed duration of simulated time."""

    def __init__(self, duration: float):
        if not duration >= 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.duration = float(duration)

    def apply(self, sim, process):
        sim.schedule(self.duration, process.resume)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Delay({self.duration})"


class Event:
    """A scheduled callback; cancellable."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (the heap entry is skipped)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{flag})"


class Process:
    """A generator-driven simulation process.

    The generator yields :class:`Effect` instances; the value of each yield
    expression is whatever the effect completes with (e.g. nothing for a
    delay).  When the generator returns, the process is finished and its
    optional ``on_complete`` callback fires.
    """

    _ids = itertools.count()

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Effect, object, None],
        name: str = "",
        on_complete: Optional[Callable[["Process"], None]] = None,
    ):
        self.sim = sim
        self.generator = generator
        self.pid = next(Process._ids)
        self.name = name or f"process-{self.pid}"
        self.on_complete = on_complete
        self.finished = False

    def resume(self, value: object = None) -> None:
        """Advance the generator, dispatching effects until one waits."""
        if self.finished:
            raise RuntimeError(f"{self.name} resumed after finishing")
        while True:
            try:
                effect = self.generator.send(value)
            except StopIteration:
                self.finished = True
                if self.on_complete is not None:
                    self.on_complete(self)
                return
            if not isinstance(effect, Effect):
                raise TypeError(
                    f"{self.name} yielded {effect!r}, which is not an Effect"
                )
            outcome = effect.apply(self.sim, self)
            if outcome is None:
                return  # parked; the effect will call resume() later
            _, value = outcome  # immediate effect: feed result back in

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.finished else "active"
        return f"Process({self.name}, {state})"


class Simulator:
    """Event loop: a clock plus a heap of ``(time, seq, event)`` entries."""

    def __init__(self):
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self.events_executed = 0
        self.processes_spawned = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` simulated time units."""
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def spawn(
        self,
        generator: Generator[Effect, object, None],
        name: str = "",
        on_complete: Optional[Callable[[Process], None]] = None,
    ) -> Process:
        """Create a process and start it at the current time."""
        process = Process(self, generator, name=name, on_complete=on_complete)
        self.processes_spawned += 1
        self.schedule(0.0, process.resume)
        return process

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if time < self.now:
                raise RuntimeError(f"event at t={time} is before now={self.now}")
            self.now = time
            self.events_executed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Execute events up to and including ``end_time``.

        The clock finishes at exactly ``end_time`` even if the queue empties
        earlier, so measurement windows are well defined.
        """
        if end_time < self.now:
            raise ValueError(
                f"end_time {end_time} is before current time {self.now}"
            )
        while self._heap:
            time, _, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if time > end_time:
                break
            self.step()
        self.now = end_time

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the event queue; guards against runaway loops."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise RuntimeError(
                    f"exceeded max_events={max_events}; "
                    "likely an unintended infinite event loop"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(now={self.now}, pending={self.pending}, "
            f"executed={self.events_executed})"
        )
