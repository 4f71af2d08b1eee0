"""The discrete-event engine: clock, ordering, processes, effects."""

import numpy as np
import pytest

from repro.workload.cpu import CpuJob, Execute, MultiCoreCpu
from repro.workload.des import Delay, Effect, Process, Simulator

NAN = float("nan")


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("cancelled"))
        sim.schedule(2.0, lambda: log.append("kept"))
        event.cancel()
        sim.run()
        assert log == ["kept"]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert log == [1.0, 2.0, 3.0]


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run_until(2.0)
        assert log == [1.0, 2.0]
        assert sim.now == 2.0

    def test_clock_lands_on_horizon_even_when_idle(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_backwards_horizon_rejected(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_remaining_events_still_pending(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run_until(5.0)
        assert sim.pending == 1


class TestRunawayGuard:
    def test_run_raises_on_infinite_loop(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)


class TestProcesses:
    def test_generator_delay_sequence(self):
        sim = Simulator()
        log = []

        def flow():
            log.append(("start", sim.now))
            yield Delay(2.0)
            log.append(("middle", sim.now))
            yield Delay(3.0)
            log.append(("end", sim.now))

        sim.spawn(flow())
        sim.run()
        assert log == [("start", 0.0), ("middle", 2.0), ("end", 5.0)]

    def test_on_complete_callback(self):
        sim = Simulator()
        finished = []

        def flow():
            yield Delay(1.0)

        sim.spawn(flow(), on_complete=lambda p: finished.append(p.name))
        sim.run()
        assert len(finished) == 1

    def test_yielding_non_effect_raises(self):
        sim = Simulator()

        def bad():
            yield "not-an-effect"

        sim.spawn(bad())
        with pytest.raises(TypeError, match="not an Effect"):
            sim.run()

    def test_resume_after_finish_raises(self):
        sim = Simulator()

        def flow():
            yield Delay(0.0)

        process = sim.spawn(flow())
        sim.run()
        assert process.finished
        with pytest.raises(RuntimeError):
            process.resume()

    def test_immediate_effects_resume_synchronously(self):
        class Instant(Effect):
            def apply(self, sim, process):
                return (True, "value")

        sim = Simulator()
        received = []

        def flow():
            received.append((yield Instant()))

        sim.spawn(flow())
        sim.run()
        assert received == ["value"]

    def test_many_concurrent_processes(self):
        sim = Simulator()
        done = []

        def flow(i):
            yield Delay(float(i % 5))
            done.append(i)

        for i in range(100):
            sim.spawn(flow(i))
        sim.run()
        assert len(done) == 100
        assert sim.processes_spawned == 100

    def test_negative_delay_effect_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Simulator().schedule(NAN, lambda: None),
        lambda: Delay(NAN),
        lambda: Execute(MultiCoreCpu(Simulator()), NAN),
        lambda: MultiCoreCpu(Simulator()).submit(CpuJob(None, NAN)),
    ],
    ids=["schedule", "delay", "execute", "cpu-submit"],
)
def test_nan_duration_rejected(make):
    """NaN passes a ``< 0`` guard: a callback would run at ``now == nan``
    in an insertion-dependent place (NaN is the one float that breaks the
    ``(time, seq)`` heap order), and a NaN burst would hold a core forever."""
    with pytest.raises(ValueError, match="must be non-negative"):
        make()
