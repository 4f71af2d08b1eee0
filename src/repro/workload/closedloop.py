"""Closed-loop load driver: a fixed user population with think times.

The paper's driver injects at a fixed rate (open loop).  Real interactive
populations are *closed*: N users cycle through think -> request -> wait ->
think, so the offered load self-limits when the system slows — the other
canonical load model, provided for studies of how the loop discipline
changes the characterization (open-loop systems show unbounded queues at
saturation; closed-loop systems show response-time growth at bounded
throughput).

The driver reuses the same transaction mix and handler contract as
:class:`~repro.workload.driver.LoadDriver`, so it drops into
:class:`~repro.workload.service.ThreeTierWorkload`-style wiring.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .des import Delay, Simulator
from .distributions import Distribution, Exponential, WeightedChoice
from .transactions import Transaction, TransactionClass, validate_mix

__all__ = ["ClosedLoopDriver"]


class ClosedLoopDriver:
    """``population`` users cycling with think times.

    Parameters
    ----------
    sim:
        The owning simulator.
    classes:
        Transaction mix; each request's class is drawn per cycle.
    population:
        Number of concurrent users (the closed population N).
    think_time:
        Think-time distribution Z; by the interactive response-time law the
        achievable throughput is bounded by ``N / (Z + R)``.
    handler:
        Returns the generator flow for a transaction (an app server's
        ``handle``).  The user waits for the flow to finish before thinking
        again; abandoned transactions end the wait too.
    think_rng, mix_rng:
        Independent random streams.
    """

    def __init__(
        self,
        sim: Simulator,
        classes: Sequence[TransactionClass],
        population: int,
        handler: Callable[[Transaction], object],
        think_rng: np.random.Generator,
        mix_rng: np.random.Generator,
        think_time: Distribution = None,
    ):
        validate_mix(classes)
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        self.sim = sim
        self.classes = list(classes)
        self.population = int(population)
        self.handler = handler
        self.think_time = (
            think_time if think_time is not None else Exponential(mean=0.1)
        )
        self._think_rng = think_rng
        self._mix_rng = mix_rng
        weights = np.array([c.mix_weight for c in self.classes])
        self._mix = WeightedChoice(weights / weights.sum())
        self.transactions: List[Transaction] = []
        self.injected = 0
        self._stopped = False

    def start(self) -> None:
        """Put every user into an initial (staggered) think."""
        for user in range(self.population):
            self.sim.spawn(self._user_loop(user), name=f"user-{user}")

    def stop(self) -> None:
        """Users finish their in-flight request and then retire."""
        self._stopped = True

    def throughput_bound(self, mean_response_time: float) -> float:
        """Interactive response-time law: X <= N / (Z + R)."""
        if mean_response_time < 0:
            raise ValueError("mean_response_time must be non-negative")
        return self.population / (self.think_time.mean() + mean_response_time)

    # ------------------------------------------------------------------

    def _user_loop(self, user: int):
        while not self._stopped:
            yield Delay(self.think_time.sample(self._think_rng))
            if self._stopped:
                return
            index = self._mix.draw(self._mix_rng)
            txn = Transaction(
                txn_class=self.classes[index], arrived_at=self.sim.now
            )
            self.transactions.append(txn)
            self.injected += 1
            # Run the request inline: the user's generator delegates to the
            # server flow and resumes (thinks again) when it finishes.
            yield from self.handler(txn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClosedLoopDriver(population={self.population}, "
            f"injected={self.injected})"
        )
