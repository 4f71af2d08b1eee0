"""The load driver (injection tier).

"The workload is composed of a driver to inject the load to the system"
(Section 4); the driver machine "is not CPU-bound", so we model it as an
ideal open-loop source: transactions arrive at the configured *injection
rate* — the paper's fourth input parameter — irrespective of how the system
under test is coping (no client-side back-pressure).  Arrivals come in
geometric **batches** (a page view issues several requests at once), which
makes admission depth matter: a larger thread pool swallows whole batches
into concurrent execution, where an exactly-sized pool paces them.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .des import Simulator
from .distributions import Distribution, Geometric, WeightedChoice
from .transactions import Transaction, TransactionClass, validate_mix

__all__ = ["LoadDriver"]


class LoadDriver:
    """Open-loop Poisson injector over a transaction mix.

    Parameters
    ----------
    sim:
        The owning simulator.
    classes:
        Transaction mix; weights must sum to 1.
    injection_rate:
        Total arrivals per second across all classes.
    handler:
        Called with each new :class:`Transaction`; must return the generator
        flow to spawn (normally ``app_server.handle``).
    arrival_rng, mix_rng:
        Independent streams for inter-arrival gaps and class selection, so
        the arrival point process is identical across configurations (common
        random numbers).
    batch_size:
        Distribution of transactions per arrival batch for the *web-facing*
        classes (a page view issues several requests at once); the
        inter-batch gap is scaled so the transaction rate matches the mix.
        Background classes (``has_web_stage=False``) arrive as a smooth
        Poisson stream — they are machine-paced, not click-paced.  ``None``
        uses the default geometric batches with mean 2.
    fault_hook:
        Optional zero-argument callable fired before every spawned
        transaction — the driver's fault-injection site (see
        :meth:`repro.reliability.faults.FaultPlan.hook`).  An ``error``
        fault raised here models the injection tier itself failing.
    """

    def __init__(
        self,
        sim: Simulator,
        classes: Sequence[TransactionClass],
        injection_rate: float,
        handler: Callable[[Transaction], object],
        arrival_rng: np.random.Generator,
        mix_rng: np.random.Generator,
        batch_size: Distribution = None,
        fault_hook: Callable[[], None] = None,
    ):
        validate_mix(classes)
        if injection_rate <= 0:
            raise ValueError(
                f"injection_rate must be positive, got {injection_rate}"
            )
        self.sim = sim
        self.classes = list(classes)
        self.injection_rate = float(injection_rate)
        self.handler = handler
        self._arrival_rng = arrival_rng
        self._mix_rng = mix_rng
        self.batch_size = batch_size if batch_size is not None else Geometric(0.5)
        self.fault_hook = fault_hook
        self._web_classes = [c for c in self.classes if c.has_web_stage]
        self._background_classes = [
            c for c in self.classes if not c.has_web_stage
        ]
        web_weights = np.array([c.mix_weight for c in self._web_classes])
        self._web_share = float(web_weights.sum())
        self._web_choice = (
            WeightedChoice(web_weights / web_weights.sum())
            if web_weights.size
            else None
        )
        self.transactions: List[Transaction] = []
        self.injected = 0
        self._stopped = False
        #: Multiplier on the injection rate; disturbances (traffic surges)
        #: raise it temporarily.
        self.rate_multiplier = 1.0

    def start(self) -> None:
        """Schedule the first arrival of each stream."""
        if self._web_classes:
            self._schedule_web_batch()
        for cls in self._background_classes:
            self._schedule_background(cls)

    def stop(self) -> None:
        """Stop injecting new transactions (in-flight ones continue)."""
        self._stopped = True

    def _spawn(self, cls: TransactionClass) -> None:
        if self.fault_hook is not None:
            self.fault_hook()
        txn = Transaction(txn_class=cls, arrived_at=self.sim.now)
        self.transactions.append(txn)
        self.injected += 1
        self.sim.spawn(
            self.handler(txn), name=f"txn-{self.injected}-{cls.name}"
        )

    # -------- web-facing stream: Poisson batches --------

    def _schedule_web_batch(self) -> None:
        txn_rate = self.injection_rate * self._web_share * self.rate_multiplier
        batch_rate = txn_rate / self.batch_size.mean()
        gap = self._arrival_rng.exponential(1.0 / batch_rate)
        self.sim.schedule(gap, self._inject_web_batch)

    def _inject_web_batch(self) -> None:
        if self._stopped:
            return
        count = max(1, int(round(self.batch_size.sample(self._arrival_rng))))
        for _ in range(count):
            index = self._web_choice.draw(self._mix_rng)
            self._spawn(self._web_classes[index])
        self._schedule_web_batch()

    # -------- background streams: smooth Poisson per class --------

    def _schedule_background(self, cls: TransactionClass) -> None:
        rate = self.injection_rate * cls.mix_weight * self.rate_multiplier
        gap = self._arrival_rng.exponential(1.0 / rate)
        self.sim.schedule(gap, lambda cls=cls: self._inject_background(cls))

    def _inject_background(self, cls: TransactionClass) -> None:
        if self._stopped:
            return
        self._spawn(cls)
        self._schedule_background(cls)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LoadDriver(rate={self.injection_rate}, injected={self.injected})"
        )
