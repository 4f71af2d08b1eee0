"""Graceful degradation: surrogate fallbacks, load shedding, health states.

When the MLP path fails — a corrupt artifact, a tripped circuit breaker,
an overloaded admission queue — the service should degrade, not die.  The
queueing-model literature reaches for the same trick (a cheap analytic
model backing up the learned one, e.g. *Learning Queuing Networks by
Recurrent Neural Networks*, arXiv:2002.10788); here the backup is a linear
least-squares surrogate distilled from the MLP itself at registration
time, so it exists even when the original training data is long gone.

Two pieces:

* :func:`fit_linear_surrogate` — probe a loaded
  :class:`~repro.models.neural.NeuralWorkloadModel` over its standardized
  input region and fit a :class:`~repro.models.linear.LinearWorkloadModel`
  to the probes (a few milliseconds, no training data needed).  The
  serving front half (:class:`~repro.serving.engine.Engine`) answers from
  it, flagged *degraded*, when the model path fails.
* :class:`HealthMonitor` — the ``healthy`` / ``degraded`` / ``unhealthy``
  state machine surfaced on ``/healthz``, with a transition log.

Plus :class:`OverloadedError`, the exception the HTTP layer maps to
``503`` + ``Retry-After`` when load shedding kicks in.
"""

from __future__ import annotations

import threading
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..models.linear import LinearWorkloadModel
from ..preprocessing.scalers import StandardScaler

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
    "OverloadedError",
    "fit_linear_surrogate",
    "HealthMonitor",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"


class OverloadedError(RuntimeError):
    """The admission queue is full; the request was shed."""

    def __init__(self, retry_after: float = 1.0, message: Optional[str] = None):
        self.retry_after = max(0.0, float(retry_after))
        super().__init__(
            message
            or f"server overloaded; retry after {self.retry_after:.2f}s"
        )


def fit_linear_surrogate(
    model,
    n_probes: int = 64,
    spread: float = 2.0,
    ridge: float = 1e-6,
    seed: int = 0,
) -> LinearWorkloadModel:
    """Distill ``model`` into a linear surrogate by probing it.

    The probe region comes from the model's own input scaler: a fitted
    :class:`~repro.preprocessing.scalers.StandardScaler` remembers the
    training mean and spread, so ``mean ± spread * scale`` probes exactly
    the region the MLP was trained on.  Models without standardization
    statistics are probed on the unit cube around the origin.

    Parameters
    ----------
    model:
        A fitted model exposing ``predict`` (and ideally ``x_scaler_``).
    n_probes:
        Probe points; 64 four-dimensional probes fit in well under a
        millisecond of ``lstsq``.
    spread:
        Half-width of the probe region in scaler standard deviations.
    ridge:
        Tiny L2 keep-well-posed term for the closed-form solve.
    seed:
        Probe-placement seed (deterministic surrogates).
    """
    if n_probes < 2:
        raise ValueError(f"n_probes must be >= 2, got {n_probes}")
    scaler = getattr(model, "x_scaler_", None)
    n_inputs = getattr(model, "n_inputs", None) or getattr(model, "_n_inputs", None)
    if isinstance(scaler, StandardScaler) and scaler.mean_ is not None:
        mean = np.asarray(scaler.mean_, dtype=float)
        scale = np.asarray(scaler.scale_, dtype=float)
        n_inputs = mean.shape[0]
    else:
        if n_inputs is None:
            raise ValueError(
                "cannot infer the model's input dimension for probing"
            )
        mean = np.zeros(int(n_inputs))
        scale = np.ones(int(n_inputs))
    rng = np.random.default_rng(seed)
    probes = mean + scale * rng.uniform(
        -spread, spread, size=(int(n_probes), int(n_inputs))
    )
    return LinearWorkloadModel(ridge=ridge).fit(probes, model.predict(probes))


class HealthMonitor:
    """The ``healthy → degraded → unhealthy`` state machine for ``/healthz``.

    State is *derived*, not accumulated: every :meth:`update` recomputes it
    from the inputs (breaker states, shedding, servability), so the machine
    recovers the moment its inputs do — no decay timers to tune and nothing
    to drift in tests.  Transitions are logged for post-mortems.
    """

    def __init__(self, max_transitions: int = 64):
        self._status = HEALTHY
        self._transitions: List[Tuple[str, str, str]] = []
        self._max_transitions = int(max_transitions)
        self._lock = threading.Lock()

    @property
    def status(self) -> str:
        """The most recently computed state."""
        return self._status

    @property
    def transitions(self) -> List[Tuple[str, str, str]]:
        """Recent ``(old, new, reason)`` transitions, oldest first."""
        with self._lock:
            return list(self._transitions)

    def update(
        self,
        breaker_states: Mapping[str, str],
        shedding: bool = False,
        servable: bool = True,
    ) -> str:
        """Recompute the state from current conditions; returns it."""
        if not servable:
            status, reason = UNHEALTHY, "no servable prediction path"
        elif shedding:
            status, reason = DEGRADED, "load shedding active"
        elif any(state != "closed" for state in breaker_states.values()):
            tripped = sorted(
                name
                for name, state in breaker_states.items()
                if state != "closed"
            )
            status, reason = DEGRADED, f"breaker not closed: {tripped}"
        else:
            status, reason = HEALTHY, "all paths nominal"
        with self._lock:
            if status != self._status:
                self._transitions.append((self._status, status, reason))
                del self._transitions[: -self._max_transitions]
                self._status = status
        return status

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HealthMonitor(status={self._status!r})"
