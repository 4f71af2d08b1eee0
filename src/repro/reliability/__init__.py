"""Reliability toolkit: retries, circuit breaking, degradation, fault injection.

The serving PR made the paper's models a long-running service; this package
makes that service survivable.  :mod:`~repro.reliability.policies` holds the
control-flow primitives (:class:`Deadline`, :class:`RetryPolicy`,
:class:`CircuitBreaker`), :mod:`~repro.reliability.degradation` the
linear surrogate fit, load-shedding error, and the
``healthy/degraded/unhealthy`` :class:`HealthMonitor`, and
:mod:`~repro.reliability.faults` a deterministic :class:`FaultPlan` harness
so every one of those paths is exercised by tests instead of outages.
"""

from .degradation import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthMonitor,
    OverloadedError,
    fit_linear_surrogate,
)
from .faults import (
    SITE_BATCHER_FLUSH,
    SITE_DRIVER_INJECT,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_COMPACT,
    SITE_REGISTRY_LOAD,
    SITE_REGISTRY_STAT,
    SITE_STORE_PROMOTE,
    SITE_STORE_SAVE,
    SITE_WORKER_HANDLE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    SimulatedCrash,
)
from .policies import (
    BREAKER_STATES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BREAKER_STATES",
    "HealthMonitor",
    "OverloadedError",
    "fit_linear_surrogate",
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "SimulatedCrash",
    "SITE_REGISTRY_STAT",
    "SITE_REGISTRY_LOAD",
    "SITE_BATCHER_FLUSH",
    "SITE_DRIVER_INJECT",
    "SITE_STORE_SAVE",
    "SITE_STORE_PROMOTE",
    "SITE_JOURNAL_APPEND",
    "SITE_JOURNAL_COMPACT",
    "SITE_WORKER_HANDLE",
]
