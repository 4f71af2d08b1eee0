"""The simulated 3-tier web-service testbed (paper Section 4 substitute).

A from-scratch discrete-event simulation of the paper's workload: an
open-loop Poisson driver, a middle-tier application server with three
configurable thread pools (mfg / web / default) scheduled on a finite
multicore CPU with contention overhead, and a connection-pooled database
tier.  Produces the paper's 4-input / 5-output samples; an analytic
queueing surrogate provides the same interface ~10^4x faster for bulk
sweeps.
"""

from .adaptive import AdaptiveResult, AdaptiveRound, AdaptiveSampler
from .analytic import AnalyticWorkloadModel, erlang_c_wait
from .appserver import AppServer, MachineSpec
from .breakdown import (
    ClassBreakdown,
    LatencyBreakdown,
    StageShare,
    breakdown,
)
from .capacity import CapacityPlanner, CapacityReport, PoolDemand
from .closedloop import ClosedLoopDriver
from .cpu import CpuJob, Execute, MultiCoreCpu
from .database import Database
from .dataset import Dataset
from .des import Delay, Effect, Event, Process, Simulator
from .disturbances import (
    CpuHog,
    DatabaseSlowdown,
    Disturbance,
    TrafficSurge,
)
from .distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    Uniform,
    get_distribution,
)
from .driver import LoadDriver
from .resources import Acquire, Release, Resource
from .rng import StreamRegistry
from .scenarios import SCENARIOS, available_scenarios, scenario
from .sampler import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    full_factorial,
    latin_hypercube,
    random_design,
)
from .service import (
    INPUT_NAMES,
    OUTPUT_NAMES,
    ClassStats,
    ThreeTierWorkload,
    WorkloadConfig,
    WorkloadMetrics,
)
from .timeline import Timeline, timeline_from_transactions
from .transactions import (
    DEFAULT_QUEUE,
    MFG_QUEUE,
    WEB_QUEUE,
    Transaction,
    TransactionClass,
    standard_mix,
)

__all__ = [
    # DES core
    "Simulator",
    "Process",
    "Event",
    "Effect",
    "Delay",
    # resources and CPU
    "Resource",
    "Acquire",
    "Release",
    "MultiCoreCpu",
    "CpuJob",
    "Execute",
    # tiers
    "Database",
    "AppServer",
    "MachineSpec",
    "LoadDriver",
    # transactions
    "TransactionClass",
    "Transaction",
    "standard_mix",
    "scenario",
    "available_scenarios",
    "SCENARIOS",
    "MFG_QUEUE",
    "WEB_QUEUE",
    "DEFAULT_QUEUE",
    # facade
    "ThreeTierWorkload",
    "WorkloadConfig",
    "WorkloadMetrics",
    "ClassStats",
    "INPUT_NAMES",
    "OUTPUT_NAMES",
    # surrogate
    "AnalyticWorkloadModel",
    "erlang_c_wait",
    # sampling
    "ConfigSpace",
    "ParameterRange",
    "full_factorial",
    "random_design",
    "latin_hypercube",
    "SampleCollector",
    "Dataset",
    # planning / alternative drivers
    "CapacityPlanner",
    "CapacityReport",
    "PoolDemand",
    "ClosedLoopDriver",
    # adaptive sampling
    "AdaptiveSampler",
    "AdaptiveResult",
    "AdaptiveRound",
    # disturbances / timelines
    "Disturbance",
    "DatabaseSlowdown",
    "TrafficSurge",
    "CpuHog",
    "Timeline",
    "timeline_from_transactions",
    # diagnostics
    "breakdown",
    "LatencyBreakdown",
    "ClassBreakdown",
    "StageShare",
    # plumbing
    "StreamRegistry",
    "Distribution",
    "Deterministic",
    "Exponential",
    "Erlang",
    "Uniform",
    "LogNormal",
    "Hyperexponential",
    "get_distribution",
]
