"""Trace-driven scenario factory: ETL -> fit -> emit -> validate.

Every workload the system previously trained, served, tuned or
chaos-tested against was synthetic.  This package ingests *real* request
logs (Common Log Format access logs, CSV job traces), fits arrival and
service distributions against the simulator's own families with
goodness-of-fit diagnostics, compiles the result into a named, replayable
:class:`~repro.traces.family.ScenarioFamily` — registered alongside the
hand-written scenarios, with the piecewise-window time-varying arrival
profile synthetic scenarios lack — and validates the emitted scenario by
replaying it through the simulator and comparing sim-vs-trace moments.

``repro ingest`` is the CLI; ``ObservationLog.export_trace`` closes the
loop by dumping captured live traffic back into the ingestible format.
"""

from .etl import (
    CSV_HEADER,
    IngestStats,
    IngestedTrace,
    TraceRecord,
    TraceWindow,
    ingest,
    iter_clf,
    iter_csv,
    parse_clf_line,
)
from .family import RateSchedule, RateStep, ScenarioFamily, emit_family
from .fit import (
    FAMILIES,
    FitResult,
    TraceFit,
    WindowFit,
    build_distribution,
    exponentiality,
    fit_best,
    fit_family,
    fit_trace,
    ks_statistic,
    ks_threshold,
)
from .replay import (
    ReplayResult,
    replay_family,
    run_three_tier,
    trace_shaped_requests,
)
from .synthetic import (
    SyntheticTraceSpec,
    TracePhase,
    default_sample_spec,
    generate_records,
    generate_synthetic_trace,
)
from .validate import (
    MomentCheck,
    TraceMoments,
    ValidationReport,
    validate_family,
)

__all__ = [
    # etl
    "TraceRecord",
    "IngestStats",
    "TraceWindow",
    "IngestedTrace",
    "ingest",
    "iter_clf",
    "iter_csv",
    "parse_clf_line",
    "CSV_HEADER",
    # fit
    "FAMILIES",
    "FitResult",
    "WindowFit",
    "TraceFit",
    "fit_family",
    "fit_best",
    "fit_trace",
    "build_distribution",
    "ks_statistic",
    "ks_threshold",
    "exponentiality",
    # emit
    "ScenarioFamily",
    "RateSchedule",
    "RateStep",
    "emit_family",
    # replay
    "ReplayResult",
    "replay_family",
    "run_three_tier",
    "trace_shaped_requests",
    # validate
    "TraceMoments",
    "MomentCheck",
    "ValidationReport",
    "validate_family",
    # synthetic
    "TracePhase",
    "SyntheticTraceSpec",
    "default_sample_spec",
    "generate_records",
    "generate_synthetic_trace",
]
