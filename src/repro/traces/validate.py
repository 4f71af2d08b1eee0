"""Validation: replay the emitted scenario and compare sim-vs-trace moments.

The fourth factory stage closes the loop.  The emitted family is replayed
through the simulator (:func:`repro.traces.replay.replay_family`) for the
trace's own horizon and the generated process is compared with the
original trace on the moments that matter for workload characterization:

* arrival **rate** (gating, default 10% tolerance),
* **p95** service time (gating, default 10%),
* **p50** service time (gating, looser),
* inter-arrival **CV** (reported, non-gating — it measures burstiness the
  fitted renewal process can only approximate).

The pass/fail verdict is deterministic for a fixed seed — the acceptance
contract of ``repro ingest validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .etl import IngestedTrace
from .family import ScenarioFamily
from .replay import ReplayResult, replay_family

__all__ = ["TraceMoments", "MomentCheck", "ValidationReport", "validate_family"]


@dataclass(frozen=True)
class TraceMoments:
    """The compared moments of one arrival/service process."""

    rate: float
    interarrival_cv: float
    service_p50: float
    service_p95: float
    n_arrivals: int

    @classmethod
    def from_trace(cls, trace: IngestedTrace) -> "TraceMoments":
        gaps = trace.interarrivals()
        gaps = gaps[gaps > 0]
        # Quantized timestamps (coarse log stamps) make the gap-level CV
        # an artifact of the stamp resolution: report it as missing.
        if trace.zero_gap_fraction() > 0.25 or gaps.size < 2 or gaps.mean() <= 0:
            cv = float("nan")
        else:
            cv = float(gaps.std() / gaps.mean())
        services = trace.service_samples
        return cls(
            rate=trace.mean_rate(),
            interarrival_cv=cv,
            service_p50=(
                float(np.percentile(services, 50)) if services.size else float("nan")
            ),
            service_p95=(
                float(np.percentile(services, 95)) if services.size else float("nan")
            ),
            n_arrivals=len(trace),
        )

    @classmethod
    def from_replay(cls, replay: ReplayResult) -> "TraceMoments":
        return cls(
            rate=replay.mean_rate(),
            interarrival_cv=replay.interarrival_cv(),
            service_p50=replay.service_percentile(50),
            service_p95=replay.service_percentile(95),
            n_arrivals=replay.n_arrivals,
        )


@dataclass
class MomentCheck:
    """One compared moment with its verdict."""

    name: str
    trace: float
    sim: float
    tolerance: float
    #: Non-gating checks are reported but never fail the run.
    gating: bool = True

    @property
    def rel_error(self) -> float:
        """``|sim - trace| / |trace|`` (NaN when either side is missing)."""
        if not np.isfinite(self.trace) or not np.isfinite(self.sim):
            return float("nan")
        denominator = max(abs(self.trace), 1e-12)
        return abs(self.sim - self.trace) / denominator

    @property
    def passed(self) -> bool:
        """Within tolerance; a moment missing on *both* sides passes
        vacuously (a trace without durations has no service moments),
        missing on one side fails."""
        if not np.isfinite(self.trace) and not np.isfinite(self.sim):
            return True
        return np.isfinite(self.rel_error) and self.rel_error <= self.tolerance

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        if not self.gating:
            status += " (informational)"
        return (
            f"{self.name:<16} trace={self.trace:#.4g}  sim={self.sim:#.4g}  "
            f"err={100 * self.rel_error:.1f}%  tol={100 * self.tolerance:.0f}%"
            f"  [{status}]"
        )


@dataclass
class ValidationReport:
    """The sim-vs-trace verdict for one emitted family."""

    family: str
    seed: int
    checks: List[MomentCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every *gating* check within tolerance."""
        return all(c.passed for c in self.checks if c.gating)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "trace": c.trace,
                    "sim": c.sim,
                    "rel_error": c.rel_error,
                    "tolerance": c.tolerance,
                    "gating": c.gating,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"validation of scenario family {self.family!r} (seed {self.seed})"
        ]
        lines += ["  " + check.describe() for check in self.checks]
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate_family(
    family: ScenarioFamily,
    trace: IngestedTrace,
    seed: int = 0,
    tolerance: float = 0.10,
    p50_tolerance: Optional[float] = None,
    replay: Optional[ReplayResult] = None,
) -> ValidationReport:
    """Replay ``family`` and compare it against the trace it came from.

    ``tolerance`` gates the arrival rate and the p95 service time;
    ``p50_tolerance`` (default ``1.5 x tolerance``) gates the median.
    Pass a precomputed ``replay`` to validate an existing run instead of
    generating a fresh one.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if p50_tolerance is None:
        p50_tolerance = 1.5 * tolerance
    if replay is None:
        horizon = trace.duration if trace.duration > 0 else None
        replay = replay_family(family, seed=seed, duration=horizon)
    want = TraceMoments.from_trace(trace)
    got = TraceMoments.from_replay(replay)
    checks = [
        MomentCheck("arrival_rate", want.rate, got.rate, tolerance),
        MomentCheck(
            "service_p95", want.service_p95, got.service_p95, tolerance
        ),
        MomentCheck(
            "service_p50", want.service_p50, got.service_p50, p50_tolerance
        ),
    ]
    if np.isfinite(want.interarrival_cv):
        checks.append(
            MomentCheck(
                "interarrival_cv",
                want.interarrival_cv,
                got.interarrival_cv,
                0.5,
                gating=False,
            )
        )
    return ValidationReport(family=family.name, seed=int(seed), checks=checks)
