"""Trace-factory performance floors: ETL throughput and validation latency.

The factory's two interactive paths carry explicit cost ceilings:

1. **ETL** — ``ingest()`` must stream at >= 100k lines/s on the canonical
   CSV format (a day-long access log at 100 req/s is ~8.6M lines; below
   this floor interactive use stops being interactive);
2. **validation** — the full ``repro ingest validate`` verdict on the
   bundled sample (fit + emit + generative replay + moment comparison)
   must land in under a second, so it can gate CI and pre-deploy checks.

Both are measured with ``time.perf_counter`` over the real code path
(best of three for the ETL floor, single shot for the verdict — it is
end-to-end by design), and asserted, so the perf contract fails loudly
on regression.
"""

import time
from pathlib import Path

from conftest import once
from repro.traces import (
    emit_family,
    fit_trace,
    ingest,
    validate_family,
)
from repro.traces.synthetic import (
    SyntheticTraceSpec,
    TracePhase,
    generate_synthetic_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE = REPO_ROOT / "data" / "sample_trace.csv"

MIN_ETL_LINES_PER_S = 100_000
MAX_VALIDATE_SECONDS = 1.0


def _big_trace(tmp_path: Path) -> Path:
    """~120k-line CSV trace (600s at 200 req/s, two classes)."""
    spec = SyntheticTraceSpec(
        phases=[TracePhase(300.0, 180.0), TracePhase(300.0, 220.0)],
        classes=[("browse", 0.7, 1.0), ("checkout", 0.3, 1.5)],
        seed=1234,
    )
    return generate_synthetic_trace(tmp_path / "big.csv", spec)


def test_etl_throughput_floor(benchmark, tmp_path):
    path = _big_trace(tmp_path)
    n_lines = sum(1 for _ in path.open())
    assert n_lines >= 100_000

    def run():
        best = float("inf")
        trace = None
        for _ in range(3):
            start = time.perf_counter()
            trace = ingest(path)
            best = min(best, time.perf_counter() - start)
        return trace, best

    trace, best = once(benchmark, run)
    assert len(trace) == n_lines - 1  # every data line parsed, header not
    rate = n_lines / best
    print(f"\nETL: {n_lines} lines in {best:.3f}s -> {rate / 1000:.0f}k lines/s")
    assert rate >= MIN_ETL_LINES_PER_S, (
        f"ETL ran at {rate / 1000:.0f}k lines/s, "
        f"floor is {MIN_ETL_LINES_PER_S / 1000:.0f}k"
    )


def test_validation_verdict_under_a_second(benchmark):
    trace = ingest(SAMPLE)

    def run():
        start = time.perf_counter()
        fit = fit_trace(trace, window_s=40.0)
        family = emit_family(fit, "bench", class_counts=trace.class_counts())
        report = validate_family(family, trace, seed=0)
        return report, time.perf_counter() - start

    report, elapsed = once(benchmark, run)
    assert report.passed, report.to_text()
    print(f"\nvalidation verdict in {elapsed:.3f}s")
    assert elapsed < MAX_VALIDATE_SECONDS, (
        f"validation verdict took {elapsed:.2f}s, ceiling is "
        f"{MAX_VALIDATE_SECONDS:.1f}s"
    )
