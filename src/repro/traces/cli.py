"""``repro ingest`` — the trace factory's command line.

One subcommand per pipeline stage plus a generator for fixtures:

.. code-block:: console

   $ repro ingest ingest data/sample_trace.csv
   $ repro ingest fit data/sample_trace.csv --window 40
   $ repro ingest emit data/sample_trace.csv --name sample --out sample.json
   $ repro ingest validate data/sample_trace.csv --seed 0
   $ repro ingest replay sample.json --three-tier
   $ repro ingest synth /tmp/trace.csv --fmt csv --seed 7

``validate`` exits 0 on a passing sim-vs-trace moment check and 2 on a
failing one (the same convention as ``repro lifecycle``'s gate).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from .etl import ingest
from .family import ScenarioFamily, emit_family
from .fit import fit_trace
from .replay import replay_family, run_three_tier
from .synthetic import default_sample_spec, generate_synthetic_trace
from .validate import validate_family

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ingest",
        description=(
            "Trace-driven scenario factory: ingest request logs, fit "
            "distributions, emit replayable scenarios, validate them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p):
        p.add_argument("trace", help="access log (CLF) or CSV trace file")
        p.add_argument(
            "--format",
            choices=["auto", "clf", "csv"],
            default="auto",
            help="input format (default: sniffed)",
        )
        p.add_argument(
            "--window",
            type=float,
            default=None,
            help="aggregation window seconds (default: duration/10)",
        )

    p_ingest = sub.add_parser("ingest", help="parse + window one trace")
    add_trace_args(p_ingest)
    p_ingest.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )

    p_fit = sub.add_parser("fit", help="fit distributions per window")
    add_trace_args(p_fit)

    p_emit = sub.add_parser("emit", help="compile a scenario family")
    add_trace_args(p_emit)
    p_emit.add_argument("--name", required=True, help="family name")
    p_emit.add_argument(
        "--out", default=None, help="output JSON (default: <name>.scenario.json)"
    )

    p_validate = sub.add_parser(
        "validate", help="emit + replay + compare sim-vs-trace moments"
    )
    add_trace_args(p_validate)
    p_validate.add_argument("--name", default="validation", help="family name")
    p_validate.add_argument("--seed", type=int, default=0, help="replay seed")
    p_validate.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="gating tolerance for rate and p95 (default 0.10)",
    )
    p_validate.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    p_replay = sub.add_parser(
        "replay", help="replay a saved scenario family through the simulator"
    )
    p_replay.add_argument("family", help="scenario-family JSON document")
    p_replay.add_argument("--seed", type=int, default=0, help="replay seed")
    p_replay.add_argument(
        "--duration", type=float, default=None, help="horizon seconds"
    )
    p_replay.add_argument(
        "--three-tier",
        action="store_true",
        help="drive the full 3-tier simulator instead of the generative replay",
    )

    p_synth = sub.add_parser(
        "synth", help="generate a deterministic synthetic trace"
    )
    p_synth.add_argument("out", help="file to write")
    p_synth.add_argument("--fmt", choices=["csv", "clf"], default="csv")
    p_synth.add_argument("--seed", type=int, default=20260808)

    return parser


def _load_trace(args: argparse.Namespace):
    path = Path(args.trace)
    if not path.is_file():
        raise ValueError(f"trace file not found: {path}")
    return ingest(path, fmt=args.format)


def _describe_fit(label: str, fitted) -> str:
    if fitted is None:
        return f"  {label:<14} (not fitted)"
    return (
        f"  {label:<14} {fitted.family:<17} mean={fitted.mean:#.4g}  "
        f"cv={fitted.cv:.2f}  ks={fitted.ks_stat:.4f}"
        f"{' ok' if fitted.ks_pass else ' (ks reject)'}"
    )


def _cmd_ingest(args) -> int:
    trace = _load_trace(args)
    window_s = args.window or min(max(trace.duration / 10.0, 1.0), 3600.0)
    windows = trace.windows(window_s) if len(trace) else []
    if args.json:
        print(
            json.dumps(
                {
                    "source": trace.source,
                    "arrivals": len(trace),
                    "duration_s": trace.duration,
                    "mean_rate": trace.mean_rate(),
                    "classes": trace.class_counts(),
                    "stats": trace.stats.as_dict(),
                    "windows": [
                        {"start": w.start, "count": w.count, "rate": w.rate}
                        for w in windows
                    ],
                },
                indent=2,
            )
        )
        return 0
    stats = trace.stats
    print(f"ingested {trace.source}")
    print(
        f"  lines: {stats.lines_total}  parsed: {stats.parsed}  "
        f"skipped: {stats.skipped_total} {stats.skipped or ''}"
    )
    print(
        f"  arrivals: {len(trace)}  duration: {trace.duration:.1f}s  "
        f"rate: {trace.mean_rate():.1f}/s"
    )
    for name, count in sorted(trace.class_counts().items()):
        print(f"    class {name:<20} {count}")
    print(f"  windows ({window_s:.0f}s):")
    for window in windows:
        bar = "#" * max(1, int(round(window.rate / 2))) if window.count else ""
        print(
            f"    [{window.start:7.1f}s] n={window.count:<6} "
            f"rate={window.rate:6.1f}/s {bar}"
        )
    return 0


def _cmd_fit(args) -> int:
    trace = _load_trace(args)
    fit = fit_trace(trace, window_s=args.window)
    print(f"fitted {trace.source} ({fit.n_arrivals} arrivals)")
    print(
        f"  arrival process: cv={fit.arrival_cv:.2f} ({fit.arrival_verdict})"
    )
    print(_describe_fit("interarrival", fit.interarrival))
    print(_describe_fit("service", fit.service))
    for name, fitted in sorted(fit.class_service.items()):
        print(_describe_fit(f"service[{name}]", fitted))
    print(f"  windows ({fit.window_s:.0f}s):")
    for window in fit.windows:
        chosen = window.service.family if window.service else "-"
        print(
            f"    [{window.start:7.1f}s] rate={window.rate:6.1f}/s  "
            f"service={chosen}"
        )
    return 0


def _emit(args, name: str) -> tuple:
    trace = _load_trace(args)
    fit = fit_trace(trace, window_s=args.window)
    family = emit_family(fit, name=name, class_counts=trace.class_counts())
    return trace, family


def _cmd_emit(args) -> int:
    _, family = _emit(args, args.name)
    out = Path(args.out) if args.out else Path(f"{args.name}.scenario.json")
    family.save(out)
    registered = family.register()
    print(f"emitted scenario family {family.name!r} -> {out}")
    print(
        f"  base rate {family.base_rate:.1f}/s, "
        f"{len(family.class_weights)} classes, "
        f"{len(family.windows)} windows"
    )
    print(f"  registered as scenario {registered!r}")
    return 0


def _cmd_validate(args) -> int:
    trace, family = _emit(args, args.name)
    report = validate_family(
        family, trace, seed=args.seed, tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.passed else 2


def _cmd_replay(args) -> int:
    family = ScenarioFamily.load(args.family)
    if args.three_tier:
        metrics = run_three_tier(
            family, duration=args.duration, seed=args.seed
        )
        print(
            f"three-tier replay of {family.name!r}: "
            f"injected={metrics.injected} completed={metrics.completed}"
        )
        for key, value in metrics.indicators.items():
            print(f"  {key:<22} {value:#.4g}")
        return 0
    replay = replay_family(family, seed=args.seed, duration=args.duration)
    print(
        f"replayed {family.name!r}: {replay.n_arrivals} arrivals over "
        f"{replay.duration:.1f}s (rate {replay.mean_rate():.1f}/s, "
        f"cv {replay.interarrival_cv():.2f})"
    )
    if replay.service_samples.size:
        print(
            f"  service p50={replay.service_percentile(50):#.4g}s "
            f"p95={replay.service_percentile(95):#.4g}s"
        )
    return 0


def _cmd_synth(args) -> int:
    spec = default_sample_spec(seed=args.seed)
    path = generate_synthetic_trace(args.out, spec=spec, fmt=args.fmt)
    total = sum(phase.duration for phase in spec.phases)
    print(f"wrote synthetic {args.fmt} trace to {path} ({total:.0f}s)")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "fit": _cmd_fit,
    "emit": _cmd_emit,
    "validate": _cmd_validate,
    "replay": _cmd_replay,
    "synth": _cmd_synth,
}


def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro ingest`` verb; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
