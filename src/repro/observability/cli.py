"""``repro trace`` — inspect traces from a JSONL export or a live server.

Subcommands::

    repro trace tail    --file spans.jsonl [-n 20]     # recent spans
    repro trace tail    --url http://host:port         # via GET /traces
    repro trace show <trace-id> --file spans.jsonl     # indented span tree
    repro trace summary --file spans.jsonl             # per-stage p50/95/99

``show`` renders the parent/child tree with per-span *self time* (the
span's duration minus its children's), which is what separates "the
request was slow" from "the request spent 9 of its 10 ms waiting in the
micro-batcher queue".  ``summary`` aggregates exact per-stage quantiles
from every span in a JSONL file — the offline counterpart of the
``/metrics`` stage histograms.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional
from urllib.request import urlopen

__all__ = ["build_parser", "main", "render_span_tree", "stage_summary"]


def _load_spans_file(path: str) -> List[dict]:
    """Parse a JSONL span export (unparseable lines are skipped)."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(span, dict) and "trace_id" in span:
                spans.append(span)
    return spans


def _load_spans_url(
    url: str, trace_id: Optional[str] = None, limit: Optional[int] = None
) -> List[dict]:
    """Fetch spans from a server's ``GET /traces`` endpoint."""
    query = []
    if limit is not None:
        query.append(f"limit={int(limit)}")
    endpoint = url.rstrip("/") + "/traces"
    if query:
        endpoint += "?" + "&".join(query)
    with urlopen(endpoint, timeout=10.0) as response:
        payload = json.loads(response.read())
    spans = []
    for trace in payload.get("traces", []):
        if trace_id is not None and trace["trace_id"] != trace_id:
            continue
        spans.extend(trace["spans"])
    return spans


def _load_spans(args, trace_id: Optional[str] = None) -> List[dict]:
    if getattr(args, "file", None):
        return _load_spans_file(args.file)
    if getattr(args, "url", None):
        return _load_spans_url(
            args.url, trace_id=trace_id, limit=getattr(args, "limit", None)
        )
    raise ValueError("pass --file <spans.jsonl> or --url <server>")


def _format_span_line(span: dict) -> str:
    duration = span.get("duration_s") or 0.0
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(span.get("start_time", 0.0))
    )
    status = span.get("status", "ok")
    flags = " SLOW" if span.get("attributes", {}).get("slow") else ""
    return (
        f"{stamp}  {span['trace_id'][:8]}  {duration * 1000.0:9.3f} ms  "
        f"{status:5s}{flags}  {span['name']}"
    )


def render_span_tree(spans: List[dict]) -> str:
    """One trace's spans as an indented tree with self-times.

    Orphan spans (parent evicted or never recorded) are promoted to
    roots so a partially-retained trace still renders.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("start_time", 0.0))

    lines: List[str] = []

    def walk(span: dict, depth: int) -> None:
        duration = span.get("duration_s") or 0.0
        kids = children.get(span["span_id"], [])
        child_time = sum(k.get("duration_s") or 0.0 for k in kids)
        self_time = max(0.0, duration - child_time)
        status = span.get("status", "ok")
        marker = "" if status == "ok" else f"  [{status}: {span.get('error')}]"
        slow = " SLOW" if span.get("attributes", {}).get("slow") else ""
        lines.append(
            f"{'  ' * depth}{span['name']:<{max(1, 36 - 2 * depth)}} "
            f"{duration * 1000.0:9.3f} ms  (self {self_time * 1000.0:8.3f} ms)"
            f"{slow}{marker}"
        )
        for kid in kids:
            walk(kid, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def stage_summary(spans: List[dict]) -> Dict[str, dict]:
    """Exact per-stage latency quantiles aggregated over spans.

    Returns ``{stage name: {count, p50, p95, p99, mean, errors}}`` with
    quantiles in seconds.
    """
    groups: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for span in spans:
        duration = span.get("duration_s")
        if duration is None:
            continue
        name = span["name"]
        groups.setdefault(name, []).append(float(duration))
        if span.get("status") == "error":
            errors[name] = errors.get(name, 0) + 1

    def exact_quantile(values: List[float], q: float) -> float:
        index = min(len(values) - 1, int(round(q * (len(values) - 1))))
        return values[index]

    summary = {}
    for name, values in groups.items():
        values.sort()
        summary[name] = {
            "count": len(values),
            "errors": errors.get(name, 0),
            "p50": exact_quantile(values, 0.50),
            "p95": exact_quantile(values, 0.95),
            "p99": exact_quantile(values, 0.99),
            "mean": sum(values) / len(values),
        }
    return summary


def format_summary_table(summary: Dict[str, dict]) -> str:
    """The ``summary`` subcommand's aligned text table."""
    header = (
        f"{'stage':<36} {'count':>7} {'errors':>7} "
        f"{'p50 ms':>10} {'p95 ms':>10} {'p99 ms':>10}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(summary, key=lambda n: -summary[n]["p95"]):
        row = summary[name]
        lines.append(
            f"{name:<36} {row['count']:>7} {row['errors']:>7} "
            f"{row['p50'] * 1000.0:>10.3f} {row['p95'] * 1000.0:>10.3f} "
            f"{row['p99'] * 1000.0:>10.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Inspect serving traces: tail recent spans, render one "
            "trace's span tree, or aggregate per-stage latency quantiles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def source(p, url=True):
        p.add_argument("--file", help="JSONL span export to read")
        if url:
            p.add_argument(
                "--url",
                help="serving base URL; reads GET /traces instead of a file",
            )

    p = sub.add_parser("tail", help="print the most recent spans")
    source(p)
    p.add_argument(
        "-n", "--limit", type=int, default=20, help="spans to show"
    )
    p.add_argument(
        "--slow-only", action="store_true",
        help="only spans flagged by the slow-request threshold",
    )

    p = sub.add_parser("show", help="render one trace as an indented tree")
    p.add_argument("trace_id", help="full or abbreviated (prefix) trace id")
    source(p)

    p = sub.add_parser(
        "summary", help="per-stage p50/p95/p99 table from a JSONL export"
    )
    source(p)
    return parser


def _cmd_tail(args) -> int:
    spans = _load_spans(args)
    if args.slow_only:
        spans = [
            s for s in spans if s.get("attributes", {}).get("slow")
        ]
    spans.sort(key=lambda s: s.get("start_time", 0.0))
    for span in spans[-args.limit:]:
        print(_format_span_line(span))
    return 0


def _cmd_show(args) -> int:
    spans = _load_spans(args, trace_id=None)
    matches = sorted(
        {
            s["trace_id"]
            for s in spans
            if s["trace_id"].startswith(args.trace_id)
        }
    )
    if not matches:
        raise ValueError(f"no trace matching {args.trace_id!r}")
    if len(matches) > 1:
        raise ValueError(
            f"ambiguous prefix {args.trace_id!r} matches "
            f"{len(matches)} traces: {[m[:12] for m in matches]}"
        )
    trace_id = matches[0]
    selected = [s for s in spans if s["trace_id"] == trace_id]
    print(f"trace {trace_id} ({len(selected)} spans)")
    print(render_span_tree(selected))
    return 0


def _cmd_summary(args) -> int:
    spans = _load_spans(args)
    if not spans:
        raise ValueError("no spans found")
    print(format_summary_table(stage_summary(spans)))
    return 0


_COMMANDS = {
    "tail": _cmd_tail,
    "show": _cmd_show,
    "summary": _cmd_summary,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
