"""``repro tune`` — ask a running ``repro serve`` for configurations.

Three subcommands against the autotuning endpoints:

``recommend``
    One recommendation for an objective built from flags:

    .. code-block:: console

       $ repro tune --url http://127.0.0.1:8700 recommend --model paper \\
             --objective slo --limit dealer_browse_rt=0.5 --budget 256

``sweep``
    The same objective across several seeds — a cheap robustness read:
    if five differently-seeded searches land on the same configuration,
    the recommendation is a property of the surface, not of the search.

``watch``
    Poll ``GET /recommendations`` and print standing-objective state —
    the operator's view of whether a lifecycle promote shifted the
    recommended configuration.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

from ..workload.service import INPUT_NAMES, OUTPUT_NAMES

__all__ = ["build_parser", "main"]


def _parse_limits(pairs: List[str]) -> List[Dict[str, float]]:
    """``indicator=value`` flags → constraint wire objects."""
    constraints = []
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--limit needs indicator=value, got {pair!r}")
        if name not in OUTPUT_NAMES:
            raise ValueError(
                f"--limit {name!r}: unknown indicator "
                f"(expected one of {OUTPUT_NAMES})"
            )
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"--limit {pair!r}: value must be a number"
            ) from None
        constraints.append({"indicator": name, "max_value": value})
    return constraints


def _objective(args: argparse.Namespace) -> dict:
    objective: dict = {
        "kind": args.objective,
        "target": args.target,
        "constraints": _parse_limits(args.limit),
    }
    if args.penalty_weight is not None:
        objective["penalty_weight"] = args.penalty_weight
    if args.thread_cost is not None:
        objective["thread_cost"] = args.thread_cost
    return objective


def _print_recommendation(body: dict) -> None:
    config = body["config"]
    print("recommended configuration:")
    for name in INPUT_NAMES:
        print(f"  {name:>16} = {config[name]:g}")
    print("predicted indicators:")
    for name in OUTPUT_NAMES:
        print(f"  {name:>18} = {body['predicted'][name]:g}")
    feasible = "yes" if body["feasible"] else "NO"
    print(
        f"score {body['score']:g} | feasible {feasible} | "
        f"{body['evals']} evals ({body['seed_evals']} seed, "
        f"{body['refine_rounds']} refine rounds)"
    )
    rationale = body.get("rationale") or {}
    surface = rationale.get("surface_class", "unavailable")
    if surface == "unavailable":
        print(f"surface: unavailable ({rationale.get('reason', '?')})")
    else:
        print(f"surface: {surface} — {rationale.get('note', '')}")


def _client(args: argparse.Namespace):
    from ..serving.client import ServingClient

    return ServingClient(args.url, timeout=args.timeout)


def _cmd_recommend(args: argparse.Namespace) -> int:
    client = _client(args)
    body = client.recommend(
        args.model,
        objective=_objective(args),
        budget=args.budget,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        _print_recommendation(body)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    client = _client(args)
    objective = _objective(args)
    configs = {}
    for seed in range(args.seeds):
        body = client.recommend(
            args.model, objective=objective, budget=args.budget, seed=seed
        )
        key = tuple(body["config"][name] for name in INPUT_NAMES)
        configs.setdefault(key, []).append((seed, body["score"]))
        if args.json:
            print(json.dumps(body, sort_keys=True))
        else:
            vector = "  ".join(f"{v:g}" for v in key)
            print(f"seed {seed}: [{vector}]  score {body['score']:g}")
    if not args.json:
        print(
            f"{len(configs)} distinct configuration(s) across "
            f"{args.seeds} seeds"
            + (" — stable" if len(configs) == 1 else "")
        )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _client(args)
    for iteration in range(args.iterations):
        payload = client.recommendations(limit=args.count)
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            stats = payload["stats"]
            print(
                f"cache {stats['cache_entries']}/{stats['cache_size']} | "
                f"standing {stats['standing_objectives']} | "
                f"history {stats['history']}"
            )
            for model, objectives in sorted(payload["standing"].items()):
                for state in objectives:
                    shifted = "SHIFTED" if state["shifted"] else "stable"
                    error = state.get("error")
                    suffix = f" | error: {error}" if error else ""
                    print(
                        f"  {model} [{state['objective']['kind']}]: "
                        f"{shifted}, {state['retunes']} retune(s), "
                        f"score {state['score']}{suffix}"
                    )
        if iteration + 1 < args.iterations:
            time.sleep(args.interval)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro tune`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description=(
            "Query a running repro serve for configuration "
            "recommendations (POST /recommend)."
        ),
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8700",
        help="base URL of the serving endpoint",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="client socket timeout / deadline budget (seconds)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_objective_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="paper", help="model to tune")
        p.add_argument(
            "--objective",
            choices=["max_throughput", "slo", "cost"],
            default="max_throughput",
            help="what 'best configuration' means",
        )
        p.add_argument(
            "--target", default="effective_tps",
            help="indicator to maximize",
        )
        p.add_argument(
            "--limit", action="append", default=[],
            metavar="INDICATOR=VALUE",
            help="response-time bound (repeatable), e.g. "
                 "dealer_browse_rt=0.5",
        )
        p.add_argument(
            "--penalty-weight", type=float, default=None,
            help="score units removed per second of violation",
        )
        p.add_argument(
            "--thread-cost", type=float, default=None,
            help="score units charged per provisioned thread "
                 "(cost objective only)",
        )
        p.add_argument(
            "--budget", type=int, default=None,
            help="model evaluations for the search (server default if "
                 "omitted)",
        )
        p.add_argument("--json", action="store_true", help="print raw JSON")

    p_rec = sub.add_parser(
        "recommend", help="one recommendation for one objective"
    )
    add_objective_flags(p_rec)
    p_rec.add_argument("--seed", type=int, default=0, help="search seed")
    p_rec.set_defaults(func=_cmd_recommend)

    p_sweep = sub.add_parser(
        "sweep", help="the same objective across several seeds"
    )
    add_objective_flags(p_sweep)
    p_sweep.add_argument(
        "--seeds", type=int, default=5, help="number of seeds to sweep"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_watch = sub.add_parser(
        "watch", help="poll standing-objective state"
    )
    p_watch.add_argument(
        "--interval", type=float, default=5.0, help="seconds between polls"
    )
    p_watch.add_argument(
        "--iterations", type=int, default=1,
        help="polls before exiting (watch forever with a large value)",
    )
    p_watch.add_argument(
        "--count", type=int, default=20, help="recent entries to request"
    )
    p_watch.add_argument("--json", action="store_true", help="print raw JSON")
    p_watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro tune`` verb; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
