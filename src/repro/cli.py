"""The ``repro`` command: one entry point whose first argument picks a verb.

.. code-block:: console

   $ repro characterize --samples 50 --output report.md
   $ repro experiments table2
   $ repro serve --models-dir models
   $ repro lifecycle status --models-dir models --store-dir store \\
         --journal-dir journal
   $ repro trace summary --file spans.jsonl
   $ repro tune recommend --model paper --objective slo \\
         --limit dealer_browse_rt=0.5
   $ repro ingest ingest data/sample_trace.csv

Each verb keeps its own parser, in the module :data:`VERBS` names, and
that module is imported only when its verb is chosen.  ``python -m
repro <verb>`` runs the same code without installing the package.

:func:`run` is the one place that turns a failure into an exit code: an
``OSError``, ``ValueError``, ``KeyError``, ``RuntimeError`` or
:class:`~repro.serving.client.ServingError` prints ``error: <message>``
on stderr and exits 1, a closed stdout pipe (``| head``) exits 0, and
bad usage keeps argparse's exit 2.  :func:`main` runs every verb through
it, and so does ``python -m repro.serving.server``.  A verb reports a
bad argument by raising ``ValueError``.  Verbs report success codes of
their own (``lifecycle retrain`` exits 2 when the gate rejects a
candidate).

``characterize`` runs the full methodology in one shot — collect samples,
train and cross-validate the model, classify surfaces, rank
configurations — and writes the markdown report.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Callable, List, Optional

__all__ = ["VERBS", "build_parser", "characterize", "main", "run"]

#: verb -> ``module:function`` taking the verb's argv, returning an exit code.
VERBS = {
    "characterize": "repro.cli:characterize",
    "experiments": "repro.experiments.runner:main",
    "serve": "repro.serving.server:main",
    "lifecycle": "repro.lifecycle.cli:main",
    "trace": "repro.observability.cli:main",
    "tune": "repro.tuning.cli:main",
    "ingest": "repro.traces.cli:main",
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run ``repro <verb> [args]``; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Non-linear workload characterization with neural networks. "
            "Run `repro <verb> --help` for a verb's options."
        ),
    )
    parser.add_argument("verb", choices=list(VERBS), help="what to run")
    # Only the verb is parsed here; the rest belongs to the verb's parser.
    verb = parser.parse_args(argv[:1]).verb
    module, _, function = VERBS[verb].partition(":")
    return run(getattr(importlib.import_module(module), function), argv[1:])


def run(verb_main: Callable[[List[str]], int], argv: List[str]) -> int:
    """Run one verb's ``verb_main(argv)``; returns the process exit code."""
    try:
        return verb_main(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        # Detach stdout so interpreter shutdown does not retry the flush.
        sys.stdout = open(os.devnull, "w")
        return 0
    except Exception as exc:
        # Imported here so that only a failing verb loads the serving stack.
        from .serving.client import ServingError

        expected = (OSError, ValueError, KeyError, RuntimeError, ServingError)
        if not isinstance(exc, expected):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro characterize`` argument parser."""
    from .workload.scenarios import available_scenarios

    parser = argparse.ArgumentParser(
        prog="repro characterize",
        description=(
            "Characterize the 3-tier workload: collect samples, fit the "
            "neural model, classify surfaces, recommend configurations."
        ),
    )
    parser.add_argument(
        "--samples", type=int, default=50, help="configurations to measure"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=12.0,
        help="simulated seconds per measurement window",
    )
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default="paper",
        help="transaction mix to characterize",
    )
    parser.add_argument(
        "--backend",
        choices=["simulator", "analytic"],
        default="simulator",
        help="measurement backend (analytic = fast closed-form surrogate)",
    )
    parser.add_argument(
        "--injection",
        type=float,
        nargs=2,
        default=(440.0, 580.0),
        metavar=("LOW", "HIGH"),
        help="injection-rate range to sweep",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="master seed"
    )
    parser.add_argument(
        "--output",
        default="characterization_report.md",
        help="markdown file to write",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="cut training budgets for a quick smoke run",
    )
    return parser


def characterize(argv: Optional[List[str]] = None) -> int:
    """The ``repro characterize`` verb; returns the process exit code."""
    import numpy as np

    from .analysis.report import characterize as characterize_dataset
    from .models.neural import NeuralWorkloadModel
    from .workload.analytic import AnalyticWorkloadModel
    from .workload.sampler import (
        ConfigSpace,
        ParameterRange,
        SampleCollector,
        latin_hypercube,
    )
    from .workload.scenarios import scenario
    from .workload.service import ThreeTierWorkload

    args = build_parser().parse_args(argv)
    if args.samples < 10:
        raise ValueError("--samples must be at least 10")
    low, high = args.injection
    if not low < high:
        raise ValueError(f"--injection needs LOW < HIGH, got {low} {high}")

    classes = scenario(args.scenario)
    if args.backend == "analytic":
        backend = AnalyticWorkloadModel(classes=classes)
    else:
        backend = ThreeTierWorkload(
            classes=classes,
            warmup=2.0,
            duration=args.duration,
            seed=args.seed,
        )
    space = ConfigSpace(
        [
            ParameterRange("injection_rate", low, high),
            ParameterRange("default_threads", 2, 22),
            ParameterRange("mfg_threads", 10, 24),
            ParameterRange("web_threads", 14, 23),
        ]
    )

    print(
        f"Collecting {args.samples} samples from the {args.backend} "
        f"backend (scenario: {args.scenario}) ..."
    )
    dataset = SampleCollector(backend).collect(
        latin_hypercube(space, args.samples, seed=args.seed),
        progress=lambda done, total: print(
            f"  {done}/{total}", end="\r", flush=True
        ),
    )
    print()
    dataset.y = np.maximum(dataset.y, 1e-3)

    model = NeuralWorkloadModel(
        hidden=(16, 8),
        error_threshold=0.02 if args.fast else 0.005,
        max_epochs=1500 if args.fast else 10000,
        seed=args.seed,
    )
    print("Fitting and analyzing ...")
    report = characterize_dataset(
        dataset, model=model, cv_folds=5, seed=args.seed
    )
    path = report.save(args.output)
    print(f"Model accuracy: {100 * report.accuracy:.1f}%")
    print(f"Surface shapes: {report.surface_kinds}")
    print(f"Report written to {path}")
    return 0
