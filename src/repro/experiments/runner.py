"""Experiment registry and the ``repro experiments`` verb.

``repro experiments <name>`` (or ``python -m repro experiments <name>``
without installing) regenerates one table/figure, or all of them:

.. code-block:: console

   $ repro experiments table2
   $ repro experiments figure7
   $ repro experiments all --refresh
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict

from .figures56 import run_figure5, run_figure6
from .surfaces import run_figure4, run_figure7, run_figure8
from .table2 import run_table2

__all__ = ["EXPERIMENTS", "available_experiments", "run_experiment", "main"]

#: Experiment id -> callable(refresh) returning an object with ``to_text()``.
EXPERIMENTS: Dict[str, Callable] = {
    "table2": lambda refresh: run_table2(refresh=refresh),
    "figure4": lambda refresh: run_figure4(refresh=refresh),
    "figure5": lambda refresh: run_figure5(refresh=refresh),
    "figure6": lambda refresh: run_figure6(refresh=refresh),
    "figure7": lambda refresh: run_figure7(refresh=refresh),
    "figure8": lambda refresh: run_figure8(refresh=refresh),
}


def available_experiments() -> list:
    """Sorted experiment ids — the single source for the CLI choices and
    the :func:`run_experiment` error message, so they cannot drift."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str, refresh: bool = False):
    """Run one experiment by id; returns its result object."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; "
            f"available: {available_experiments()}"
        )
    return EXPERIMENTS[name](refresh)


def main(argv=None) -> int:
    """The ``repro experiments`` verb; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=available_experiments() + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="discard cached sample collections and re-simulate",
    )
    args = parser.parse_args(argv)
    names = (
        available_experiments()
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        result = run_experiment(name, refresh=args.refresh)
        print(f"==== {name} ====")
        print(result.to_text())
        print()
    return 0
