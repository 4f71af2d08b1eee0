"""Seeded, program-blind inputs for every workload.

Everything a run sends is derived from the workload seed here and encoded
to bytes before any timer starts: the simulated design, the ``point``
hot set, cold configurations and Poisson schedule, and the ``tune``
sweep rows and recommend seeds.  Each input family draws from its own
NumPy stream keyed by ``(seed, family)``, so the same seed always yields
byte-identical requests and resizing one family leaves the others alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: The paper's Table 2 sampling region, in request field order.  It mirrors
#: ``repro.experiments.config.TABLE2_SPACE`` (a benchmark test keeps the
#: two in step) but lives here so the inputs never depend on program code.
TABLE2_RANGES = (
    ("injection_rate", 440, 580),
    ("default_threads", 2, 22),
    ("mfg_threads", 10, 24),
    ("web_threads", 14, 23),
)
INPUT_NAMES = tuple(name for name, _, _ in TABLE2_RANGES)

_FAMILIES = ("design", "hot", "mix", "schedule", "cold", "sweep", "recommend")

#: ``point``: configurations in the hot set, and the share of requests
#: drawn from it (the rest are never repeated).
HOT_SET_SIZE = 32
HOT_SHARE = 0.5

#: ``tune``: each sweep covers a 16 x 16 grid of the (default_threads,
#: web_threads) plane at one (injection_rate, mfg_threads) pair.
SWEEP_DEFAULT = np.linspace(2.0, 22.0, 16)
SWEEP_WEB = np.linspace(14.0, 23.0, 16)
SWEEP_ROWS = SWEEP_DEFAULT.size * SWEEP_WEB.size

#: A recommend seed no stream draws (the draws stay below it).
WARMUP_RECOMMEND_SEED = 2**31 - 1


def _rng(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _FAMILIES.index(family)])


def design(seed: int, n: int) -> np.ndarray:
    """An ``n``-point Latin-hypercube design over the Table 2 region.

    One draw per stratum in every dimension, rounded to the integer
    thread counts and injection rates the testbed takes.
    """
    rng = _rng(seed, "design")
    columns = []
    for _, low, high in TABLE2_RANGES:
        strata = (np.arange(n) + rng.uniform(size=n)) / n
        rng.shuffle(strata)
        columns.append(np.round(low + strata * (high - low)))
    return np.column_stack(columns)


def _random_configs(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.column_stack(
        [rng.integers(low, high + 1, size=n) for _, low, high in TABLE2_RANGES]
    ).astype(float)


def _distinct_configs(
    rng: np.random.Generator, n: int, exclude: Sequence = ()
) -> np.ndarray:
    """``n`` distinct integer configurations, none of them in ``exclude``."""
    seen = {tuple(row) for row in np.asarray(exclude, dtype=float)}
    rows: List[tuple] = []
    while len(rows) < n:
        for row in map(tuple, _random_configs(rng, 2 * (n - len(rows)))):
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return np.array(rows[:n], dtype=float).reshape(n, len(TABLE2_RANGES))


def _config(row) -> dict:
    return {name: float(v) for name, v in zip(INPUT_NAMES, row)}


def predict_body(model: str, rows: np.ndarray) -> bytes:
    """A ``/predict`` body: ``config`` for one row, ``configs`` for many."""
    if len(rows) == 1:
        payload = {"model": model, "config": _config(rows[0])}
    else:
        payload = {"model": model, "configs": [_config(r) for r in rows]}
    return json.dumps(payload).encode()


@dataclass
class PointStream:
    """Single-config ``/predict`` traffic for the ``point`` phase."""

    hot: np.ndarray
    open_due: np.ndarray
    open_x: np.ndarray
    open_bodies: List[bytes]
    closed_x: np.ndarray
    closed_bodies: List[bytes]
    warmup_body: bytes


def _mixed_rows(seed: int, hot: np.ndarray, n: int) -> np.ndarray:
    """``n`` rows: about HOT_SHARE of them from ``hot``, the rest distinct
    configurations outside it that appear once each."""
    mix = _rng(seed, "mix")
    from_hot = mix.random(n) < HOT_SHARE
    rows = _distinct_configs(_rng(seed, "cold"), n, hot)
    rows[from_hot] = hot[mix.integers(0, len(hot), size=int(from_hot.sum()))]
    return rows


def point_stream(
    seed: int, model: str, rate: float, open_s: float, closed_n: int
) -> PointStream:
    """Open-loop Poisson schedule at ``rate`` for ``open_s`` seconds, then
    ``closed_n`` bodies for the closed loop; about half of every stream
    repeats the hot set and the rest is never repeated."""
    hot = _distinct_configs(_rng(seed, "hot"), HOT_SET_SIZE)
    gaps = _rng(seed, "schedule").exponential(
        1.0 / rate, size=int(rate * open_s * 2) + 16
    )
    due = np.cumsum(gaps)
    due = due[due < open_s]
    rows = _mixed_rows(seed, hot, len(due) + closed_n)
    open_x, closed_x = rows[: len(due)], rows[len(due):]
    return PointStream(
        hot=hot,
        open_due=due,
        open_x=open_x,
        open_bodies=[predict_body(model, row[None]) for row in open_x],
        closed_x=closed_x,
        closed_bodies=[predict_body(model, row[None]) for row in closed_x],
        # Fractional values: never equal to an integer stream config.
        warmup_body=predict_body(model, np.array([[500.5, 12.5, 17.5, 18.5]])),
    )


def _sweep_template(model: str) -> str:
    """The sweep body with ``@R@``/``@M@`` standing for the pair; JSON
    writes floats with ``repr``, so filling them in gives the exact bytes
    ``predict_body`` would, about a hundred times faster."""
    rows = sweep_rows(-1.0, -2.0)
    return predict_body(model, rows).decode().replace(
        "-1.0", "@R@").replace("-2.0", "@M@")


def sweep_rows(injection_rate: float, mfg_threads: float) -> np.ndarray:
    """The 256-row (default_threads, web_threads) plane at one pair."""
    default, web = np.meshgrid(SWEEP_DEFAULT, SWEEP_WEB, indexing="ij")
    rows = np.empty((SWEEP_ROWS, 4))
    rows[:, 0] = injection_rate
    rows[:, 1] = default.ravel()
    rows[:, 2] = mfg_threads
    rows[:, 3] = web.ravel()
    return rows


@dataclass
class TuneStream:
    """``/predict`` sweeps and cold ``/recommend`` searches for ``tune``."""

    sweep_pairs: np.ndarray
    sweep_models: List[str]
    sweep_bodies: List[bytes]
    recommend_models: List[str]
    recommend_seeds: List[int]
    recommend_bodies: List[bytes]


def recommend_body(model: str, seed: int) -> bytes:
    """A cold ``/recommend``: default objective and budget, fresh seed."""
    return json.dumps({"model": model, "seed": int(seed)}).encode()


def tune_stream(
    seed: int, models: Sequence[str], n_sweeps: int, n_recommends: int
) -> TuneStream:
    """Sweeps rotate over ``models``, each at a fresh (injection_rate,
    mfg_threads) pair; recommends rotate too, each with a new seed."""
    rng = _rng(seed, "sweep")
    rates = np.round(rng.uniform(440.0, 580.0, size=n_sweeps), 3)
    mfg = rng.integers(10, 25, size=n_sweeps).astype(float)
    pairs = np.column_stack([rates, mfg])
    sweep_models = [models[i % len(models)] for i in range(n_sweeps)]
    seeds = _rng(seed, "recommend").choice(
        WARMUP_RECOMMEND_SEED, size=n_recommends, replace=False
    )
    recommend_models = [models[i % len(models)] for i in range(n_recommends)]
    templates = {m: _sweep_template(m) for m in models}
    return TuneStream(
        sweep_pairs=pairs,
        sweep_models=sweep_models,
        sweep_bodies=[
            templates[m].replace("@R@", repr(float(r)))
            .replace("@M@", repr(float(k))).encode()
            for m, (r, k) in zip(sweep_models, pairs)
        ],
        recommend_models=recommend_models,
        recommend_seeds=[int(s) for s in seeds],
        recommend_bodies=[
            recommend_body(m, s) for m, s in zip(recommend_models, seeds)
        ],
    )
