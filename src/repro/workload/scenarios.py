"""Alternative workload scenarios.

`standard_mix()` reproduces the paper's case study; a characterization
*library* should let users study other regimes without re-deriving service
parameters.  Each scenario here is a named, documented variation of the
canonical five-class mix with a first-order rationale; all satisfy
`validate_mix` and run on the unchanged simulator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from .distributions import Erlang, Hyperexponential, LogNormal, Uniform
from .transactions import TransactionClass, standard_mix, validate_mix

__all__ = [
    "SCENARIOS",
    "scenario",
    "available_scenarios",
    "register_scenario",
    "unregister_scenario",
]


def _paper() -> List[TransactionClass]:
    """The paper's case-study mix (the repo-wide default)."""
    return standard_mix()


def _browse_heavy() -> List[TransactionClass]:
    """Catalogue-style traffic: browsing dominates, purchases are rare.

    Weight shifts toward dealer_browse (60 %) with purchases at 4 %, so
    the inventory lock all but vanishes and the web queue becomes the only
    knee worth tuning.
    """
    by_name = {c.name: c for c in standard_mix()}
    return [
        replace(by_name["manufacturing"], mix_weight=0.10),
        replace(by_name["dealer_purchase"], mix_weight=0.04),
        replace(by_name["dealer_manage"], mix_weight=0.08),
        replace(by_name["dealer_browse"], mix_weight=0.63),
        replace(by_name["misc_background"], mix_weight=0.15),
    ]


def _order_heavy() -> List[TransactionClass]:
    """End-of-quarter order surge: purchases triple, the lock matters.

    Purchase weight rises to 30 % and its under-lock database write grows,
    making the inventory lock a first-class bottleneck — the regime where
    adding web threads actively hurts.
    """
    by_name = {c.name: c for c in standard_mix()}
    return [
        replace(by_name["manufacturing"], mix_weight=0.18),
        replace(
            by_name["dealer_purchase"],
            mix_weight=0.30,
            db_service=LogNormal(mean=0.009, sigma=0.4),
        ),
        replace(by_name["dealer_manage"], mix_weight=0.10),
        replace(by_name["dealer_browse"], mix_weight=0.22),
        replace(by_name["misc_background"], mix_weight=0.20),
    ]


def _batch_heavy() -> List[TransactionClass]:
    """Overnight batch window: background work doubles and slows.

    The default queue becomes the dominant knee; interactive classes are a
    minority that the background work must not starve.
    """
    by_name = {c.name: c for c in standard_mix()}
    return [
        replace(by_name["manufacturing"], mix_weight=0.15),
        replace(by_name["dealer_purchase"], mix_weight=0.06),
        replace(by_name["dealer_manage"], mix_weight=0.06),
        replace(by_name["dealer_browse"], mix_weight=0.23),
        replace(
            by_name["misc_background"],
            mix_weight=0.50,
            domain_cpu=Erlang(mean=0.004, k=4),
            db_service=LogNormal(mean=0.032, sigma=0.5),
        ),
    ]


def _bursty_web() -> List[TransactionClass]:
    """Flash-crowd front end: highly variable web CPU bursts.

    Same means as the paper mix but hyper-exponential web work (long
    renders mixed with trivial hits) — the regime where pool *size*
    matters most relative to pool *utilization*.
    """
    mixes = []
    for cls in standard_mix():
        if cls.has_web_stage and cls.domain_queue is None:
            mixes.append(
                replace(
                    cls,
                    web_cpu=Hyperexponential(
                        means=[0.002, 0.035], weights=[0.85, 0.15]
                    ),
                    web_io=Uniform(low=0.0115, high=0.0195),
                )
            )
        else:
            mixes.append(cls)
    return mixes


SCENARIOS: Dict[str, Callable[[], List[TransactionClass]]] = {
    "paper": _paper,
    "browse_heavy": _browse_heavy,
    "order_heavy": _order_heavy,
    "batch_heavy": _batch_heavy,
    "bursty_web": _bursty_web,
}


#: Names of the built-in scenarios; dynamic registrations cannot shadow
#: or remove these.
_BUILTIN = frozenset(SCENARIOS)


def register_scenario(
    name: str,
    factory: Callable[[], List[TransactionClass]],
    overwrite: bool = False,
) -> None:
    """Register a scenario family at runtime.

    Trace-emitted scenarios (:mod:`repro.traces`) use this to appear
    alongside the hand-written mixes — ``scenario(name)`` and every
    ``--scenario`` parser built afterwards in this process accept them;
    the registry is per-process, so a new ``repro`` process does not.
    The factory is validated once
    eagerly so a broken registration fails at registration time, not at
    first use.  Built-in names are immutable; re-registering another
    dynamic name requires ``overwrite=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"scenario name must be a non-empty string, got {name!r}")
    if name in _BUILTIN:
        raise ValueError(f"cannot overwrite built-in scenario {name!r}")
    if name in SCENARIOS and not overwrite:
        raise ValueError(
            f"scenario {name!r} is already registered (overwrite=True replaces)"
        )
    validate_mix(factory())
    SCENARIOS[name] = factory


def unregister_scenario(name: str) -> bool:
    """Remove a dynamically-registered scenario; returns whether it existed."""
    if name in _BUILTIN:
        raise ValueError(f"cannot unregister built-in scenario {name!r}")
    return SCENARIOS.pop(name, None) is not None


def available_scenarios() -> List[str]:
    """Scenario names, sorted."""
    return sorted(SCENARIOS)


def scenario(name: str) -> List[TransactionClass]:
    """A fresh class list for ``name`` (validated)."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    classes = SCENARIOS[name]()
    validate_mix(classes)
    return classes
