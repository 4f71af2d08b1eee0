"""Sampling distributions for service times and inter-arrival gaps.

Thin, explicit wrappers over :class:`numpy.random.Generator` draws.  Each
distribution knows its analytic mean so the closed-form surrogate
(:mod:`repro.workload.analytic`) and the simulator can be parameterized from
the same objects.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Sequence, Type, Union

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Erlang",
    "Uniform",
    "LogNormal",
    "Hyperexponential",
    "Geometric",
    "WeightedChoice",
    "get_distribution",
]


class WeightedChoice:
    """Weighted index draws, bit-identical to ``Generator.choice`` given ``p``.

    ``Generator.choice`` re-validates ``p`` and rebuilds its CDF on every
    call, which costs ~12 µs against ~0.8 µs for one ``rng.random()``.  This
    builds the CDF once, exactly as ``choice`` does (``cumsum``, then divide
    by the last entry), and makes ``choice``'s checks on ``p`` (finite,
    non-negative, positive sum) once, here.  :meth:`draw` takes the same
    single double from the stream and locates it as ``choice``'s
    ``searchsorted(side="right")`` does, so it returns the same index and
    leaves the generator in the same state.  The weights need not sum to 1;
    pass the vector ``choice`` would get for bit identity with it.
    """

    __slots__ = ("_cdf",)

    def __init__(self, weights: Sequence[float]):
        p = np.array(weights, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError(f"weights must be a non-empty vector, got {weights}")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"weights must be finite, got {weights}")
        if np.any(p < 0):
            raise ValueError(f"weights must be non-negative, got {weights}")
        cdf = p.cumsum()
        if not cdf[-1] > 0:
            raise ValueError(f"weights must have a positive sum, got {weights}")
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One index in ``range(len(weights))``."""
        return bisect_right(self._cdf, rng.random())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedChoice(cdf={self._cdf})"


class Distribution:
    """Base class: draw non-negative durations from a generator."""

    name = "distribution"

    def sample(self, rng: np.random.Generator) -> float:
        """One draw."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic expectation of a draw."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"{type(self).__name__}({args})"


class Deterministic(Distribution):
    """Always the same value — useful for tests and CPU quanta."""

    name = "deterministic"

    def __init__(self, value: float):
        if not value >= 0:
            raise ValueError(f"value must be non-negative, got {value}")
        self.value = float(value)

    def sample(self, rng):
        return self.value

    def mean(self):
        return self.value


class Exponential(Distribution):
    """Memoryless — the canonical model for Poisson arrivals."""

    name = "exponential"

    def __init__(self, mean: float):
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    def sample(self, rng):
        return float(rng.exponential(self._mean))

    def mean(self):
        return self._mean


class Erlang(Distribution):
    """Sum of ``k`` exponentials: smoother than exponential (CV = 1/sqrt(k)).

    A good model for CPU bursts, which are far less variable than
    memoryless.
    """

    name = "erlang"

    def __init__(self, mean: float, k: int = 4):
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._mean = float(mean)
        self.k = int(k)

    def sample(self, rng):
        return float(rng.gamma(self.k, self._mean / self.k))

    def mean(self):
        return self._mean


class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    name = "uniform"

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))

    def mean(self):
        return 0.5 * (self.low + self.high)


class LogNormal(Distribution):
    """Heavy-ish right tail — typical of database call latencies.

    Parameterized by the desired mean and the shape ``sigma`` of the
    underlying normal; ``mu`` is derived so the distribution's mean matches.
    """

    name = "lognormal"

    def __init__(self, mean: float, sigma: float = 0.5):
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self._mean = float(mean)
        self.sigma = float(sigma)
        self._mu = np.log(mean) - 0.5 * sigma * sigma

    def sample(self, rng):
        return float(rng.lognormal(self._mu, self.sigma))

    def mean(self):
        return self._mean


class Hyperexponential(Distribution):
    """Mixture of exponentials: high variability (CV > 1), bimodal work."""

    name = "hyperexponential"

    def __init__(self, means: Sequence[float], weights: Sequence[float]):
        means = [float(m) for m in means]
        weights = [float(w) for w in weights]
        if len(means) != len(weights) or not means:
            raise ValueError("means and weights must be equal-length, non-empty")
        if not all(m > 0 for m in means):
            raise ValueError(f"means must be positive, got {means}")
        if not all(w >= 0 for w in weights) or not sum(weights) > 0:
            raise ValueError("weights must be non-negative and sum > 0")
        total = sum(weights)
        self.means = means
        self.weights = [w / total for w in weights]
        self._branch = WeightedChoice(self.weights)

    def sample(self, rng):
        return float(rng.exponential(self.means[self._branch.draw(rng)]))

    def mean(self):
        return float(sum(w * m for w, m in zip(self.weights, self.means)))


class Geometric(Distribution):
    """Geometric counts on {1, 2, ...} with mean ``1/p`` — batch sizes."""

    name = "geometric"

    def __init__(self, p: float):
        if not 0 < p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {p}")
        self.p = float(p)

    def sample(self, rng):
        return float(rng.geometric(self.p))

    def mean(self):
        return 1.0 / self.p


_REGISTRY: Dict[str, Type[Distribution]] = {
    cls.name: cls
    for cls in (
        Deterministic,
        Exponential,
        Erlang,
        Uniform,
        LogNormal,
        Hyperexponential,
        Geometric,
    )
}


def get_distribution(spec: Union[str, Distribution], **kwargs) -> Distribution:
    """Resolve a distribution from a name or instance."""
    if isinstance(spec, Distribution):
        if kwargs:
            raise ValueError("cannot pass kwargs with a Distribution instance")
        return spec
    if spec not in _REGISTRY:
        raise KeyError(
            f"unknown distribution {spec!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[spec](**kwargs)
