"""Random streams and sampling distributions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Geometric,
    Hyperexponential,
    LogNormal,
    Uniform,
    WeightedChoice,
    get_distribution,
)
from repro.workload.rng import StreamRegistry

ALL = [
    Deterministic(2.0),
    Exponential(mean=0.5),
    Erlang(mean=1.0, k=4),
    Uniform(0.5, 1.5),
    LogNormal(mean=2.0, sigma=0.5),
    Hyperexponential(means=[0.1, 2.0], weights=[0.7, 0.3]),
    Geometric(p=0.4),
]


class TestStreamRegistry:
    def test_same_name_same_stream_object(self):
        registry = StreamRegistry(seed=1)
        assert registry.stream("arrivals") is registry.stream("arrivals")

    def test_streams_independent_of_creation_order(self):
        a = StreamRegistry(seed=1)
        b = StreamRegistry(seed=1)
        a.stream("x")
        first = a.stream("arrivals").normal(size=5)
        second = b.stream("arrivals").normal(size=5)
        np.testing.assert_array_equal(first, second)

    def test_different_names_differ(self):
        registry = StreamRegistry(seed=1)
        a = registry.stream("a").normal(size=5)
        b = registry.stream("b").normal(size=5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = StreamRegistry(seed=1).stream("x").normal(size=5)
        b = StreamRegistry(seed=2).stream("x").normal(size=5)
        assert not np.array_equal(a, b)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            StreamRegistry().stream("")

    def test_negative_seed_rejected_at_construction(self):
        # Regression: a negative seed used to surface lazily at the first
        # stream() call as an opaque SeedSequence error.
        with pytest.raises(ValueError, match="non-negative"):
            StreamRegistry(seed=-3)

    def test_names_listing(self):
        registry = StreamRegistry()
        registry.stream("b")
        registry.stream("a")
        assert registry.names() == ["a", "b"]


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
class TestDistributionContract:
    def test_samples_nonnegative(self, dist, rng):
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(s >= 0 for s in samples)

    def test_empirical_mean_matches_analytic(self, dist):
        rng = np.random.default_rng(0)
        samples = np.array([dist.sample(rng) for _ in range(8000)])
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.08)


class TestSpecifics:
    def test_deterministic_is_constant(self, rng):
        dist = Deterministic(1.5)
        assert {dist.sample(rng) for _ in range(5)} == {1.5}

    def test_erlang_less_variable_than_exponential(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        exponential = np.array(
            [Exponential(1.0).sample(rng_a) for _ in range(4000)]
        )
        erlang = np.array([Erlang(1.0, k=8).sample(rng_b) for _ in range(4000)])
        assert erlang.std() < exponential.std()

    def test_hyperexponential_more_variable_than_exponential(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        hyper = Hyperexponential(means=[0.1, 10.0], weights=[0.9, 0.1])
        exponential = Exponential(hyper.mean())
        h = np.array([hyper.sample(rng_a) for _ in range(4000)])
        e = np.array([exponential.sample(rng_b) for _ in range(4000)])
        assert h.std() > e.std()

    def test_uniform_bounds(self, rng):
        dist = Uniform(1.0, 2.0)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 1.0 and max(samples) <= 2.0

    def test_geometric_integers_at_least_one(self, rng):
        dist = Geometric(0.5)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(s >= 1 and s == int(s) for s in samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Erlang(1.0, k=0)
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            LogNormal(-1.0)
        with pytest.raises(ValueError):
            Hyperexponential([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            Hyperexponential([1.0, -1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            Geometric(0.0)
        with pytest.raises(ValueError):
            Deterministic(-1.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Deterministic(NAN), "value must be non-negative"),
        (lambda: Exponential(NAN), "mean must be positive"),
        (lambda: Erlang(NAN), "mean must be positive"),
        (lambda: Uniform(NAN, 1.0), "need 0 <= low <= high"),
        (lambda: Uniform(0.0, NAN), "need 0 <= low <= high"),
        (lambda: LogNormal(NAN), "mean must be positive"),
        (lambda: LogNormal(1.0, sigma=NAN), "sigma must be positive"),
        (lambda: Hyperexponential([NAN, 0.02], [0.5, 0.5]), "means must be"),
    ],
    ids=[
        "deterministic",
        "exponential",
        "erlang",
        "uniform-low",
        "uniform-high",
        "lognormal-mean",
        "lognormal-sigma",
        "hyperexponential-means",
    ],
)
def test_nan_parameter_rejected(make, message):
    """Every guard is written so that NaN fails it."""
    with pytest.raises(ValueError, match=message):
        make()


_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
    min_size=1,
    max_size=8,
).filter(lambda w: sum(w) > 0)


@given(weights=_WEIGHTS, seed=st.integers(0, 2**63 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_weighted_choice_is_generator_choice(weights, seed):
    """Same indices as ``Generator.choice`` on a twin generator, and the
    same generator state afterwards."""
    w = np.array(weights)
    p = w / w.sum()
    choice = WeightedChoice(p)
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(64):
        assert choice.draw(ours) == twin.choice(len(w), p=p)
    assert ours.random() == twin.random()


def test_weighted_choice_draw_on_a_cdf_step_goes_right():
    """A draw equal to a CDF entry takes the next index with non-zero
    weight, as ``searchsorted(side="right")`` inside ``choice`` does."""
    u = np.random.default_rng(0).random()
    p = [u, 0.0, 1.0 - u]
    assert np.cumsum(p).tolist() == [u, u, 1.0]  # the draw lands on a step
    assert WeightedChoice(p).draw(np.random.default_rng(0)) == 2
    assert np.random.default_rng(0).choice(3, p=p) == 2


@pytest.mark.parametrize(
    "weights",
    [[NAN, 1.0], [float("inf"), 1.0], [-0.5, 1.0], [0.0, 0.0], []],
    ids=["nan", "inf", "negative", "all-zero", "empty"],
)
def test_weighted_choice_rejects_invalid_weights(weights):
    with pytest.raises(ValueError, match="weights must"):
        WeightedChoice(weights)


@pytest.mark.parametrize(
    "weights", [[NAN, 1.0], [float("inf"), 1.0]], ids=["nan", "inf"]
)
def test_hyperexponential_rejects_bad_weights_at_construction(weights):
    # Regression: these used to construct and fail at the first draw,
    # inside numpy.
    with pytest.raises(ValueError, match="weights must"):
        Hyperexponential(means=[0.01, 0.02], weights=weights)


# One-shot script hashing every stochastic surface that feeds the trace
# factory: named streams x distribution families, plus a generated
# synthetic trace file.  Run in separate interpreters with different
# PYTHONHASHSEED values, the digests must match bit-for-bit — nothing in
# the seeding path may depend on Python's per-process string hashing.
_BIT_IDENTITY_SCRIPT = r"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.workload.distributions import (
    Exponential,
    Hyperexponential,
    LogNormal,
)
from repro.workload.rng import StreamRegistry

registry = StreamRegistry(seed=7)
draws = []
for name in ("arrivals", "mix", "service-times", "trace-arrivals"):
    rng = registry.stream(name)
    for dist in (
        Exponential(0.5),
        LogNormal(2.0, 0.5),
        Hyperexponential([0.1, 2.0], [0.7, 0.3]),
    ):
        draws.extend(dist.sample(rng) for _ in range(64))
digest = hashlib.sha256(np.array(draws, dtype=float).tobytes())

from repro.traces.synthetic import default_sample_spec, generate_synthetic_trace

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.csv"
    generate_synthetic_trace(path, default_sample_spec(seed=123))
    digest.update(path.read_bytes())

sys.stdout.write(digest.hexdigest())
"""


def test_cross_process_bit_identity():
    """Same seed, different interpreters (and hash seeds) -> same bits."""
    root = Path(__file__).resolve().parents[1]
    digests = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", _BIT_IDENTITY_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(root),
            check=False,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


def test_registry():
    assert isinstance(get_distribution("exponential", mean=1.0), Exponential)
    instance = Uniform(0.0, 1.0)
    assert get_distribution(instance) is instance
    with pytest.raises(KeyError):
        get_distribution("pareto")
    with pytest.raises(ValueError):
        get_distribution(instance, low=0.5)
