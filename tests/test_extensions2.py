"""Pinball loss, quantile models and adaptive sampling."""

import numpy as np
import pytest

from repro.models.quantile import QuantileWorkloadModel, tail_targets
from repro.nn.losses import Pinball
from repro.workload.adaptive import AdaptiveSampler
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.sampler import ConfigSpace, ParameterRange
from repro.workload.service import ThreeTierWorkload, WorkloadConfig


class TestPinball:
    def test_zero_at_exact_prediction(self):
        y = np.array([[1.0], [2.0]])
        assert Pinball(0.9).value(y, y) == 0.0

    def test_asymmetric_penalties(self):
        loss = Pinball(0.9)
        actual = np.array([[1.0]])
        under = loss.value(np.array([[0.5]]), actual)  # under-prediction
        over = loss.value(np.array([[1.5]]), actual)  # over-prediction
        # q = 0.9 punishes under-prediction 9x more than over-prediction.
        assert under == pytest.approx(9 * over)

    def test_gradient_matches_finite_difference(self, rng):
        loss = Pinball(0.75)
        predicted = rng.normal(size=(5, 2))
        actual = rng.normal(size=(5, 2))
        analytic = loss.gradient(predicted, actual)
        eps = 1e-6
        numeric = np.zeros_like(predicted)
        for index in np.ndindex(predicted.shape):
            bump = predicted.copy()
            bump[index] += eps
            up = loss.value(bump, actual)
            bump[index] -= 2 * eps
            down = loss.value(bump, actual)
            numeric[index] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-9)

    def test_constant_fit_converges_to_quantile(self):
        """The defining property: minimizing pinball predicts the quantile."""
        from repro.nn.mlp import MLP
        from repro.nn.optimizers import Adam
        from repro.nn.training import Trainer

        rng = np.random.default_rng(0)
        x = np.zeros((500, 1))
        y = rng.exponential(1.0, size=(500, 1))
        net = MLP([1, 1], seed=0)
        Trainer(net, loss=Pinball(0.9), optimizer=Adam(0.05), seed=0).fit(
            x, y, max_epochs=2500
        )
        predicted = float(net.predict(np.zeros((1, 1)))[0, 0])
        assert predicted == pytest.approx(float(np.quantile(y, 0.9)), rel=0.08)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Pinball(0.0)
        with pytest.raises(ValueError):
            Pinball(1.0)


class TestQuantileModel:
    @pytest.fixture(scope="class")
    def tail_data(self):
        workload = ThreeTierWorkload(warmup=0.5, duration=2.5, seed=3)
        configs = [
            WorkloadConfig(rate, d, 16, w)
            for rate in (300, 400)
            for d in (10, 16)
            for w in (16, 19, 22)
        ]
        metrics = [workload.run(c) for c in configs]
        x = np.vstack([c.as_vector() for c in configs])
        return x, metrics

    def test_tail_targets_shape_and_order(self, tail_data):
        x, metrics = tail_data
        targets = tail_targets(metrics, percentile=90)
        assert targets.shape == (len(metrics), 5)
        # p90 >= p50 for every response-time column.
        p50 = tail_targets(metrics, percentile=50)
        assert np.all(targets[:, :4] >= p50[:, :4])

    def test_tail_targets_validation(self, tail_data):
        _, metrics = tail_data
        with pytest.raises(ValueError):
            tail_targets(metrics, percentile=75)

    def test_quantile_model_predicts_above_the_mean_model(self, tail_data):
        x, metrics = tail_data
        p90 = tail_targets(metrics, percentile=90)
        model = QuantileWorkloadModel(
            quantile=0.9, hidden=(8,), max_epochs=2000, seed=0
        ).fit(x, p90)
        predicted = model.predict(x)
        means = np.vstack([m.as_vector() for m in metrics])
        # Predicted p90 response times sit above the mean response times
        # for the bulk of the samples.
        above = predicted[:, :4] > means[:, :4]
        assert above.mean() > 0.7

    def test_contract(self, tail_data):
        x, metrics = tail_data
        p90 = tail_targets(metrics, percentile=90)
        model = QuantileWorkloadModel(hidden=(6,), max_epochs=50, seed=0)
        with pytest.raises(RuntimeError):
            model.predict(x)
        model.fit(x, p90)
        assert model.predict(x).shape == p90.shape
        assert model.quantile == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileWorkloadModel(quantile=1.5)
        with pytest.raises(ValueError):
            QuantileWorkloadModel(hidden=())


SPACE = ConfigSpace(
    [
        ParameterRange("injection_rate", 400, 600),
        ParameterRange("default_threads", 2, 22),
        ParameterRange("mfg_threads", 12, 20),
        ParameterRange("web_threads", 14, 23),
    ]
)


class TestAdaptiveSampler:
    def test_budget_respected_and_rounds_recorded(self):
        sampler = AdaptiveSampler(
            AnalyticWorkloadModel(),
            SPACE,
            n_initial=8,
            batch_size=3,
            n_candidates=40,
            seed=0,
        )
        result = sampler.collect(budget=14)
        assert 8 <= len(result.dataset) <= 14
        assert len(result.rounds) == 2
        assert result.rounds[-1].n_samples_after == len(result.dataset)
        assert "round" in result.to_text()

    def test_acquired_points_are_novel(self):
        sampler = AdaptiveSampler(
            AnalyticWorkloadModel(),
            SPACE,
            n_initial=8,
            batch_size=4,
            n_candidates=60,
            seed=1,
        )
        result = sampler.collect(budget=12)
        rows = [tuple(r) for r in result.dataset.x]
        assert len(set(rows)) == len(rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSampler(AnalyticWorkloadModel(), SPACE, n_initial=2)
        with pytest.raises(ValueError):
            AdaptiveSampler(AnalyticWorkloadModel(), SPACE, batch_size=0)
        sampler = AdaptiveSampler(AnalyticWorkloadModel(), SPACE)
        with pytest.raises(ValueError):
            sampler.collect(budget=3)
