"""Scalers (paper Section 3.1 standardization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.preprocessing.scalers import (
    IdentityScaler,
    MinMaxScaler,
    StandardScaler,
    available_scalers,
    get_scaler,
)

ALL_SCALERS = [StandardScaler, MinMaxScaler, IdentityScaler]


@pytest.fixture
def features(rng):
    return rng.normal(loc=[10.0, -5.0, 0.0], scale=[3.0, 0.5, 1.0], size=(50, 3))


class TestStandardScaler:
    def test_zero_mean_unit_std(self, features):
        scaled = StandardScaler().fit_transform(features)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-12)

    def test_inverse_round_trip(self, features):
        scaler = StandardScaler().fit(features)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(features)),
            features,
            rtol=1e-10,
        )

    def test_constant_feature_centered_not_scaled(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(scaled[:, 0], 0.0)
        assert np.isfinite(scaled).all()

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_feature_count_checked(self, features):
        scaler = StandardScaler().fit(features)
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((2, 4)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 3)))

    def test_1d_treated_as_single_feature(self):
        scaled = StandardScaler().fit_transform(np.array([1.0, 2.0, 3.0]))
        assert scaled.shape == (3, 1)


class TestMinMaxScaler:
    def test_default_unit_interval(self, features):
        scaled = MinMaxScaler().fit_transform(features)
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_custom_interval(self, features):
        scaled = MinMaxScaler(low=-1.0, high=1.0).fit_transform(features)
        assert scaled.min() == pytest.approx(-1.0)
        assert scaled.max() == pytest.approx(1.0)

    def test_inverse_round_trip(self, features):
        scaler = MinMaxScaler().fit(features)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(features)),
            features,
            rtol=1e-10,
        )

    def test_constant_feature_maps_to_midpoint(self):
        x = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        scaled = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(scaled[:, 0], 0.5)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler(low=1.0, high=1.0)


class TestIdentityScaler:
    def test_passthrough_and_copy(self, features):
        scaler = IdentityScaler().fit(features)
        out = scaler.transform(features)
        np.testing.assert_array_equal(out, features)
        out[0, 0] = 999.0
        assert features[0, 0] != 999.0

    def test_inverse_is_identity(self, features):
        scaler = IdentityScaler().fit(features)
        np.testing.assert_array_equal(
            scaler.inverse_transform(features), features
        )


class TestRegistry:
    def test_by_name(self):
        assert isinstance(get_scaler("standard"), StandardScaler)
        assert isinstance(get_scaler("minmax", low=0, high=2), MinMaxScaler)

    def test_none_means_identity(self):
        assert isinstance(get_scaler(None), IdentityScaler)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_scaler("robust")

    def test_listing(self):
        assert set(available_scalers()) == {"standard", "minmax", "identity"}


@given(
    arrays(
        np.float64,
        (7, 3),
        elements=st.floats(min_value=-1e6, max_value=1e6),
    )
)
@settings(max_examples=60, deadline=None)
def test_scaler_round_trip_property(x):
    """transform∘inverse_transform is the identity for every scaler."""
    for scaler_cls in ALL_SCALERS:
        scaler = scaler_cls().fit(x)
        round_tripped = scaler.inverse_transform(scaler.transform(x))
        np.testing.assert_allclose(round_tripped, x, rtol=1e-7, atol=1e-6)
