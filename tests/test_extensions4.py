"""Measured surfaces and surface agreement."""

import numpy as np
import pytest

from repro.analysis.measured import (
    measure_surface,
    surface_agreement,
)
from repro.analysis.surface import ResponseSurface, sweep
from repro.workload.service import ThreeTierWorkload


class TestMeasureSurface:
    @pytest.fixture(scope="class")
    def measured(self, ):
        workload = ThreeTierWorkload(warmup=0.3, duration=1.5, seed=3)
        return measure_surface(
            workload,
            indicator="dealer_browse_rt",
            row_param="default_threads",
            row_values=[6, 14],
            col_param="web_threads",
            col_values=[14, 18, 22],
            fixed={"injection_rate": 400.0, "mfg_threads": 16.0},
        )

    def test_grid_shape_and_positivity(self, measured):
        assert measured.z.shape == (2, 3)
        assert np.all(measured.z > 0)

    def test_caption_matches_sweep(self, measured):
        assert measured.caption_tuple() == "(400, x, 16, y)"

    def test_wall_visible_in_measured_surface(self, measured):
        # web=14 must be slower than web=18 at this rate.
        assert measured.z[:, 0].mean() > measured.z[:, 1].mean()

    def test_validation(self):
        workload = ThreeTierWorkload(warmup=0.2, duration=1.0, seed=0)
        with pytest.raises(ValueError, match="indicator"):
            measure_surface(
                workload, "nope", "default_threads", [1], "web_threads", [1],
                fixed={"injection_rate": 300, "mfg_threads": 16},
            )
        with pytest.raises(ValueError, match="fixed"):
            measure_surface(
                workload, "effective_tps", "default_threads", [1],
                "web_threads", [1], fixed={},
            )


class TestSurfaceAgreement:
    def make_pair(self, scale=1.1):
        rows = np.array([0.0, 10.0])
        cols = np.array([14.0, 18.0])
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        measured = ResponseSurface(
            "default_threads", "web_threads", rows, cols, z, "t", {}
        )
        predicted = ResponseSurface(
            "default_threads", "web_threads", rows, cols, z * scale, "t", {}
        )
        return predicted, measured

    def test_uniform_scale_error(self):
        predicted, measured = self.make_pair(scale=1.1)
        agreement = surface_agreement(predicted, measured)
        assert agreement.harmonic_mean_error == pytest.approx(0.1)
        assert agreement.median_error == pytest.approx(0.1)

    def test_worst_cell_located(self):
        predicted, measured = self.make_pair(scale=1.0)
        predicted.z[1, 1] *= 2.0
        agreement = surface_agreement(predicted, measured)
        (row, col), worst = agreement.worst_cell
        assert (row, col) == (10.0, 18.0)
        assert worst == pytest.approx(1.0)

    def test_grid_mismatch_rejected(self):
        predicted, measured = self.make_pair()
        other = ResponseSurface(
            "default_threads",
            "web_threads",
            np.array([0.0, 10.0, 20.0]),
            measured.col_values,
            np.ones((3, 2)),
            "t",
            {},
        )
        with pytest.raises(ValueError):
            surface_agreement(other, measured)

    def test_text(self):
        predicted, measured = self.make_pair()
        assert "harmonic-mean error" in surface_agreement(
            predicted, measured
        ).to_text()
