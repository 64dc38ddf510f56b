"""LMS/NLMS adaptive filter."""

import numpy as np
import pytest

from repro.core import LmsFilter, identify_system
from repro.errors import ConvergenceError


class TestLmsFilter:
    def test_identifies_fir_system(self, rng):
        h = np.array([0.5, -0.3, 0.2])
        x = rng.standard_normal(4000)
        d = np.convolve(x, h)[:4000]
        lms = LmsFilter(n_taps=6, mu=0.5)
        result = lms.run(x, d)
        np.testing.assert_allclose(result.taps[:3], h, atol=1e-3)
        np.testing.assert_allclose(result.taps[3:], 0.0, atol=1e-3)

    def test_error_decreases(self, rng):
        h = np.array([1.0, 0.4])
        x = rng.standard_normal(4000)
        d = np.convolve(x, h)[:4000]
        result = LmsFilter(n_taps=4, mu=0.5).run(x, d)
        early = np.mean(result.error[:200] ** 2)
        late = np.mean(result.error[-200:] ** 2)
        assert late < early / 100.0

    def test_tracks_time_varying_system(self, rng):
        x = rng.standard_normal(6000)
        d = np.concatenate([2.0 * x[:3000], -2.0 * x[3000:]])
        lms = LmsFilter(n_taps=1, mu=1.0)
        result = lms.run(x, d)
        assert abs(result.taps[0] + 2.0) < 0.05   # converged to the new sign

    def test_unnormalized_diverges_with_huge_mu(self, rng):
        x = 10.0 * rng.standard_normal(2000)
        d = x.copy()
        lms = LmsFilter(n_taps=4, mu=5.0, normalized=False)
        with pytest.raises(ConvergenceError):
            lms.run(x, d)

    def test_normalized_stable_with_same_mu_scaled_input(self, rng):
        x = 10.0 * rng.standard_normal(2000)
        d = x.copy()
        lms = LmsFilter(n_taps=4, mu=1.0, normalized=True)
        result = lms.run(x, d)
        assert np.all(np.isfinite(result.taps))

    def test_leak_shrinks_taps_without_input(self):
        lms = LmsFilter(n_taps=2, mu=0.5, leak=0.01)
        lms.taps[:] = [1.0, 1.0]
        lms.run(np.zeros(100), np.zeros(100))
        assert np.all(np.abs(lms.taps) < 0.5)

    def test_reset(self, rng):
        lms = LmsFilter(n_taps=3, mu=0.5)
        lms.run(rng.standard_normal(100), rng.standard_normal(100))
        lms.reset()
        np.testing.assert_array_equal(lms.taps, np.zeros(3))

    def test_rejects_bad_leak(self):
        with pytest.raises(ValueError):
            LmsFilter(n_taps=2, leak=1.0)

    def test_step_returns_prediction_and_error(self):
        """One sample of predict-then-adapt: zero taps predict zero."""
        lms = LmsFilter(n_taps=2, mu=0.5)
        result = lms.run(np.array([1.0]), np.array([3.0]))
        assert result.output[0] == 0.0
        assert result.error[0] == 3.0
        assert result.taps[0] > 0.0


class TestIdentifySystem:
    def test_multi_pass_improves(self, rng):
        h = rng.standard_normal(8) * 0.3
        x = rng.standard_normal(2000)
        d = np.convolve(x, h)[:2000]
        est = identify_system(x, d, n_taps=8, n_passes=3)
        assert np.linalg.norm(est - h) < 0.02

    def test_longer_estimate_padded_with_zeros(self, rng):
        h = np.array([0.7])
        x = rng.standard_normal(2000)
        d = 0.7 * x
        est = identify_system(x, d, n_taps=4)
        assert est[0] == pytest.approx(0.7, abs=1e-3)
        np.testing.assert_allclose(est[1:], 0.0, atol=1e-3)
