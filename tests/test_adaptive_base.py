"""Adaptive-filter shared machinery."""

import numpy as np
import pytest

from repro.core.adaptive.base import (
    AdaptationResult,
    TapVector,
    effective_step,
    guard_divergence,
    mse_curve,
)
from repro.errors import ConvergenceError
from tests.oracle import tap_window


class TestTapVector:
    def test_zero_initialized(self):
        tv = TapVector(n_future=2, n_past=3)
        assert len(tv) == 5
        assert tv.tap(-2) == 0.0

    def test_paper_indexing(self):
        tv = TapVector(n_future=2, n_past=3,
                       values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert tv.tap(-2) == 1.0    # most futuristic
        assert tv.tap(0) == 3.0     # current sample
        assert tv.tap(2) == 5.0     # oldest

    def test_set_tap(self):
        tv = TapVector(n_future=1, n_past=1)
        tv.set_tap(-1, 7.0)
        assert tv.values[0] == 7.0

    def test_copy_independent(self):
        tv = TapVector(n_future=1, n_past=1)
        cp = tv.copy()
        cp.set_tap(0, 9.0)
        assert tv.tap(0) == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ConvergenceError):
            TapVector(n_future=1, n_past=1, values=np.zeros(3))


class TestWindows:
    def test_tap_window_orientation(self):
        # y(t) = sum_i taps[i] * x(t + n_future - i): window[0] is the
        # most futuristic sample.
        # n_past - 1 = 2 zeros before the data, n_future = 2 after.
        padded = np.concatenate([np.zeros(2), np.arange(10.0), np.zeros(2)])
        win = tap_window(padded, 2, t=5, n_future=2, n_past=3)
        np.testing.assert_array_equal(win, [7.0, 6.0, 5.0, 4.0, 3.0])

    def test_tap_window_zero_padding_at_edges(self):
        padded = np.concatenate([np.zeros(2), np.arange(10.0), np.zeros(2)])
        win = tap_window(padded, 2, t=0, n_future=2, n_past=3)
        np.testing.assert_array_equal(win, [2.0, 1.0, 0.0, 0.0, 0.0])
        win_end = tap_window(padded, 2, t=9, n_future=2, n_past=3)
        np.testing.assert_array_equal(win_end, [0.0, 0.0, 9.0, 8.0, 7.0])


class TestMseCurve:
    def test_constant_error(self):
        curve = mse_curve(np.full(100, 2.0), window=10)
        np.testing.assert_allclose(curve[20:80], 4.0)

    def test_length_preserved(self):
        assert mse_curve(np.ones(37)).size == 37


class TestGuards:
    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError, match="step size"):
            guard_divergence(1e7, "test")

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError):
            guard_divergence(float("nan"), "test")

    def test_normal_value_passes(self):
        guard_divergence(0.5, "test")


class TestEffectiveStep:
    def test_unnormalized(self):
        assert effective_step(0.1, np.ones(4), normalized=False) == 0.1

    def test_normalized_by_power(self):
        step = effective_step(1.0, np.array([2.0, 0.0]), normalized=True)
        assert step == pytest.approx(0.25, rel=1e-6)

    def test_epsilon_prevents_blowup(self):
        step = effective_step(1.0, np.zeros(4), normalized=True)
        assert np.isfinite(step)


class TestAdaptationResult:
    def test_converged_error_uses_tail(self):
        error = np.concatenate([np.full(75, 10.0), np.zeros(25)])
        result = AdaptationResult(error=error, output=error,
                                  taps=np.zeros(2),
                                  mse_trajectory=mse_curve(error))
        assert result.converged_error(fraction=0.25) == 0.0
