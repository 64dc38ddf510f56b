"""Argument-validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalError
from repro.utils import validation as v


class TestCheckPositive:
    def test_accepts_positive(self):
        assert v.check_positive("x", 2.5) == 2.5

    def test_coerces_int(self):
        result = v.check_positive("x", 3)
        assert result == 3.0 and isinstance(result, float)

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"),
                                     "3", None, True])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            v.check_positive("x", bad)

    def test_error_names_the_argument(self):
        with pytest.raises(ConfigurationError, match="sample_rate"):
            v.check_positive("sample_rate", -1)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert v.check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            v.check_non_negative("x", -1e-9)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert v.check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert v.check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ConfigurationError):
            v.check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            v.check_in_range("x", 2.1, 1.0, 2.0)


class TestCheckInt:
    def test_accepts_numpy_integer(self):
        assert v.check_int("n", np.int64(5)) == 5

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            v.check_int("n", True)

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            v.check_int("n", 5.0)

    def test_positive_int(self):
        assert v.check_positive_int("n", 1) == 1
        with pytest.raises(ConfigurationError):
            v.check_positive_int("n", 0)

    def test_non_negative_int(self):
        assert v.check_non_negative_int("n", 0) == 0
        with pytest.raises(ConfigurationError):
            v.check_non_negative_int("n", -1)


class TestCheckProbability:
    def test_bounds(self):
        assert v.check_probability("p", 0.0) == 0.0
        assert v.check_probability("p", 1.0) == 1.0

    def test_rejects(self):
        with pytest.raises(ConfigurationError):
            v.check_probability("p", 1.01)


class TestCheckWaveform:
    def test_coerces_list(self):
        out = v.check_waveform("x", [1, 2, 3])
        assert out.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(SignalError):
            v.check_waveform("x", np.zeros((2, 2)))

    def test_rejects_short(self):
        with pytest.raises(SignalError):
            v.check_waveform("x", [1.0], min_length=2)

    def test_rejects_nan(self):
        with pytest.raises(SignalError):
            v.check_waveform("x", [1.0, np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_real_sample(self, bad):
        with pytest.raises(SignalError):
            v.check_waveform("x", [0.5, bad, -0.5])

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.5), complex(np.inf, 0.5), complex(-np.inf, 0.0),
        complex(0.5, np.nan), complex(0.5, np.inf), complex(0.0, -np.inf),
    ], ids=["nan-real", "inf-real", "-inf-real", "nan-imag", "inf-imag",
            "-inf-imag"])
    def test_rejects_non_finite_complex_part(self, bad):
        with pytest.raises(SignalError):
            v.check_waveform("x", np.array([0.5 + 0.5j, bad, 0.0j]),
                             allow_complex=True)

    def test_accepts_finite_samples_whose_squares_overflow(self):
        real = v.check_waveform("x", [1e200, -1e200, 1.0])
        np.testing.assert_array_equal(real, [1e200, -1e200, 1.0])
        big = np.array([1e200 + 1e200j, 1.0j])
        np.testing.assert_array_equal(
            v.check_waveform("x", big, allow_complex=True), big)

    def test_accepts_finite_samples_whose_sum_overflows(self):
        huge = np.full(3, 1.5e308)
        np.testing.assert_array_equal(v.check_waveform("x", huge), huge)
        mixed = np.array([1.5e308 - 1.5e308j, 1.5e308 - 1.5e308j])
        np.testing.assert_array_equal(
            v.check_waveform("x", mixed, allow_complex=True), mixed)

    def test_rejects_opposite_infinities(self):
        with pytest.raises(SignalError):
            v.check_waveform("x", [np.inf, 1.0, -np.inf])

    def test_rejects_complex_by_default(self):
        with pytest.raises(SignalError):
            v.check_waveform("x", np.array([1j, 2j]))

    def test_allows_complex_when_asked(self):
        out = v.check_waveform("x", np.array([1j, 2j]), allow_complex=True)
        assert out.dtype == np.complex128


class TestCheckImpulseResponse:
    def test_rejects_all_zero(self):
        with pytest.raises(SignalError):
            v.check_impulse_response("h", np.zeros(8))

    def test_accepts_delta(self):
        h = v.check_impulse_response("h", [0.0, 1.0, 0.0])
        assert h[1] == 1.0


class TestCheckSameLength:
    def test_ok(self):
        a, b = v.check_same_length("a", [1, 2], "b", [3, 4])
        assert len(a) == len(b)

    def test_mismatch(self):
        with pytest.raises(SignalError, match="equal length"):
            v.check_same_length("a", [1], "b", [1, 2])
