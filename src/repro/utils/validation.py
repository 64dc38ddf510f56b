"""Argument-validation helpers.

Simulations are long-running; these helpers reject bad configuration at
construction time with precise error messages instead of letting NaNs
surface minutes later.  All helpers return the validated (and possibly
coerced) value so they compose in assignments::

    self.sample_rate = check_positive("sample_rate", sample_rate)
"""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import ConfigurationError, SignalError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_int",
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_waveform",
    "check_impulse_response",
    "check_same_length",
]


def check_positive(name, value):
    """Validate that ``value`` is a finite number > 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    return value


def check_non_negative(name, value):
    """Validate that ``value`` is a finite number >= 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_in_range(name, value, low, high, inclusive=True):
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not np.isfinite(value) or not ok:
        raise ConfigurationError(f"{name} must be in {bounds}, got {value}")
    return value


def check_int(name, value):
    """Validate that ``value`` is an integer (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive_int(name, value):
    """Validate that ``value`` is an integer > 0."""
    value = check_int(name, value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative_int(name, value):
    """Validate that ``value`` is an integer >= 0."""
    value = check_int(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name, value):
    """Validate that ``value`` is a probability in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_waveform(name, signal, min_length=1, allow_complex=False):
    """Validate and coerce a 1-D waveform to a float (or complex) ndarray.

    Raises
    ------
    SignalError
        If the array is not 1-D, too short, or contains non-finite values.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {signal.shape}")
    if signal.size < min_length:
        raise SignalError(
            f"{name} must have at least {min_length} samples, got {signal.size}"
        )
    if np.iscomplexobj(signal):
        if not allow_complex:
            raise SignalError(f"{name} must be real-valued")
        signal = signal.astype(np.complex128, copy=False)
    else:
        signal = signal.astype(np.float64, copy=False)
    # A NaN or inf makes the sum of squares non-finite; finite samples
    # whose squares overflow (1e200) take the exact elementwise check.
    if (not np.isfinite(np.vdot(signal, signal))
            and not np.all(np.isfinite(signal))):
        raise SignalError(f"{name} contains non-finite samples")
    return signal


def check_impulse_response(name, h, min_length=1):
    """Validate an impulse response: a real 1-D waveform with some energy."""
    h = check_waveform(name, h, min_length=min_length)
    if not np.any(h):
        raise SignalError(f"{name} has no energy (all-zero impulse response)")
    return h


def check_same_length(name_a, a, name_b, b):
    """Validate that two arrays have equal length."""
    if len(a) != len(b):
        raise SignalError(
            f"{name_a} and {name_b} must have equal length, "
            f"got {len(a)} and {len(b)}"
        )
    return a, b
