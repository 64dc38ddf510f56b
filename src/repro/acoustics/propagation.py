"""Free-field propagation: delays, spreading loss, fractional delay filters.

Sound from a point source reaches a microphone after ``d / v`` seconds
with amplitude falling as ``1/d`` (spherical spreading).  Because delays
rarely land on integer sample boundaries, a windowed-sinc fractional
delay filter is used wherever sub-sample accuracy matters (image-source
reflections, the conventional-ANC phase-lag model).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils import fastconv
from ..utils.validation import check_non_negative, check_positive, check_waveform
from .constants import SPEED_OF_SOUND

__all__ = [
    "delay_seconds",
    "delay_samples",
    "spreading_gain",
    "fractional_delay_filter",
    "windowed_sinc_kernels",
    "apply_delay",
]


def delay_seconds(distance_m, speed=SPEED_OF_SOUND):
    """Propagation delay over ``distance_m`` meters, in seconds."""
    distance_m = check_non_negative("distance_m", distance_m)
    speed = check_positive("speed", speed)
    return distance_m / speed


def delay_samples(distance_m, sample_rate, speed=SPEED_OF_SOUND):
    """Propagation delay in (fractional) samples."""
    sample_rate = check_positive("sample_rate", sample_rate)
    return delay_seconds(distance_m, speed) * sample_rate


def spreading_gain(distance_m, reference_m=1.0):
    """Spherical spreading amplitude gain relative to ``reference_m``.

    Clamped below ``reference_m / 4`` distance so a microphone virtually
    touching the source does not produce unbounded gain.
    """
    distance_m = check_non_negative("distance_m", distance_m)
    reference_m = check_positive("reference_m", reference_m)
    return reference_m / max(distance_m, reference_m / 4.0)


def windowed_sinc_kernels(delays, n_taps):
    """Rows of unit-DC windowed-sinc kernels, one per entry of ``delays``.

    Row ``i`` realizes a delay of ``center + frac(delays[i])`` samples
    over ``n_taps`` (odd) taps, ``center = n_taps // 2``.  Returns
    ``(kernels, shifts)`` with ``shifts[i] = floor(delays[i]) - center``:
    the kernel belongs ``shifts[i]`` samples later than a filter that
    starts at zero delay.  :func:`fractional_delay_filter` is one row of
    this; the image-source builder evaluates every image's row at once,
    and each row is bit-identical to evaluating it alone.
    """
    center = n_taps // 2
    whole = np.floor(delays)
    frac = delays - whole
    # Symmetric windowed-sinc kernel realizing a delay of (center + frac):
    # centering the window on the sinc peak keeps the group delay exact.
    offset = np.arange(n_taps) - (center + frac)[..., None]
    half_width = center + 1.0
    window = np.where(
        np.abs(offset) <= half_width,
        0.5 * (1.0 + np.cos(np.pi * offset / half_width)),
        0.0,
    )
    kernels = np.sinc(offset) * window
    kernels /= kernels.sum(axis=-1, keepdims=True)   # unit DC gain
    return kernels, whole - center


def fractional_delay_filter(delay, n_taps=31):
    """Windowed-sinc FIR approximating a ``delay``-sample delay.

    Parameters
    ----------
    delay:
        Non-negative delay in samples; may be fractional.  The filter
        length grows automatically if the delay exceeds the tap span.
    n_taps:
        Nominal filter length (odd recommended).

    Returns
    -------
    numpy.ndarray
        FIR coefficients ``h`` such that ``(h * x)[t] ≈ x[t - delay]``.
    """
    delay = check_non_negative("delay", delay)
    if n_taps < 3:
        raise ConfigurationError(f"n_taps must be >= 3, got {n_taps}")
    n_taps = int(n_taps)
    if n_taps % 2 == 0:
        n_taps += 1
    kernels, shifts = windowed_sinc_kernels(np.array([delay]), n_taps)
    kernel = kernels[0]
    shift = int(shifts[0])
    if shift >= 0:
        return np.concatenate([np.zeros(shift), kernel])
    # Small delays: the causal constraint forces truncating the kernel's
    # left tail; accuracy degrades gracefully as delay -> 0.
    taps = kernel[-shift:]
    total = taps.sum()
    if abs(total) > 1e-9:
        taps = taps / total
    return taps


def apply_delay(signal, delay, sample_rate=None):
    """Delay a waveform by ``delay`` samples (fractional allowed).

    Integer delays shift exactly (zero-padded at the front); fractional
    delays use :func:`fractional_delay_filter`.  Output length equals the
    input length.
    """
    signal = check_waveform("signal", signal)
    delay = check_non_negative("delay", delay)
    n = signal.size
    int_delay = int(round(delay))
    if abs(delay - int_delay) < 1e-9:
        if int_delay == 0:
            return signal.copy()
        if int_delay >= n:
            return np.zeros(n)
        out = np.zeros(n)
        out[int_delay:] = signal[: n - int_delay]
        return out
    # The worst standalone convolution offender before the perf
    # overhaul: a fresh full-length np.convolve per fractional delay.
    # The shared engine caches the kernel's spectrum across calls.
    taps = fractional_delay_filter(delay)
    return fastconv.fir_apply(signal, taps, mode="same")
