"""Stochastic wide-band noise sources.

White noise is the paper's headline workload ("most unpredictable of all
noises", Figure 12); pink and band-limited variants model background hums
and machinery broadband components.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import SignalSource

__all__ = ["WhiteNoise", "PinkNoise", "BandlimitedNoise"]


class WhiteNoise(SignalSource):
    """Gaussian white noise: flat spectrum across [0, Nyquist]."""

    name = "white noise"

    def _raw(self, n_samples, rng):
        return rng.standard_normal(n_samples)


class PinkNoise(SignalSource):
    """1/f (pink) noise via the Voss–McCartney inspired FIR shaping.

    Implemented by filtering white noise with the standard 3-pole/3-zero
    pinking filter (Paul Kellet's economy coefficients), accurate to
    ±0.5 dB across the audio band — good enough for profiling workloads.
    """

    name = "pink noise"

    #: Pinking filter numerator/denominator (Kellet).
    _B = np.array([0.049922035, -0.095993537, 0.050612699, -0.004408786])
    _A = np.array([1.0, -2.494956002, 2.017265875, -0.522189400])

    def _raw(self, n_samples, rng):
        from scipy import signal as sps

        white = rng.standard_normal(n_samples + 2048)
        pink = sps.lfilter(self._B, self._A, white)
        return pink[2048:]  # drop the filter warm-up transient


class BandlimitedNoise(SignalSource):
    """Gaussian noise restricted to ``[f_low, f_high]`` Hz.

    Used for background-noise profiles and for probing specific bands.
    A 4th-order Butterworth band-pass (or low/high-pass at the edges)
    shapes white noise.
    """

    name = "bandlimited noise"

    def __init__(self, f_low, f_high, sample_rate=8000.0, level_rms=1.0, seed=0):
        super().__init__(sample_rate=sample_rate, level_rms=level_rms, seed=seed)
        nyquist = self.sample_rate / 2.0
        if not 0.0 <= f_low < f_high:
            raise ConfigurationError(
                f"need 0 <= f_low < f_high, got ({f_low}, {f_high})"
            )
        if f_high > nyquist:
            raise ConfigurationError(
                f"f_high {f_high} Hz exceeds Nyquist {nyquist} Hz"
            )
        self.f_low = float(f_low)
        self.f_high = float(f_high)
        self._sos = self._design(nyquist)

    def _design(self, nyquist):
        from scipy import signal as sps

        low = self.f_low / nyquist
        high = self.f_high / nyquist
        if low <= 0.0 and high >= 1.0:
            return None  # full band: no filtering needed
        if low <= 0.0:
            return sps.butter(4, high, btype="lowpass", output="sos")
        if high >= 1.0:
            return sps.butter(4, low, btype="highpass", output="sos")
        return sps.butter(4, [low, high], btype="bandpass", output="sos")

    def _raw(self, n_samples, rng):
        from scipy import signal as sps

        white = rng.standard_normal(n_samples + 1024)
        if self._sos is None:
            return white[1024:]
        shaped = sps.sosfilt(self._sos, white)
        return shaped[1024:]
