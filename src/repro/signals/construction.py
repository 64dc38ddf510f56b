"""Construction-site noise source.

Figure 14 evaluates a "construction sound" workload.  Real construction
noise combines broadband machinery (compressors, saws) with impulsive
impacts (hammering).  This generator layers:

* low-frequency machinery rumble (band-limited noise, 30–400 Hz),
* mid-band tool whine (narrow-band noise around a random center),
* Poisson-arriving hammer impacts (exponentially decaying clicks).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import SignalSource

__all__ = ["ConstructionNoise"]


class ConstructionNoise(SignalSource):
    """Machinery rumble + tool whine + hammer impacts."""

    name = "construction sound"

    def __init__(self, impact_rate_hz=2.0, whine_center_hz=1400.0,
                 sample_rate=8000.0, level_rms=1.0, seed=0):
        super().__init__(sample_rate=sample_rate, level_rms=level_rms, seed=seed)
        if impact_rate_hz < 0:
            raise ConfigurationError("impact_rate_hz must be >= 0")
        nyquist = self.sample_rate / 2.0
        if not 0.0 < whine_center_hz < nyquist * 0.9:
            raise ConfigurationError(
                f"whine_center_hz must be in (0, {nyquist * 0.9}), "
                f"got {whine_center_hz}"
            )
        self.impact_rate_hz = float(impact_rate_hz)
        self.whine_center_hz = float(whine_center_hz)

    def _rumble(self, n, rng):
        from scipy import signal as sps

        white = rng.standard_normal(n + 512)
        sos = sps.butter(4, 400.0 / (self.sample_rate / 2.0),
                         btype="lowpass", output="sos")
        return sps.sosfilt(sos, white)[512:]

    def _whine(self, n, rng):
        from scipy import signal as sps

        nyquist = self.sample_rate / 2.0
        low = max(self.whine_center_hz - 150.0, 10.0) / nyquist
        high = min(self.whine_center_hz + 150.0, nyquist * 0.98) / nyquist
        sos = sps.butter(2, [low, high], btype="bandpass", output="sos")
        white = rng.standard_normal(n + 512)
        return sps.sosfilt(sos, white)[512:]

    def _impacts(self, n, rng):
        out = np.zeros(n)
        if self.impact_rate_hz == 0.0:
            return out
        expected = self.impact_rate_hz * n / self.sample_rate
        n_hits = rng.poisson(max(expected, 0.0))
        decay_len = int(0.05 * self.sample_rate)
        kernel = np.exp(-np.arange(decay_len) / (0.008 * self.sample_rate))
        kernel *= np.sin(2.0 * np.pi * 900.0 * np.arange(decay_len)
                         / self.sample_rate)
        for __ in range(n_hits):
            start = int(rng.integers(0, max(n - decay_len, 1)))
            out[start:start + decay_len] += kernel[:min(decay_len, n - start)]
        return out

    def _raw(self, n_samples, rng):
        return (
            1.0 * self._rumble(n_samples, rng)
            + 0.5 * self._whine(n_samples, rng)
            + 2.5 * self._impacts(n_samples, rng)
        )
