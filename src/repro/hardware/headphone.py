"""Passive earcup attenuation — the "sound-absorbing materials" model.

Bose_Overall in the paper is Bose's active stage *plus* its carefully
engineered passive earcup; MUTE+Passive borrows the same earcup.  The
passive insertion loss of a circumaural ANC headphone is small at low
frequency (the cup is acoustically transparent to long wavelengths) and
grows to ~30+ dB by 4 kHz.  :class:`PassiveEarcup` models that curve and
can filter waveforms through it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils import fastconv, filters
from ..utils.validation import check_positive, check_waveform

__all__ = ["PassiveEarcup", "bose_qc35_earcup", "no_earcup"]


class PassiveEarcup:
    """Frequency-dependent passive insertion loss.

    The insertion-loss curve is parameterized as::

        IL(f) = il_low + (il_high - il_low) * s(f)

    with ``s`` a smooth (log-frequency sigmoid) transition centered at
    ``transition_hz``.  Defaults are calibrated so that the composed
    Bose_Overall average lands near the paper's −15 dB (Figure 12):
    a few dB of loss at 100 Hz rising to ~22 dB by 4 kHz.
    """

    def __init__(self, il_low_db=3.0, il_high_db=18.0, transition_hz=1000.0,
                 sharpness=1.6, sample_rate=8000.0, n_taps=129):
        if il_low_db < 0 or il_high_db < il_low_db:
            raise ConfigurationError(
                "need 0 <= il_low_db <= il_high_db, got "
                f"({il_low_db}, {il_high_db})"
            )
        self.il_low_db = float(il_low_db)
        self.il_high_db = float(il_high_db)
        self.transition_hz = check_positive("transition_hz", transition_hz)
        self.sharpness = check_positive("sharpness", sharpness)
        self.sample_rate = check_positive("sample_rate", sample_rate)
        if n_taps < 9 or n_taps % 2 == 0:
            raise ConfigurationError("n_taps must be odd and >= 9")
        self.n_taps = int(n_taps)
        self._fir = self._design_fir()

    def insertion_loss_db(self, freqs):
        """Insertion loss (positive dB) at ``freqs`` Hz."""
        f = np.maximum(np.asarray(freqs, dtype=float), 1e-3)
        x = self.sharpness * np.log10(f / self.transition_hz)
        s = 1.0 / (1.0 + np.exp(-2.5 * x))
        return self.il_low_db + (self.il_high_db - self.il_low_db) * s

    def transmission_gain(self, freqs):
        """Linear amplitude gain through the cup (≤ 1)."""
        return 10.0 ** (-self.insertion_loss_db(freqs) / 20.0)

    def _design_fir(self):
        grid = np.linspace(0.0, self.sample_rate / 2.0, 256)
        gains = self.transmission_gain(grid)
        return filters.firwin2(self.n_taps, grid, gains, fs=self.sample_rate)

    def apply(self, signal):
        """Attenuate a waveform as heard under the earcup (time-aligned)."""
        signal = check_waveform("signal", signal)
        filtered = fastconv.fir_apply(signal, self._fir, mode="full")
        d = (self.n_taps - 1) // 2
        return filtered[d: d + signal.size]

    def mean_insertion_loss_db(self, f_low=0.0, f_high=None, n_points=128):
        """Average insertion loss across a band (for summary tables)."""
        f_high = f_high or self.sample_rate / 2.0
        freqs = np.linspace(max(f_low, 1.0), f_high, n_points)
        return float(np.mean(self.insertion_loss_db(freqs)))


def bose_qc35_earcup(sample_rate=8000.0):
    """The QC35's passive stage (defaults of :class:`PassiveEarcup`)."""
    return PassiveEarcup(sample_rate=sample_rate)


def no_earcup(sample_rate=8000.0):
    """An open ear: 0 dB insertion loss everywhere (MUTE_Hollow's case)."""
    return PassiveEarcup(il_low_db=0.0, il_high_db=0.0,
                         sample_rate=sample_rate)
