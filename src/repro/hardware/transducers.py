"""Transducer (microphone + anti-noise speaker) frequency response.

Figure 13 of the paper plots the *combined* response of the cheap MEMS
microphone and the AmazonBasics speaker: nearly zero below ~100 Hz,
rising through the low hundreds of Hz, broad and flat-ish through the
mid band, mild roll-off toward 4 kHz.  That weak low-frequency response
is why MUTE's cancellation dips below 100 Hz in Figure 12 — the speaker
simply cannot produce the anti-noise there.

:class:`TransducerResponse` provides the parametric curve, an FIR
realization to run signals through, and presets for the paper's cheap
hardware versus an idealized flat transducer.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils import fastconv, filters
from ..utils.validation import check_positive, check_waveform

__all__ = ["TransducerResponse", "cheap_transducer", "flat_transducer"]


class TransducerResponse:
    """Parametric magnitude response realized as a linear-phase FIR.

    The magnitude model is a second-order high-pass knee at
    ``lowcut_hz`` (speaker excursion limit), a first-order roll-off
    starting at ``highcut_hz``, and a gentle presence peak around
    ``peak_hz``::

        |H(f)| = gain * hp2(f) * lp1(f) * peak(f)

    Parameters
    ----------
    sample_rate:
        Audio rate (Hz).
    lowcut_hz:
        Low-frequency knee; response falls ~12 dB/octave below it.
    highcut_hz:
        Upper roll-off corner.
    peak_hz, peak_gain:
        Center and linear gain of the mid-band presence bump.
    gain:
        Overall linear gain (the paper's combined response tops out
        around 0.2).
    n_taps:
        FIR length used by :meth:`apply`.
    """

    def __init__(self, sample_rate=8000.0, lowcut_hz=120.0, highcut_hz=3400.0,
                 peak_hz=1200.0, peak_gain=1.35, gain=0.2, n_taps=129):
        self.sample_rate = check_positive("sample_rate", sample_rate)
        nyquist = self.sample_rate / 2.0
        if not 0.0 < lowcut_hz < highcut_hz <= nyquist:
            raise ConfigurationError(
                f"need 0 < lowcut < highcut <= Nyquist, got "
                f"({lowcut_hz}, {highcut_hz})"
            )
        self.lowcut_hz = float(lowcut_hz)
        self.highcut_hz = float(highcut_hz)
        self.peak_hz = check_positive("peak_hz", peak_hz)
        self.peak_gain = check_positive("peak_gain", peak_gain)
        self.gain = check_positive("gain", gain)
        if n_taps < 9 or n_taps % 2 == 0:
            raise ConfigurationError("n_taps must be odd and >= 9")
        self.n_taps = int(n_taps)
        self._fir = self._design_fir()

    def magnitude(self, freqs):
        """Linear magnitude response at ``freqs`` Hz (vectorized)."""
        f = np.asarray(freqs, dtype=float)
        ratio_low = np.divide(f, self.lowcut_hz)
        hp2 = ratio_low ** 2 / np.sqrt(1.0 + ratio_low ** 4)
        lp1 = 1.0 / np.sqrt(1.0 + (f / self.highcut_hz) ** 2)
        bump = 1.0 + (self.peak_gain - 1.0) * np.exp(
            -((np.log(np.maximum(f, 1e-3) / self.peak_hz)) ** 2) / 0.8
        )
        return self.gain * hp2 * lp1 * bump

    def magnitude_db(self, freqs):
        """Magnitude response in dB."""
        return 20.0 * np.log10(np.maximum(self.magnitude(freqs), 1e-12))

    def _design_fir(self):
        grid = np.linspace(0.0, self.sample_rate / 2.0, 256)
        mags = self.magnitude(grid)
        mags[0] = 0.0
        return filters.firwin2(self.n_taps, grid, mags, fs=self.sample_rate)

    @property
    def impulse_response(self):
        """The FIR realization (linear phase, ``n_taps`` long)."""
        return self._fir.copy()

    @property
    def group_delay_samples(self):
        """Group delay of the linear-phase FIR."""
        return (self.n_taps - 1) // 2

    def apply(self, signal):
        """Filter a waveform through the transducer response.

        The linear-phase FIR's bulk delay is removed so the output is
        time-aligned with the input (a real transducer's latency is
        charged to the speaker-delay term of the Eq. 3 budget instead).
        """
        signal = check_waveform("signal", signal)
        filtered = fastconv.fir_apply(signal, self._fir, mode="full")
        d = self.group_delay_samples
        return filtered[d: d + signal.size]

    def response_table(self, n_points=64, f_max=None):
        """(freqs, linear magnitude) pairs — the Figure 13 curve."""
        f_max = f_max or self.sample_rate / 2.0
        freqs = np.linspace(0.0, f_max, n_points)
        return freqs, self.magnitude(freqs)


def cheap_transducer(sample_rate=8000.0):
    """The paper's $9 MEMS mic + $19 speaker combination (Figure 13)."""
    return TransducerResponse(sample_rate=sample_rate)


def flat_transducer(sample_rate=8000.0):
    """An idealized studio-grade transducer: flat from 20 Hz up."""
    return TransducerResponse(
        sample_rate=sample_rate, lowcut_hz=20.0,
        highcut_hz=sample_rate / 2.0 * 0.98, peak_hz=1000.0,
        peak_gain=1.0, gain=1.0,
    )
