"""Frequency modulation at complex baseband.

The relay transmits the microphone waveform with analog FM at 900 MHz
(paper Eq. 9)::

    x(t) = Ap * cos(2π fc t + 2π Af ∫ m(τ) dτ)

Simulating the 900 MHz carrier directly would need GHz sampling; the
standard equivalent is *complex baseband*: drop the carrier and keep the
phase term, ``x_bb(t) = Ap * exp(j 2π Af ∫ m)``.  Carrier frequency
offset (CFO) between transmitter and receiver then appears as a rotating
phasor ``exp(j 2π Δf t)`` — and, after the FM discriminator, as the
constant DC offset the paper says FM renders harmless.

Audio at ``audio_rate`` is upsampled to ``rf_rate`` for modulation and
decimated back after demodulation.

Perf note: :func:`resample` is the relay chain's hot edge — the 12x
oversampled mod/demod path crosses it four times per relay hop.  The
fast path caches the polyphase (Kaiser) design per reduced ``(up,
down)`` pair, reproducing scipy's default design **bit-identically**,
and the rate pair itself is reduced with :class:`fractions.Fraction`,
so exact rational (including non-integer) rate pairs work.  The
modulator/demodulator avoid full-rate intermediate copies by running
their arithmetic in place on buffers they own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import check_positive, check_waveform

__all__ = ["FmModulator", "FmDemodulator", "resample", "rational_ratio"]

#: Largest denominator accepted when snapping a rate ratio to an exact
#: rational — generous for audio/RF pairs, small enough to reject
#: genuinely irrational ratios.
MAX_RATIO_DENOMINATOR = 1 << 20

#: Cached polyphase designs, keyed by the reduced ``(up, down)`` pair.
_design_cache = {}


def rational_ratio(rate_in, rate_out):
    """Reduce ``rate_out / rate_in`` to an exact ``(up, down)`` pair.

    Both rates are taken as exact binary floats; their ratio is snapped
    to the nearest rational with denominator ≤
    :data:`MAX_RATIO_DENOMINATOR` and verified to reproduce ``rate_out``
    from ``rate_in`` exactly (to 1 part in 1e12).  Integer pairs reduce
    by their gcd — ``(44100, 8000) → (80, 441)`` — and exact non-integer
    pairs like ``(4000.5, 8001)`` work too.
    """
    ratio = Fraction(float(rate_out)) / Fraction(float(rate_in))
    ratio = ratio.limit_denominator(MAX_RATIO_DENOMINATOR)
    if not math.isclose(float(ratio) * rate_in, rate_out, rel_tol=1e-12):
        raise ConfigurationError(
            f"resample needs an exact rational rate ratio; "
            f"{rate_out}/{rate_in} is not one (within denominator "
            f"{MAX_RATIO_DENOMINATOR})"
        )
    return ratio.numerator, ratio.denominator


def _polyphase_design(up, down):
    """scipy's default ``resample_poly`` Kaiser window for ``(up, down)``.

    Reproduces the design ``resample_poly`` would build internally —
    passing it back via ``window=`` is bit-identical to the default
    path (scipy copies and scales it by ``up`` itself) — but built
    once and cached, instead of redesigned on every call.
    """
    from scipy import signal as sps

    key = (up, down)
    window = _design_cache.get(key)
    if window is None:
        max_rate = max(up, down)
        half_len = 10 * max_rate
        window = sps.firwin(2 * half_len + 1, 1.0 / max_rate,
                            window=("kaiser", 5.0))
        _design_cache[key] = window
    return window


def resample(signal, rate_in, rate_out):
    """Polyphase resampling between exact-rational-ratio rates."""
    from scipy import signal as sps

    rate_in = check_positive("rate_in", rate_in)
    rate_out = check_positive("rate_out", rate_out)
    if rate_in == rate_out:
        return np.asarray(signal, dtype=np.float64).copy()
    up, down = rational_ratio(rate_in, rate_out)
    return sps.resample_poly(signal, up, down,
                             window=_polyphase_design(up, down))


class FmModulator:
    """Analog FM modulator: audio in, complex-baseband RF out.

    Parameters
    ----------
    audio_rate:
        Input audio sampling rate (Hz).
    rf_rate:
        Simulation rate of the complex baseband (Hz); must comfortably
        exceed twice the peak deviation plus audio bandwidth (Carson).
    deviation_hz:
        Peak frequency deviation ``Af`` for a unit-amplitude input.
    amplitude:
        Transmit amplitude ``Ap``.
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, amplitude=1.0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.deviation_hz = check_positive("deviation_hz", deviation_hz)
        self.amplitude = check_positive("amplitude", amplitude)
        carson = 2.0 * (self.deviation_hz + self.audio_rate / 2.0)
        if self.rf_rate < carson:
            raise ConfigurationError(
                f"rf_rate {rf_rate} Hz below Carson bandwidth {carson} Hz"
            )

    @property
    def occupied_bandwidth_hz(self):
        """Carson-rule occupied bandwidth for unit-RMS audio."""
        return 2.0 * (self.deviation_hz + self.audio_rate / 2.0)

    def modulate(self, audio):
        """Modulate an audio waveform to complex baseband."""
        audio = check_waveform("audio", audio)
        rf_audio = resample(audio, self.audio_rate, self.rf_rate)
        # In place on the full-rate buffer we own: cumsum → phase →
        # cos/sin straight into the complex output's views.
        np.cumsum(rf_audio, out=rf_audio)
        rf_audio *= 2.0 * np.pi * self.deviation_hz / self.rf_rate
        out = np.empty(rf_audio.size, dtype=np.complex128)
        np.cos(rf_audio, out=out.real)
        np.sin(rf_audio, out=out.imag)
        if self.amplitude != 1.0:
            out *= self.amplitude
        return out


class FmDemodulator:
    """FM discriminator: complex baseband in, audio out.

    The phase-difference discriminator recovers the instantaneous
    frequency; a low-pass filter removes out-of-band noise; decimation
    returns to the audio rate; and mean removal cancels the DC offset a
    CFO leaves behind (the paper's "averaged out" step).
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, remove_dc=True):
        from scipy import signal as sps

        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.deviation_hz = check_positive("deviation_hz", deviation_hz)
        self.remove_dc = bool(remove_dc)
        cutoff = min(self.audio_rate / 2.0, self.rf_rate / 2.0 * 0.9)
        self._sos = sps.butter(
            6, cutoff / (self.rf_rate / 2.0), btype="lowpass", output="sos"
        )

    def demodulate(self, baseband):
        """Recover the audio waveform from complex baseband."""
        from scipy import signal as sps

        baseband = check_waveform("baseband", baseband, min_length=2,
                                  allow_complex=True)
        # Phase difference between consecutive samples → instantaneous
        # frequency, with one owned complex scratch instead of the
        # conj/product/angle/concatenate temporary chain.
        product = np.conjugate(baseband[:-1])
        product *= baseband[1:]
        audio_rf = np.empty(baseband.size)
        np.arctan2(product.imag, product.real, out=audio_rf[1:])
        del product                  # not held through sosfiltfilt
        audio_rf[0] = audio_rf[1]
        audio_rf *= self.rf_rate / (2.0 * np.pi * self.deviation_hz)
        # Zero-phase filtering: the analog chain's fixed group delay
        # (~0.15 ms) is accounted in the relay's latency budget, so the
        # simulation removes it here rather than re-aligning downstream.
        audio_rf = sps.sosfiltfilt(self._sos, audio_rf)
        audio = resample(audio_rf, self.rf_rate, self.audio_rate)
        if self.remove_dc:
            audio -= np.mean(audio)
        return audio
