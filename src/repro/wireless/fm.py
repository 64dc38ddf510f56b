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
oversampled mod/demod path crosses it twice per relay hop.  Each
reduced ``(up, down)`` pair is planned once from scipy's default
(Kaiser) design: interpolation by ``up`` is a product of input windows
with a ``(taps, up)`` phase matrix, and decimation by ``down`` a
product of ``(rows, down)`` phase rows with the input's frames plus a
sum of shifted rows — the sums ``resample_poly`` makes, as BLAS
products, within 1e-12 of it.  Pairs with both factors above 1 keep
``resample_poly``.  The rate pair itself is reduced with
:class:`fractions.Fraction`, so exact rational (including non-integer)
rate pairs work.  The modulator/demodulator avoid full-rate
intermediate copies by running their arithmetic in place on buffers
they own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..errors import ConfigurationError
from ..utils.validation import check_positive, check_waveform

__all__ = ["FmModulator", "FmDemodulator", "resample", "rational_ratio"]

#: Largest denominator accepted when snapping a rate ratio to an exact
#: rational — generous for audio/RF pairs, small enough to reject
#: genuinely irrational ratios.
MAX_RATIO_DENOMINATOR = 1 << 20

#: Largest ``m·n·k`` of one resampling product: OpenBLAS runs a GEMM
#: on one thread up to this size (``SMP_THRESHOLD_MIN`` times its default
#: ``GEMM_MULTITHREAD_THRESHOLD``).  Chunks this size keep the
#: intermediates small and the bits independent of
#: ``OPENBLAS_NUM_THREADS``, and never wait for a second core.
MAX_PRODUCT_SIZE = 65536 * 4

#: Cached polyphase designs and product plans, keyed by the reduced
#: ``(up, down)`` pair.
_design_cache = {}
_plan_cache = {}


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


def _plan(up, down):
    """The product matrix for ``(up, down)``, built once per pair.

    scipy's ``resample_poly`` pads its ``2·half + 1``-tap design ``h``
    (``half = 10·max(up, down)``, a multiple of both factors) so that
    output ``k`` is ``up · Σ_i x[i] h[half + k·down − i·up]``.  For
    ``down == 1`` that is, with output ``k = q·up + p``,
    ``Σ_s phases[s, p] · x[q + s − half/up]``; for ``up == 1`` it is
    ``Σ_c Σ_r rows[c, r] · x[(k + c)·down + r − half]``.
    """
    key = (up, down)
    plan = _plan_cache.get(key)
    if plan is None:
        h = _polyphase_design(up, down)
        last = h.size - 1                      # 2·half
        rate = max(up, down)
        row = np.arange(last // rate + 1)[:, None]
        phase = np.arange(rate)
        if down == 1:     # phases[s, p] = up · h[2·half + p − s·up]
            index = last + phase - up * row
        else:             # rows[c, r] = h[2·half − c·down − r]
            index = last - down * row - phase
        plan = np.where((index >= 0) & (index <= last),
                        up * h[np.clip(index, 0, last)], 0.0)
        _plan_cache[key] = plan
    return plan


def _interpolate(x, up):
    """Interpolate by ``up``: chunks of input windows times the phases."""
    phases = _plan(up, 1)
    taps = phases.shape[0]
    padded = np.zeros(x.size + taps)    # one spare zero: never too short
    padded[taps // 2: taps // 2 + x.size] = x
    windows = sliding_window_view(padded, taps)
    out = np.empty((x.size, up))
    step = max(1, MAX_PRODUCT_SIZE // phases.size)
    block = np.empty((min(step, x.size), taps))
    for start in range(0, x.size, step):
        stop = min(start + step, x.size)
        np.copyto(block[: stop - start], windows[start:stop])
        np.matmul(block[: stop - start], phases, out=out[start:stop])
    return out.ravel()


def _decimate(x, down):
    """Decimate by ``down``: phase rows times input frames, rows summed.

    Output ``k`` adds ``sums[c, k + c]`` over the plan's rows ``c``, so
    a chunk of outputs reads ``rows − 1`` frames past its end; frames
    before the start or past the end of ``x`` are zeros.
    """
    rows = _plan(1, down)
    n_rows = rows.shape[0]
    n_out = -(-x.size // down)
    out = np.empty(n_out)
    step = max(1, MAX_PRODUCT_SIZE // rows.size - (n_rows - 1))
    for start in range(0, n_out, step):
        stop = min(start + step, n_out)
        low = (start - n_rows // 2) * down
        high = (stop + n_rows // 2) * down
        if low >= 0 and high <= x.size:
            segment = x[low:high]
        else:
            segment = np.zeros(high - low)
            inside = slice(max(low, 0), min(high, x.size))
            segment[inside.start - low: inside.stop - low] = x[inside]
        sums = rows @ segment.reshape(-1, down).T
        diagonals = as_strided(sums, shape=(n_rows, stop - start),
                               strides=(sums.strides[0] + sums.strides[1],
                                        sums.strides[1]))
        np.sum(diagonals, axis=0, out=out[start:stop])
    return out


def resample(signal, rate_in, rate_out):
    """Polyphase resampling between exact-rational-ratio rates.

    Same length, alignment and filter as ``scipy.signal.resample_poly``
    with its default window; a 1-D real signal with one factor 1 goes
    through chunked BLAS products (within 1e-12 of it), anything else
    through ``resample_poly`` itself.
    """
    rate_in = check_positive("rate_in", rate_in)
    rate_out = check_positive("rate_out", rate_out)
    if rate_in == rate_out:
        return np.asarray(signal, dtype=np.float64).copy()
    up, down = rational_ratio(rate_in, rate_out)
    x = np.asarray(signal)
    if min(up, down) > 1 or x.ndim != 1 or np.iscomplexobj(x):
        from scipy import signal as sps

        return sps.resample_poly(x, up, down,
                                 window=_polyphase_design(up, down))
    x = np.ascontiguousarray(x, dtype=np.float64)
    return _interpolate(x, up) if down == 1 else _decimate(x, down)


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
