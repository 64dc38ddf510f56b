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
(Kaiser) design, built in NumPy: interpolation by ``up`` is a product
of input windows with a ``(taps, up)`` phase matrix, and decimation by
``down`` a product of ``(rows, down)`` phase rows with the input's
frames plus a sum of shifted rows — the sums ``resample_poly`` makes,
as BLAS products, within 1e-12 of it.  Pairs with both factors above 1
keep ``resample_poly``.  The rate pair itself is reduced with
:class:`fractions.Fraction`, so exact rational (including non-integer)
rate pairs work.  The receivers' zero-phase low-pass and their
decimation are one step, :class:`ZeroPhaseDecimator`, which computes
only the outputs the decimation keeps.  The modulator/demodulator
avoid full-rate intermediate copies by running their arithmetic in
place on buffers they own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..errors import ConfigurationError, SignalError
from ..utils import fastconv, filters
from ..utils.validation import check_positive, check_waveform

__all__ = ["FmModulator", "FmDemodulator", "ZeroPhaseDecimator", "resample",
           "rational_ratio"]

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

#: FFT size of :class:`ZeroPhaseDecimator`'s overlap-save blocks, at the
#: output rate; a block makes ``DECIMATOR_NFFT − 123`` outputs of the
#: relay's receiver.  A fixed block keeps the scratch at
#: ``DECIMATOR_NFFT × down`` samples for any signal length.
DECIMATOR_NFFT = 1024

#: Cached polyphase designs and product plans, keyed by the reduced
#: ``(up, down)`` pair.  Only pairs with one factor 1 are planned, so
#: only their designs are kept.
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

    The design ``resample_poly`` builds internally (``firwin`` with a
    ``("kaiser", 5.0)`` window; :func:`~repro.utils.filters.kaiser_lowpass`
    here), built once per pair and cached instead of redesigned on
    every call.
    """
    key = (up, down)
    window = _design_cache.get(key)
    if window is None:
        max_rate = max(up, down)
        half_len = 10 * max_rate
        window = filters.kaiser_lowpass(2 * half_len + 1, 1.0 / max_rate)
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
    through ``resample_poly`` itself.  Rates whose exact ratio is 1
    return a float64 copy.
    """
    rate_in = check_positive("rate_in", rate_in)
    rate_out = check_positive("rate_out", rate_out)
    up, down = rational_ratio(rate_in, rate_out)
    if up == down:
        return np.asarray(signal, dtype=np.float64).copy()
    x = np.asarray(signal)
    if min(up, down) > 1 or x.ndim != 1 or np.iscomplexobj(x):
        from scipy import signal as sps

        return sps.resample_poly(x, up, down)
    x = np.ascontiguousarray(x, dtype=np.float64)
    return _interpolate(x, up) if down == 1 else _decimate(x, down)


def _odd_padded(x, pad, start, stop):
    """Samples ``start:stop`` of ``x`` with ``pad`` samples of odd
    reflection added at each end (``sosfiltfilt``'s ``padtype="odd"``)."""
    pieces = (2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1])
    parts, offset = [], 0
    for piece in pieces:
        part = piece[max(start - offset, 0): max(stop - offset, 0)]
        if part.size:
            parts.append(part)
        offset += piece.size
    return np.concatenate(parts)


class ZeroPhaseDecimator:
    """The receivers' zero-phase low-pass and rate change, as one step.

    The low-pass is an order-:attr:`order` Butterworth ``sos`` with its
    corner at the output's Nyquist (at most 90 % of the input's).
    Calling the decimator returns ``resample(sosfiltfilt(sos, x),
    rate_in, rate_out)`` within 1e-12 × max(1, max|x|) of SciPy's
    (``tests/test_fm.py``).  ``sosfiltfilt`` pads ``x`` at each end by
    odd reflection (:attr:`padlen` samples), starts each pass in the
    steady state of its first input, and filters forward, then
    backward; the cascade's impulse response ``h``
    (:func:`~repro.utils.filters.butter_fir`) stands in for the
    recursion to 1e-18 of its gain.  For a decimation by an integer
    ``down``:

    * an output whose composite window (the Kaiser decimation filter
      convolved with ``h``'s autocorrelation) lies inside ``x`` sees no
      padding.  These interior outputs are one overlap-save product at
      the output rate, the composite split into its ``down`` polyphase
      branches, in blocks of :data:`DECIMATOR_NFFT`;
    * the first and last outputs, as many as the window's half-width
      at the output rate (62 for the relay's receiver), come from the
      two passes run as FIRs over short edge segments, with the odd
      padding and the steady-state starts written out.

    Other rate pairs run the two passes over the whole signal, then
    :func:`resample`.
    """

    #: Butterworth order of the receive low-pass.
    order = 6

    def __init__(self, rate_in, rate_out):
        self.rate_in = check_positive("rate_in", rate_in)
        self.rate_out = check_positive("rate_out", rate_out)
        self.cutoff_hz = min(self.rate_out / 2.0, self.rate_in / 2.0 * 0.9)
        self._ir = filters.butter_fir(self.order,
                                      self.cutoff_hz / (self.rate_in / 2.0))
        #: ``sosfiltfilt``'s default pad: three lengths of the cascade's
        #: ``2·sections + 1`` taps.  It needs a longer input.
        self.padlen = 3 * (self.order + 1)
        self.min_samples = self.padlen + 1
        # tail[k] = Σ_{j>k} h[j]: what a constant input before a pass's
        # start adds to its output k.
        self._tail = np.append(np.cumsum(self._ir[::-1])[::-1][1:], 0.0)
        up, down = rational_ratio(self.rate_in, self.rate_out)
        self._down = down if up == 1 and down > 1 else None
        if self._down is not None:
            self._plan_branches()

    def _plan_branches(self):
        """Split the composite window into its polyphase branches."""
        from scipy import fft as sp_fft

        down = self._down
        kaiser = _polyphase_design(1, down)
        self._half = kaiser.size // 2
        composite = np.convolve(np.correlate(self._ir, self._ir, "full"),
                                kaiser)
        # Output j is Σ_m x[m]·composite[span + j·down − m], so it reads
        # the `before` frames of `down` samples before its own and the
        # `after` frames after it (about 62 each way: h spans about
        # 52·down samples when the corner is the output's Nyquist, so
        # the branches fit a DECIMATOR_NFFT block with room to spare).
        # Branch r holds the taps that meet sample r of a frame.
        span = self._span = composite.size // 2
        before, after = -(-span // down), span // down
        self._before = before
        self._taps = before + after + 1
        index = (span + down * (np.arange(self._taps)[:, None] - after)
                 - np.arange(down))
        inside = (index >= 0) & (index < composite.size)
        branches = np.where(inside, composite[np.where(inside, index, 0)], 0.0)
        self._spectra = sp_fft.rfft(branches.T, DECIMATOR_NFFT)

    def __call__(self, x):
        """Filter ``x`` forward and back, then change its rate."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size < self.min_samples:
            raise SignalError(
                f"the zero-phase filter needs a 1-D signal of at least "
                f"{self.min_samples} samples, got shape {x.shape}")
        if self._down is None:
            return resample(self._two_pass(x, 0, x.size), self.rate_in,
                            self.rate_out)
        n_out = -(-x.size // self._down)
        first = self._before
        last = (x.size - 1 - self._span) // self._down + 1
        if last <= first:
            return self._exact(x, 0, n_out)
        out = np.empty(n_out)
        out[:first] = self._exact(x, 0, first)
        self._interior(x, first, last, out)
        out[last:] = self._exact(x, last, n_out)
        return out

    def _two_pass(self, x, lo, hi):
        """``sosfiltfilt(sos, x)[lo:hi]``: both passes as FIRs over the
        part of the padded signal those outputs read."""
        h, tail, pad = self._ir, self._tail, self.padlen
        reach = h.size - 1
        end = x.size + 2 * pad
        start = max(lo + pad - reach, 0)
        stop = min(hi + pad + reach, end)
        padded = _odd_padded(x, pad, start, stop)
        forward = fastconv.fir_apply(padded, h)
        if start == 0:      # starts in the steady state of padded[0]
            k = min(reach, forward.size)
            forward[:k] += padded[0] * tail[:k]
        backward = fastconv.fir_apply(forward[::-1], h)[::-1]
        if stop == end:     # runs back from the steady state of forward[-1]
            k = min(reach, backward.size)
            backward[backward.size - k:] += forward[-1] * tail[:k][::-1]
        return backward[lo + pad - start: hi + pad - start]

    def _exact(self, x, first, last):
        """Outputs ``first:last`` from the two passes on a segment."""
        down = self._down
        lo = max(first * down - self._half, 0) // down * down
        hi = min((last - 1) * down + self._half + 1, x.size)
        decimated = _decimate(self._two_pass(x, lo, hi), down)
        return decimated[first - lo // down: last - lo // down]

    def _interior(self, x, first, last, out):
        """Outputs ``first:last`` into ``out`` by overlap-save.

        A block reads ``x`` as ``(nfft, down)`` frames, starting
        ``before`` frames ahead of its first output's own; the branch
        products are summed in the frequency domain, and the block's
        first output lands ``taps − 1`` samples into the inverse
        transform.
        """
        from scipy import fft as sp_fft

        down, nfft, taps = self._down, DECIMATOR_NFFT, self._taps
        step = nfft - taps + 1
        block = np.empty(nfft * down)
        for j in range(first, last, step):
            stop = min(j + step, last)
            segment = x[(j - self._before) * down:][: block.size]
            if segment.size < block.size:
                block[: segment.size] = segment
                block[segment.size:] = 0.0
                segment = block
            # One transform per branch: row r holds sample r of each frame.
            spectrum = sp_fft.rfft(segment.reshape(nfft, down).T)
            spectrum *= self._spectra
            y = sp_fft.irfft(spectrum.sum(axis=0), nfft)
            out[j:stop] = y[taps - 1: taps - 1 + stop - j]


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
    frequency; a zero-phase low-pass removes out-of-band noise and
    decimation returns to the audio rate, both in one
    :class:`ZeroPhaseDecimator`; and mean removal cancels the DC offset a
    CFO leaves behind (the paper's "averaged out" step).
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.deviation_hz = check_positive("deviation_hz", deviation_hz)
        self._decimator = ZeroPhaseDecimator(self.rf_rate, self.audio_rate)
        #: Shortest baseband the receive filter accepts.
        self.min_samples = self._decimator.min_samples

    def demodulate(self, baseband):
        """Recover the audio waveform from complex baseband."""
        baseband = check_waveform("baseband", baseband,
                                  min_length=self.min_samples,
                                  allow_complex=True)
        # Phase difference between consecutive samples → instantaneous
        # frequency, with one owned complex scratch instead of the
        # conj/product/angle/concatenate temporary chain.
        product = np.conjugate(baseband[:-1])
        product *= baseband[1:]
        audio_rf = np.empty(baseband.size)
        np.arctan2(product.imag, product.real, out=audio_rf[1:])
        del product                  # not held through the receive filter
        audio_rf[0] = audio_rf[1]
        audio_rf *= self.rf_rate / (2.0 * np.pi * self.deviation_hz)
        # Zero-phase filtering: the analog chain's fixed group delay
        # (~0.15 ms) is accounted in the relay's latency budget, so the
        # simulation removes it here rather than re-aligning downstream.
        audio = self._decimator(audio_rf)
        audio -= np.mean(audio)
        return audio
