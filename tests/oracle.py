"""Test oracle: the reference formulations the product code replaced.

The library ships one implementation of each algorithm — the vectorized
kernels in :mod:`repro.core.adaptive.kernels` and the cached-FFT /
cached-polyphase / in-place signal paths.  The straightforward
formulations they were derived from live here, verbatim, for two jobs:

* **equivalence contracts** — ``tests/test_kernels.py``,
  ``test_fastconv.py``, ``test_fm.py``, ``test_checkpoint.py`` and
  ``test_serving.py`` compare the product against these (≤ 1e-10 on the
  adaptive engines, bit-identical or ≤ 1e-12 on the signal paths);
* **honest "before" legs** — ``benchmarks/bench_kernels.py`` and
  ``benchmarks/bench_pipeline.py`` time the product against them.

Seven groups:

* the per-sample adaptive walks (:func:`fxlms_block`, :func:`lms_run`,
  :func:`rls_run`, :func:`apa_run`, :func:`multiref_run`) — one sample
  at a time, in the operation order the original engines used;
* the stepped recursions (:func:`lms_step`, :func:`rls_step`,
  :func:`apa_step`) — one sample of an engine's state, the oracle's own
  self-check (the walks must equal them bit for bit);
* the slow signal paths (:func:`fir_apply` = ``fftconvolve``,
  :func:`streaming_fir_process` = ``lfilter`` with carried state,
  :func:`resample` = ``resample_poly`` with its default window, the
  receivers' :func:`zero_phase_decimate` = ``sosfiltfilt`` then
  ``resample_poly`` on the SciPy design :func:`receiver_sos`, the relay
  :func:`front_end` = ``sosfilt``, and the allocating FM/AM modulator
  and demodulator arithmetic);
* the one-at-a-time simulation layers: the image-source room built
  image by image (:func:`image_sources`, :func:`room_impulse_response`,
  each kernel from :func:`fractional_delay_filter` on its own), and the
  relay noise drawn from a fresh generator on every call
  (:func:`rf_channel_apply`, :func:`analog_relay_chain`) — the product
  must equal these bit for bit (``tests/test_rir.py``,
  ``test_am_rf.py``, ``test_relay.py``);
* the time-domain check of the closed-form Bose baseline
  (:func:`simulate_delay_limited_fxlms`, run by
  ``tests/test_baselines.py``);
* the ``scipy.signal`` spectra, designs and responses the NumPy ones
  replaced: :func:`welch`, :func:`coherence`, :func:`spectrogram`,
  :func:`firwin2`, :func:`freqz` and :func:`fftconvolve`
  (``tests/test_spectral.py``, ``test_filters.py``,
  ``test_fastconv.py``: ≤ 1e-12, or bit for bit for the designs and
  the product);
* the ``scipy.fft`` forms the ``np.fft`` ones replaced:
  :func:`scipy_fft_fir_apply` (``fir_apply``'s single-transform and
  overlap-save branches), :func:`scipy_fft_convolve` and
  :class:`ScipyFftDecimator` (the branch spectra and interior of
  ``ZeroPhaseDecimator``) — bit for bit on NumPy ≥ 2.0, whose
  ``np.fft`` is the same pocketfft (``tests/test_fastconv.py``,
  ``test_fm.py``, ``benchmarks/bench_kernels.py``).

:func:`reference_paths` swaps all of them in over the product
attributes for the duration of a ``with`` block — a test double, so
whole engines and whole pipelines can run on the reference arithmetic.

Every walk mutates the caller's tap (and auxiliary) arrays in place,
exactly like the product kernels.
"""

from __future__ import annotations

import contextlib
import functools
import itertools

import numpy as np
from scipy import fft as sp_fft
from scipy import linalg
from scipy import signal as sps

from repro.acoustics.geometry import Point, Room
from repro.acoustics.propagation import spreading_gain
from repro.acoustics.rir import RirSettings
from repro.core.adaptive.base import effective_step, guard_divergence
from repro.core.adaptive.lanc import LancFilter
from repro.errors import ConfigurationError
from repro.utils import fastconv
from repro.utils.spectral import cancellation_spectrum_db
from repro.utils.units import db_to_amplitude
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_waveform,
)
from repro.wireless.fm import (
    DECIMATOR_NFFT,
    ZeroPhaseDecimator,
    _polyphase_design,
    rational_ratio,
)
from repro.wireless.rf_channel import pa_nonlinearity

__all__ = [
    "tap_window", "fxlms_block", "lms_run", "rls_run", "apa_run",
    "multiref_run", "lms_step", "rls_step", "apa_step", "fir_apply",
    "streaming_fir_process", "resample", "fm_modulate", "fm_demodulate",
    "am_modulate", "am_demodulate", "receiver_sos", "zero_phase_decimate",
    "front_end", "fractional_delay_filter", "image_sources",
    "room_impulse_response", "rf_channel_apply", "analog_relay_chain",
    "reference_paths",
    "simulate_delay_limited_fxlms",
    "NUMPY_POCKETFFT", "scipy_fft_fir_apply", "scipy_fft_convolve",
    "ScipyFftDecimator",
]


# ----------------------------------------------------------------------
# Per-sample adaptive walks
# ----------------------------------------------------------------------
def tap_window(padded, offset, t, n_future, n_past):
    """Window aligned with the tap vector: index 0 ↔ ``x(t + n_future)``.

    ``padded`` holds sample ``x[t]`` at ``padded[t + offset]``, with
    zeros wherever a window reaches past the data.  ``y(t) = taps ·
    window`` with taps stored future-first, because
    ``taps[i] ↔ k = i - n_future`` multiplies
    ``x(t - k) = x(t + n_future - i)``.
    """
    start = t + offset - (n_past - 1)
    stop = t + offset + n_future + 1
    return padded[start:stop][::-1]


def fxlms_block(state, taps, d, mu, normalized=True, leak=0.0, adapt=True,
                active=True, adapt_mask=None, context="StreamingLanc"):
    """One block of two-sided FxLMS over a fed :class:`KernelState`.

    Advances ``state.time`` and ``state.y_recent``; returns
    ``(errors, outputs)``.  ``adapt_mask`` (one flag per sample of the
    block) adapts only where true; ``active=False`` mutes the speaker
    for the block while anti-noise already in flight keeps ringing
    through the secondary path.
    """
    n_future, n_past = state.n_future, state.n_past
    s_true = state.secondary_true
    y_recent = state.y_recent
    x, xf = state.x, state.xf
    errors = np.empty(d.size)
    outputs = np.zeros(d.size)

    if not active:
        # Speaker muted: output is zero, but anti-noise already in
        # flight keeps ringing through the secondary path.
        for i in range(d.size):
            y_recent[1:] = y_recent[:-1]
            y_recent[0] = 0.0
            e = d[i] + float(np.dot(s_true, y_recent))
            errors[i] = e
        state.time += d.size
        return errors, outputs

    for i in range(d.size):
        t = state.time + i
        lo = t - (n_past - 1)
        hi = t + n_future + 1
        if lo >= 0:
            win = x[lo:hi][::-1]
            winf = xf[lo:hi][::-1]
        else:
            pad = -lo
            win = np.concatenate([x[0:hi][::-1], np.zeros(pad)])
            winf = np.concatenate([xf[0:hi][::-1], np.zeros(pad)])
        y = float(np.dot(taps, win))
        outputs[i] = y
        y_recent[1:] = y_recent[:-1]
        y_recent[0] = y
        e = d[i] + float(np.dot(s_true, y_recent))
        errors[i] = e
        guard_divergence(e, context)
        if adapt and (adapt_mask is None or adapt_mask[i]):
            step = effective_step(mu, winf, normalized)
            if leak:
                taps *= (1.0 - leak)
            taps -= step * e * winf
    state.time += d.size
    return errors, outputs


def lms_run(x, d, taps, window, mu, normalized=True, leak=0.0,
            context="LmsFilter"):
    """Causal (N)LMS predict-then-adapt over whole waveforms.

    ``window`` is the engine's newest-first shift register; both it and
    ``taps`` are updated in place.  Returns ``(predictions, errors)``.
    """
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        prediction = float(np.dot(taps, window))
        error = float(d[t]) - prediction
        guard_divergence(error, context)
        step = effective_step(mu, window, normalized)
        if leak:
            taps *= (1.0 - leak)
        taps += step * error * window
        predictions[t] = prediction
        errors[t] = error
    return predictions, errors


def rls_run(x, d, taps, window, P, forgetting, context="RlsFilter"):
    """Exponentially-weighted RLS over whole waveforms.

    ``taps``, ``window`` (newest-first) and the inverse-correlation
    matrix ``P`` are updated in place.  Returns
    ``(predictions, errors)``.
    """
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    P_local = P
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        u = window
        prediction = float(np.dot(taps, u))
        error = float(d[t]) - prediction
        guard_divergence(error, context)

        Pu = P_local @ u
        denom = forgetting + float(np.dot(u, Pu))
        gain = Pu / denom
        taps += gain * error
        # Joseph-free rank-1 downdate; re-symmetrize to fight drift.
        P_local = (P_local - np.outer(gain, Pu)) / forgetting
        P_local = 0.5 * (P_local + P_local.T)
        predictions[t] = prediction
        errors[t] = error
    P[:] = P_local
    return predictions, errors


def apa_run(x, d, taps, window, U, d_ring, mu, epsilon,
            context="ApaFilter"):
    """Affine-projection adaptation over whole waveforms.

    ``taps``, ``window``, the input-window ring ``U`` (rows, newest
    first) and the desired-sample ring ``d_ring`` are updated in place.
    Returns ``(predictions, errors)``.
    """
    order = U.shape[0]
    predictions = np.empty(x.size)
    errors = np.empty(x.size)
    eye = np.eye(order)
    for t in range(x.size):
        window[1:] = window[:-1]
        window[0] = x[t]
        U[1:] = U[:-1]
        U[0] = window
        d_ring[1:] = d_ring[:-1]
        d_ring[0] = d[t]

        prediction = float(np.dot(taps, window))
        error = float(d[t]) - prediction
        guard_divergence(error, context)

        # Error vector over the projection window.
        e_vec = d_ring - U @ taps
        gram = U @ U.T + epsilon * eye
        try:
            solved = linalg.solve(gram, e_vec, assume_a="pos")
        except linalg.LinAlgError:   # pragma: no cover - eps prevents this
            solved = linalg.lstsq(gram, e_vec)[0]
        taps += mu * (U.T @ solved)
        predictions[t] = prediction
        errors[t] = error
    return predictions, errors


def multiref_run(states, taps_list, d, mu, normalized=True, leak=0.0,
                 adapt=True, context="MultiRefLancFilter"):
    """Multi-reference two-sided FxLMS: one fresh fed state per branch.

    Each branch's state holds its reference plus its own ``n_future``
    zeros.  All branches share the error signal and the (true)
    secondary path of ``states[0]``; the NLMS step is normalized by the
    *total* filtered-window power across branches.  Returns
    ``(errors, outputs)``.
    """
    s_true = states[0].secondary_true
    n_past = states[0].n_past
    T = d.size
    off = n_past - 1
    pad = np.zeros(off)
    branches = [(np.concatenate([pad, st.x]), np.concatenate([pad, st.xf]),
                 st.n_future) for st in states]

    y_recent = np.zeros(s_true.size)
    errors = np.empty(T)
    outputs = np.empty(T)

    for t in range(T):
        y = 0.0
        windows_f = []
        for taps, (xp, xfp, n_future) in zip(taps_list, branches):
            win = tap_window(xp, off, t, n_future, n_past)
            y += float(np.dot(taps, win))
            if adapt:
                windows_f.append(tap_window(xfp, off, t, n_future, n_past))
        outputs[t] = y
        y_recent[1:] = y_recent[:-1]
        y_recent[0] = y
        e = d[t] + float(np.dot(s_true, y_recent))
        errors[t] = e
        guard_divergence(e, context)
        if adapt:
            total_power = sum(float(np.dot(w, w)) for w in windows_f)
            step = (mu / (total_power + 1e-8) if normalized else mu)
            for taps, winf in zip(taps_list, windows_f):
                if leak:
                    taps *= (1.0 - leak)
                taps -= step * e * winf
    return errors, outputs


# ----------------------------------------------------------------------
# Stepped recursions: one sample of an engine's own state
# ----------------------------------------------------------------------
def lms_step(f, x_sample, d_sample):
    """One sample of :class:`LmsFilter` predict-then-adapt.

    Returns ``(prediction, error)``.
    """
    f._window[1:] = f._window[:-1]
    f._window[0] = x_sample
    prediction = float(np.dot(f.taps, f._window))
    error = float(d_sample) - prediction
    guard_divergence(error, "LmsFilter")
    step = effective_step(f.mu, f._window, f.normalized)
    if f.leak:
        f.taps *= (1.0 - f.leak)
    f.taps += step * error * f._window
    return prediction, error


def rls_step(f, x_sample, d_sample):
    """One :class:`RlsFilter` predict-then-update iteration."""
    f._window[1:] = f._window[:-1]
    f._window[0] = x_sample
    u = f._window
    prediction = float(np.dot(f.taps, u))
    error = float(d_sample) - prediction
    guard_divergence(error, "RlsFilter")

    Pu = f._P @ u
    denom = f.forgetting + float(np.dot(u, Pu))
    gain = Pu / denom
    f.taps += gain * error
    # Joseph-free rank-1 downdate; re-symmetrize to fight drift.
    f._P = (f._P - np.outer(gain, Pu)) / f.forgetting
    f._P = 0.5 * (f._P + f._P.T)
    return prediction, error


def apa_step(f, x_sample, d_sample):
    """One :class:`ApaFilter` predict-then-project iteration."""
    f._window[1:] = f._window[:-1]
    f._window[0] = x_sample
    f._U[1:] = f._U[:-1]
    f._U[0] = f._window
    f._d[1:] = f._d[:-1]
    f._d[0] = d_sample

    prediction = float(np.dot(f.taps, f._window))
    error = float(d_sample) - prediction
    guard_divergence(error, "ApaFilter")

    # Error vector over the projection window.
    e_vec = f._d - f._U @ f.taps
    gram = f._U @ f._U.T + f.epsilon * np.eye(f.order)
    try:
        solved = linalg.solve(gram, e_vec, assume_a="pos")
    except linalg.LinAlgError:   # pragma: no cover - eps prevents this
        solved = linalg.lstsq(gram, e_vec)[0]
    f.taps += f.mu * (f._U.T @ solved)
    return prediction, error


# ----------------------------------------------------------------------
# Closed-form baseline cross-check
# ----------------------------------------------------------------------
def simulate_delay_limited_fxlms(noise, sample_rate, delay_error_s,
                                 n_taps=96, mu=0.05, leak=1e-3,
                                 settle_fraction=0.3):
    """Time-domain check of the delay-limited model.

    Runs causal FxLMS where the *true* secondary path contains an extra
    (possibly fractional) bulk delay of ``delay_error_s`` that the
    filter's estimate does not know about — the physical situation of a
    headphone missing its deadline.  Returns ``(freqs, cancellation_db)``
    measured from the simulation, to be compared against
    :meth:`repro.core.ConventionalAncModel.cancellation_db`.

    Note: run this at a high sample rate (e.g. 48 kHz) so microsecond
    delays are resolvable.  The defaults use a small step and a leak:
    with an unmodeled secondary-path delay, FxLMS is unstable wherever
    the phase error exceeds 90° (the textbook bound) — the leak damps
    those modes, just as production headphones band-limit their ANC.
    """
    noise = check_waveform("noise", noise, min_length=1024)
    sample_rate = check_positive("sample_rate", sample_rate)
    if delay_error_s < 0:
        raise ConfigurationError("delay_error_s must be >= 0")

    delay_samples = delay_error_s * sample_rate
    s_nominal = np.zeros(8)
    s_nominal[1] = 1.0   # what the filter believes
    late = fractional_delay_filter(delay_samples, n_taps=31)
    s_true = np.convolve(s_nominal, late)   # what physics does

    lanc = LancFilter(n_future=0, n_past=n_taps, secondary_path=s_nominal,
                      mu=mu, leak=leak)
    result = lanc.run(noise, noise, secondary_path_true=s_true)
    start = int(noise.size * settle_fraction)
    return cancellation_spectrum_db(noise[start:], result.error[start:],
                                    sample_rate)


# ----------------------------------------------------------------------
# Slow signal paths
# ----------------------------------------------------------------------
def fir_apply(signal, ir, mode="same"):
    """``scipy.signal.fftconvolve`` behind ``fastconv.fir_apply``'s API."""
    if mode not in ("same", "full"):
        raise ConfigurationError(f"mode must be 'same' or 'full', not {mode!r}")
    signal = np.asarray(signal)
    ir = np.asarray(ir)
    if signal.ndim != 1 or ir.ndim != 1 or signal.size == 0 or ir.size == 0:
        raise ConfigurationError("fir_apply needs non-empty 1-D arrays")
    full = sps.fftconvolve(signal, ir)
    return full if mode == "full" else full[:signal.size]


def fftconvolve(a, b):
    """``fastconv.fft_convolve`` as ``scipy.signal.fftconvolve``."""
    return sps.fftconvolve(a, b)


def welch(signal, sample_rate, nperseg=512):
    """``spectral.welch_psd`` as ``scipy.signal.welch``."""
    signal = np.asarray(signal, dtype=np.float64)
    return sps.welch(signal, fs=sample_rate,
                     nperseg=min(nperseg, signal.size))


def coherence(x, y, sample_rate, nperseg=512):
    """``spectral.coherence`` as ``scipy.signal.coherence`` (Welch
    densities and ``csd``)."""
    x = np.asarray(x, dtype=np.float64)
    return sps.coherence(x, y, fs=sample_rate, nperseg=min(nperseg, x.size))


def spectrogram(signal, sample_rate, nperseg=256, overlap=0.5):
    """``spectral.spectrogram`` as ``scipy.signal.spectrogram``."""
    signal = np.asarray(signal, dtype=np.float64)
    nperseg = min(nperseg, signal.size)
    return sps.spectrogram(signal, fs=sample_rate, nperseg=nperseg,
                           noverlap=int(nperseg * overlap))


def firwin2(numtaps, freq, gain, fs):
    """``filters.firwin2`` as ``scipy.signal.firwin2``."""
    return sps.firwin2(numtaps, freq, gain, fs=fs)


def freqz(b, w):
    """``filters.freqz`` as ``scipy.signal.freqz`` at angular
    frequencies ``w``."""
    return sps.freqz(b, worN=w, fs=2.0 * np.pi)[1]


def streaming_fir_process(self, block):
    """``StreamingFir.process`` as ``lfilter`` with carried ``zi``."""
    block = np.asarray(block)
    m = self.ir.size
    if m == 1:
        return self.ir[0] * block
    out, zf = sps.lfilter(self.ir, [1.0], block, zi=self.state[: m - 1])
    self.state[: m - 1] = zf
    return out


def resample(signal, rate_in, rate_out):
    """Polyphase resampling, redesigning scipy's default window per call."""
    rate_in = check_positive("rate_in", rate_in)
    rate_out = check_positive("rate_out", rate_out)
    if rate_in == rate_out:
        return np.asarray(signal, dtype=np.float64).copy()
    up, down = rational_ratio(rate_in, rate_out)
    return sps.resample_poly(signal, up, down)


def fm_modulate(self, audio):
    """``FmModulator.modulate`` with allocating intermediates."""
    audio = check_waveform("audio", audio)
    rf_audio = resample(audio, self.audio_rate, self.rf_rate)
    phase = (
        2.0 * np.pi * self.deviation_hz
        * np.cumsum(rf_audio) / self.rf_rate
    )
    return self.amplitude * np.exp(1j * phase)


def receiver_sos(self):
    """The FM/AM receivers' order-6 low-pass, designed by ``scipy.signal``."""
    cutoff = min(self.audio_rate / 2.0, self.rf_rate / 2.0 * 0.9)
    return sps.butter(6, cutoff / (self.rf_rate / 2.0), btype="lowpass",
                      output="sos")


def zero_phase_decimate(sos, x, rate_in, rate_out):
    """``ZeroPhaseDecimator``: ``sosfiltfilt``, then ``resample_poly``."""
    return resample(sps.sosfiltfilt(sos, x), rate_in, rate_out)


def fm_demodulate(self, baseband):
    """``FmDemodulator.demodulate`` via ``np.angle`` of the product."""
    baseband = check_waveform("baseband", baseband, min_length=2,
                              allow_complex=True)
    product = baseband[1:] * np.conj(baseband[:-1])
    inst_freq = np.angle(product) * self.rf_rate / (2.0 * np.pi)
    inst_freq = np.concatenate([[inst_freq[0]], inst_freq])
    audio_rf = inst_freq / self.deviation_hz
    audio = zero_phase_decimate(receiver_sos(self), audio_rf, self.rf_rate,
                                self.audio_rate)
    return audio - np.mean(audio)


def am_modulate(self, audio):
    """``AmModulator.modulate`` with allocating intermediates."""
    audio = check_waveform("audio", audio)
    peak = np.max(np.abs(audio))
    normalized = audio / peak if peak > 0 else audio
    rf_audio = resample(normalized, self.audio_rate, self.rf_rate)
    rf_audio = np.clip(rf_audio, -1.0, 1.0)
    envelope = 1.0 + self.modulation_index * rf_audio
    return (self.amplitude * envelope).astype(np.complex128)


def am_demodulate(self, baseband):
    """``AmDemodulator.demodulate`` with allocating intermediates."""
    baseband = check_waveform("baseband", baseband, min_length=2,
                              allow_complex=True)
    envelope = np.abs(baseband)
    envelope = envelope - np.mean(envelope)
    audio = zero_phase_decimate(receiver_sos(self), envelope, self.rf_rate,
                                self.audio_rate)
    return audio / self.modulation_index


# ----------------------------------------------------------------------
# One-at-a-time simulation layers
# ----------------------------------------------------------------------
def fractional_delay_filter(delay, n_taps=31):
    """Windowed-sinc fractional-delay FIR, one kernel evaluated alone."""
    delay = check_non_negative("delay", delay)
    if n_taps < 3:
        raise ConfigurationError(f"n_taps must be >= 3, got {n_taps}")
    n_taps = int(n_taps)
    if n_taps % 2 == 0:
        n_taps += 1
    center = n_taps // 2
    int_part = int(np.floor(delay))
    frac = delay - int_part

    offset = np.arange(n_taps) - (center + frac)
    half_width = center + 1.0
    window = np.where(
        np.abs(offset) <= half_width,
        0.5 * (1.0 + np.cos(np.pi * offset / half_width)),
        0.0,
    )
    kernel = np.sinc(offset) * window
    kernel /= kernel.sum()   # unit DC gain

    shift = int_part - center
    if shift >= 0:
        return np.concatenate([np.zeros(shift), kernel])
    taps = kernel[-shift:]
    total = taps.sum()
    if abs(total) > 1e-9:
        taps = taps / total
    return taps


def image_sources(room, source, max_order):
    """Yield ``(image_position, n_reflections)``, one candidate at a time."""
    if not isinstance(room, Room):
        raise ConfigurationError("room must be a Room")
    room.require_inside("source", source)
    max_order = check_non_negative_int("max_order", max_order)
    dims = (room.length, room.width, room.height)
    src = source.as_tuple()
    index_range = range(-max_order, max_order + 1)
    for nx, ny, nz in itertools.product(index_range, repeat=3):
        for px, py, pz in itertools.product((0, 1), repeat=3):
            coords = []
            bounces = 0
            for n, p, L, s in zip((nx, ny, nz), (px, py, pz), dims, src):
                coords.append(2.0 * n * L + (s if p == 0 else -s))
                bounces += abs(2 * n - p)
            if bounces > max_order:
                continue
            yield Point(*coords), bounces


def room_impulse_response(room, source, microphone, sample_rate,
                          settings=None, normalize=False):
    """Image-source room impulse response, added one image at a time."""
    settings = settings or RirSettings()
    sample_rate = check_positive("sample_rate", sample_rate)
    room.require_inside("microphone", microphone)
    reflection = room.reflection_coefficient

    arrivals = []   # (delay_samples, amplitude)
    max_delay = 0.0
    for image, bounces in image_sources(room, source, settings.max_order):
        dist = image.distance_to(microphone)
        delay = dist / settings.speed_of_sound * sample_rate
        amp = spreading_gain(dist) * (reflection ** bounces)
        arrivals.append((delay, amp))
        max_delay = max(max_delay, delay)

    center = settings.sinc_taps // 2
    length = int(np.ceil(max_delay)) + settings.sinc_taps + 1
    ir = np.zeros(length)
    for delay, amp in arrivals:
        base = int(np.floor(delay))
        frac = delay - base
        taps = fractional_delay_filter(frac + center,
                                       n_taps=settings.sinc_taps)
        start = base - center
        if start < 0:
            taps = taps[-start:]
            start = 0
        end = min(start + taps.size, length)
        ir[start:end] += amp * taps[: end - start]

    if normalize:
        peak = np.max(np.abs(ir))
        if peak > 0:
            ir = ir / peak
    return ir


def front_end(self, audio):
    """``AnalogRelay``'s front-end low-pass as ``scipy.signal.sosfilt``."""
    sos = sps.butter(4, self.lpf_cutoff_hz / (self.audio_rate / 2.0),
                     btype="lowpass", output="sos")
    return sps.sosfilt(sos, audio)


def rf_channel_apply(self, baseband):
    """``RfChannel.apply`` with a fresh ``default_rng(seed)`` per call."""
    baseband = check_waveform("baseband", baseband, allow_complex=True,
                              min_length=1)
    cfg = self.config
    out = baseband.astype(np.complex128, copy=True)

    if cfg.pa_backoff_db is not None:
        out = pa_nonlinearity(out, cfg.pa_backoff_db)

    flat = db_to_amplitude(cfg.gain_db) * np.exp(1j * cfg.phase_rad)
    out = out * flat

    if cfg.cfo_hz != 0.0:
        t = np.arange(out.size) / self.rf_rate
        out = out * np.exp(2j * np.pi * cfg.cfo_hz * t)

    signal_power = np.mean(np.abs(out) ** 2)
    if np.isfinite(cfg.snr_db) and signal_power > 0:
        noise_power = signal_power / (10.0 ** (cfg.snr_db / 10.0))
        rng = np.random.default_rng(cfg.seed)
        noise = (
            rng.standard_normal(out.size)
            + 1j * rng.standard_normal(out.size)
        ) * np.sqrt(noise_power / 2.0)
        out = out + noise
    return out


def analog_relay_chain(self, audio):
    """``AnalogRelay._chain`` with a fresh mic-noise generator per call.

    The front end is the product's FIR, so this pins the kept noise
    alone; ``front_end`` is SciPy's recursion for the filter pins.
    """
    shaped = fastconv.fir_apply(audio, self._front_fir)
    if self.mic_noise_rms > 0.0:
        rng = np.random.default_rng(self.seed + 1)
        shaped = shaped + self.mic_noise_rms * rng.standard_normal(
            shaped.size
        )
    baseband = self.modulator.modulate(shaped)
    impaired = self.channel.apply(baseband)
    return self.demodulator.demodulate(impaired)


# ----------------------------------------------------------------------
# The scipy.fft forms
# ----------------------------------------------------------------------
#: ``np.fft`` is SciPy's pocketfft from NumPy 2.0 on, so the product
#: equals these forms bit for bit only there.
NUMPY_POCKETFFT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


@functools.lru_cache(maxsize=32)
def _scipy_fft_spectrum(ir_bytes, nfft):
    return sp_fft.rfft(np.frombuffer(ir_bytes), nfft)


def scipy_fft_fir_apply(signal, ir, mode="same"):
    """``fastconv.fir_apply`` on ``scipy.fft``, spectra cached per
    ``(ir, nfft)``: the direct branch, one transform at
    ``next_fast_len(n + m − 1)``, or overlap-save at the per-IR block
    size."""
    signal = np.asarray(signal)
    ir = np.asarray(ir, dtype=np.float64)
    n, m = signal.size, ir.size
    n_out = n + m - 1
    if m <= fastconv.DIRECT_TAP_LIMIT or n < 2 * m or np.iscomplexobj(signal):
        full = np.convolve(signal, ir)
        return full if mode == "full" else full[:n]
    block_nfft = sp_fft.next_fast_len(max(8 * m, 4096), True)
    if n_out <= block_nfft:
        nfft = sp_fft.next_fast_len(n_out, True)
        H = _scipy_fft_spectrum(ir.tobytes(), nfft)
        full = sp_fft.irfft(sp_fft.rfft(signal, nfft) * H, nfft)[:n_out]
    else:
        H = _scipy_fft_spectrum(ir.tobytes(), block_nfft)
        L = block_nfft - m + 1
        xpad = np.zeros(m - 1 + n)
        xpad[m - 1:] = signal
        full = np.empty(n_out)
        pos = 0
        while pos < n_out:
            seg = xpad[pos: pos + block_nfft]
            y = sp_fft.irfft(sp_fft.rfft(seg, block_nfft) * H, block_nfft)
            take = min(L, n_out - pos)
            full[pos: pos + take] = y[m - 1: m - 1 + take]
            pos += take
    return full if mode == "full" else full[:n]


def scipy_fft_convolve(a, b):
    """``fastconv.fft_convolve`` on ``scipy.fft``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.size == 1 or b.size == 1:
        return a * b
    n_out = a.size + b.size - 1
    nfft = sp_fft.next_fast_len(n_out, True)
    return sp_fft.irfft(sp_fft.rfft(a, nfft) * sp_fft.rfft(b, nfft),
                        nfft)[:n_out]


class ScipyFftDecimator(ZeroPhaseDecimator):
    """``ZeroPhaseDecimator`` with its branch spectra and interior
    overlap-save on ``scipy.fft``, which returns the spectra of a
    transposed view in C order, so the branch sum adds rows in C order
    without a copy."""

    def _plan_branches(self):
        down = self._down
        kaiser = _polyphase_design(1, down)
        self._half = kaiser.size // 2
        composite = np.convolve(np.correlate(self._ir, self._ir, "full"),
                                kaiser)
        span = self._span = composite.size // 2
        before, after = -(-span // down), span // down
        self._before = before
        self._taps = before + after + 1
        index = (span + down * (np.arange(self._taps)[:, None] - after)
                 - np.arange(down))
        inside = (index >= 0) & (index < composite.size)
        branches = np.where(inside, composite[np.where(inside, index, 0)], 0.0)
        self._spectra = sp_fft.rfft(branches.T, DECIMATOR_NFFT)

    def _interior(self, x, first, last, out):
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
            spectrum = sp_fft.rfft(segment.reshape(nfft, down).T)
            spectrum *= self._spectra
            y = sp_fft.irfft(spectrum.sum(axis=0), nfft)
            out[j:stop] = y[taps - 1: taps - 1 + stop - j]


# ----------------------------------------------------------------------
# The test double
# ----------------------------------------------------------------------
def _swaps():
    """``(owner, attribute, reference)`` for every product hot path."""
    from repro.core.adaptive import kernels
    from repro.core.adaptive.kernels import vector
    from repro.wireless import am, fm, relay, rf_channel

    return [
        # Swapped behind kernels.fxlms_block, so the kernel layer's
        # shared reference-underrun check still runs first.
        (vector, "fxlms_block", fxlms_block),
        (kernels, "lms_run", lms_run),
        (kernels, "rls_run", rls_run),
        (kernels, "apa_run", apa_run),
        (kernels, "multiref_run", multiref_run),
        (fastconv, "fir_apply", fir_apply),
        (fastconv.StreamingFir, "process", streaming_fir_process),
        (fm, "resample", resample),
        (am, "resample", resample),
        (fm.FmModulator, "modulate", fm_modulate),
        (fm.FmDemodulator, "demodulate", fm_demodulate),
        (am.AmModulator, "modulate", am_modulate),
        (am.AmDemodulator, "demodulate", am_demodulate),
        (rf_channel.RfChannel, "apply", rf_channel_apply),
        (relay.AnalogRelay, "_chain", analog_relay_chain),
    ]


@contextlib.contextmanager
def reference_paths():
    """Run the enclosed code on the reference formulations.

    Every engine, relay and channel keeps its public API; only the
    arithmetic underneath is swapped.  The product attributes are
    restored on exit, also when the block raises.
    """
    swaps = _swaps()
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, __ in swaps]
    for owner, name, reference in swaps:
        setattr(owner, name, reference)
    try:
        yield
    finally:
        for owner, name, product in saved:
            setattr(owner, name, product)
