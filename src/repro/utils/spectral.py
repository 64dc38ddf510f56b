"""Spectral estimation utilities.

The paper's evaluation figures all plot *cancellation versus frequency*:
the ratio of residual power spectral density with the system on versus
off.  This module provides the PSD estimator, band-energy summaries used
by the sound-profile classifier, and the A-weighting curve used by the
human-rating model.

The Welch-family estimators share one segment-average core in NumPy
(:func:`numpy.fft`), written out from SciPy's defaults: segments of
``nperseg`` samples, each with its mean removed and then windowed
(periodic Hann for :func:`welch_psd` and :func:`coherence`, periodic
Tukey(0.25) for :func:`spectrogram`), scaled to a one-sided density
``1 / (fs · Σw²)`` with every bin but DC (and an even ``nperseg``'s
Nyquist) doubled.  Each estimate stays within 1e-12 of
``scipy.signal.welch`` / ``coherence`` / ``spectrogram``
(``tests/test_spectral.py``), without that module's import.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigurationError, SignalError
from .units import power_to_db
from .validation import (
    check_positive,
    check_positive_int,
    check_same_length,
    check_waveform,
)

__all__ = [
    "welch_psd",
    "coherence",
    "band_energies",
    "band_energy_signature",
    "spectrogram",
    "a_weighting_db",
    "octave_band_edges",
    "cancellation_spectrum_db",
    "smooth_spectrum_db",
]

#: Share of a :func:`spectrogram` segment its Tukey window tapers.
TUKEY_ALPHA = 0.25


def _periodic_hann(n):
    """``scipy.signal.get_window("hann", n)``: Hann of ``n + 1`` points,
    the last dropped."""
    if n == 1:
        return np.ones(1)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def _periodic_tukey(n):
    """``scipy.signal.get_window(("tukey", TUKEY_ALPHA), n)``: cosine
    tapers over ``TUKEY_ALPHA / 2`` of ``n + 1`` points at each end, the
    last point dropped."""
    if n == 1:
        return np.ones(1)
    alpha, m = TUKEY_ALPHA, n + 1
    k = np.arange(m, dtype=np.float64)
    width = int(math.floor(alpha * (m - 1) / 2.0))
    rise = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * k[:width + 1]
                                      / alpha / (m - 1))))
    fall = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0
                                      * k[m - width - 1:] / alpha / (m - 1))))
    return np.concatenate([rise, np.ones(m - 2 * width - 2), fall])[:-1]


def _segment_spectra(x, window, noverlap):
    """``rfft`` of every segment of ``x``, mean removed, then windowed.

    Segments of ``window.size`` samples start every ``window.size −
    noverlap`` samples; the tail that does not fill one is left out.
    One row per segment.
    """
    segments = sliding_window_view(x, window.size)[:: window.size - noverlap]
    segments = segments - segments.mean(axis=-1, keepdims=True)
    return np.fft.rfft(segments * window, axis=-1)


def _one_sided_density(products, window, sample_rate):
    """Per-segment spectral products → one-sided density, in place."""
    products *= 1.0 / (sample_rate * np.sum(window * window))
    products[:, 1: None if window.size % 2 else -1] *= 2.0
    return products


def _mean_density(sa, sb, window, sample_rate):
    """One-sided density of ``conj(A) · B``, averaged over segments
    (``|A|²`` when ``sa is sb``)."""
    products = (sa.real ** 2 + sa.imag ** 2) if sa is sb else np.conj(sa) * sb
    return _one_sided_density(products, window, sample_rate).mean(axis=0)


def _frequencies(nperseg, sample_rate):
    return np.fft.rfftfreq(nperseg, 1.0 / sample_rate)


def welch_psd(signal, sample_rate, nperseg=512):
    """Welch power spectral density estimate.

    Returns ``(freqs, psd)`` with ``freqs`` in Hz: the mean of the
    one-sided densities of half-overlapping, Hann-windowed segments
    (``scipy.signal.welch``'s defaults).  ``nperseg`` is clamped to the
    signal length so short signals still work.
    """
    signal = check_waveform("signal", signal, min_length=8)
    sample_rate = check_positive("sample_rate", sample_rate)
    nperseg = min(check_positive_int("nperseg", nperseg), signal.size)
    window = _periodic_hann(nperseg)
    spectra = _segment_spectra(signal, window, nperseg // 2)
    return (_frequencies(nperseg, sample_rate),
            _mean_density(spectra, spectra, window, sample_rate))


def coherence(x, y, sample_rate, nperseg=512):
    """Magnitude-squared coherence ``|Pxy|² / (Pxx · Pyy)`` of two
    equal-length signals.

    Returns ``(freqs, coherence)``, on :func:`welch_psd`'s segments and
    window, with the cross density ``Pxy`` averaged from
    ``conj(X) · Y`` (``scipy.signal.coherence``'s defaults).
    """
    x = check_waveform("x", x, min_length=8)
    y = check_waveform("y", y, min_length=8)
    check_same_length("x", x, "y", y)
    sample_rate = check_positive("sample_rate", sample_rate)
    nperseg = min(check_positive_int("nperseg", nperseg), x.size)
    window = _periodic_hann(nperseg)
    sx = _segment_spectra(x, window, nperseg // 2)
    sy = _segment_spectra(y, window, nperseg // 2)
    pxx = _mean_density(sx, sx, window, sample_rate)
    pyy = _mean_density(sy, sy, window, sample_rate)
    pxy = _mean_density(sx, sy, window, sample_rate)
    return _frequencies(nperseg, sample_rate), np.abs(pxy) ** 2 / pxx / pyy


def band_energies(signal, sample_rate, edges):
    """Total PSD energy inside each band delimited by ``edges`` (Hz).

    ``edges`` must be strictly increasing; ``len(edges) - 1`` values are
    returned.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise SignalError("edges must be a strictly increasing 1-D array")
    freqs, psd = welch_psd(signal, sample_rate)
    out = np.empty(edges.size - 1, dtype=float)
    for i in range(edges.size - 1):
        mask = (freqs >= edges[i]) & (freqs < edges[i + 1])
        out[i] = float(np.sum(psd[mask]))
    return out


def band_energy_signature(signal, sample_rate, n_bands=16, f_max=None):
    """Normalized band-energy vector — the paper's "sound profile" signature.

    The paper defines a sound profile as "a statistical signature for the
    sound source — a simple example is the average energy distribution
    across frequencies".  This returns exactly that: energies in
    ``n_bands`` equal-width bands up to ``f_max`` (default Nyquist),
    normalized to sum to 1 so the signature is level-invariant.
    """
    sample_rate = check_positive("sample_rate", sample_rate)
    n_bands = check_positive_int("n_bands", n_bands)
    if f_max is None:
        f_max = sample_rate / 2.0
    f_max = check_positive("f_max", f_max)
    edges = np.linspace(0.0, f_max, n_bands + 1)
    energies = band_energies(signal, sample_rate, edges)
    total = float(np.sum(energies))
    if total <= 0.0:
        # Silence: return a uniform signature so distance math stays finite.
        return np.full(n_bands, 1.0 / n_bands)
    return energies / total


def spectrogram(signal, sample_rate, nperseg=256, overlap=0.5):
    """Power spectrogram ``(freqs, times, sxx)``.

    ``sxx[f, t]`` is the one-sided density of the segment centred at
    ``times[t]`` seconds, Tukey(0.25)-windowed, segments overlapping by
    ``int(nperseg · overlap)`` samples (``scipy.signal.spectrogram``'s
    defaults).
    """
    signal = check_waveform("signal", signal, min_length=8)
    sample_rate = check_positive("sample_rate", sample_rate)
    nperseg = min(check_positive_int("nperseg", nperseg), signal.size)
    noverlap = int(nperseg * overlap)
    if not 0 <= noverlap < nperseg:
        raise ConfigurationError(
            f"overlap must leave segments a hop of at least one sample, "
            f"got {overlap}")
    window = _periodic_tukey(nperseg)
    spectra = _segment_spectra(signal, window, noverlap)
    sxx = _one_sided_density(spectra.real ** 2 + spectra.imag ** 2,
                             window, sample_rate)
    times = (nperseg / 2 + (nperseg - noverlap)
             * np.arange(sxx.shape[0])) / sample_rate
    return _frequencies(nperseg, sample_rate), times, sxx.T


def a_weighting_db(freqs):
    """IEC 61672 A-weighting in dB for frequencies in Hz.

    Used by the human-rating model: perceived loudness of residual noise
    weights mid frequencies far more than low rumble.
    """
    f = np.maximum(np.asarray(freqs, dtype=float), 1e-3)
    f2 = f ** 2
    ra = (12194.0 ** 2 * f2 ** 2) / (
        (f2 + 20.6 ** 2)
        * np.sqrt((f2 + 107.7 ** 2) * (f2 + 737.9 ** 2))
        * (f2 + 12194.0 ** 2)
    )
    return 20.0 * np.log10(np.maximum(ra, 1e-10)) + 2.0


def octave_band_edges(f_low=62.5, f_high=4000.0):
    """Octave-band edges from ``f_low`` doubling up to at least ``f_high``."""
    f_low = check_positive("f_low", f_low)
    f_high = check_positive("f_high", f_high)
    if f_high <= f_low:
        raise SignalError("f_high must exceed f_low")
    edges = [f_low]
    while edges[-1] < f_high:
        edges.append(edges[-1] * 2.0)
    return np.asarray(edges)


def cancellation_spectrum_db(before, after, sample_rate, nperseg=512,
                             min_signal_db=None):
    """Per-frequency cancellation in dB: PSD(after) / PSD(before).

    This is the quantity plotted in the paper's Figures 12, 14, 16, 17.
    Negative values indicate cancellation.

    ``min_signal_db`` masks bins that carry (almost) no noise to cancel:
    bins whose ``before`` PSD sits more than ``|min_signal_db|`` dB below
    the spectral peak become NaN instead of a meaningless 0 dB — the way
    a bench measurement only reads cancellation where the analyzer shows
    signal.  ``None`` keeps every bin (fine for wide-band noise).
    """
    f_b, psd_b = welch_psd(before, sample_rate, nperseg=nperseg)
    f_a, psd_a = welch_psd(after, sample_rate, nperseg=nperseg)
    if f_b.shape != f_a.shape:
        raise SignalError("before/after must produce matching PSD grids")
    peak = np.max(psd_b)
    floor = peak * 1e-12 if peak > 0 else 1e-20
    ratio = np.where(psd_b > floor, psd_a / np.maximum(psd_b, floor), 1.0)
    spectrum = power_to_db(ratio)
    if min_signal_db is not None and peak > 0:
        mask = psd_b < peak * 10.0 ** (min_signal_db / 10.0)
        spectrum = np.where(mask, np.nan, spectrum)
    return f_b, spectrum


def smooth_spectrum_db(values_db, window=5):
    """Moving-average smoothing for plotted dB curves (odd ``window``).

    NaN bins (masked "no signal" frequencies) stay NaN and do not poison
    their neighbors.
    """
    values_db = np.asarray(values_db, dtype=float)
    window = check_positive_int("window", window)
    if window % 2 == 0:
        window += 1
    if window == 1 or values_db.size < window:
        return values_db.copy()
    kernel = np.full(window, 1.0 / window)
    pad = window // 2
    nan_mask = np.isnan(values_db)
    filled = np.where(nan_mask, 0.0, values_db)
    weights = np.where(nan_mask, 0.0, 1.0)
    padded = np.pad(filled, pad, mode="edge")
    padded_w = np.pad(weights, pad, mode="edge")
    smoothed = np.convolve(padded, kernel, mode="valid")
    weight_sum = np.convolve(padded_w, kernel, mode="valid")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(weight_sum > 0, smoothed / weight_sum, np.nan)
    out[nan_mask] = np.nan
    return out
