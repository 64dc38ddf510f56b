"""Spectral estimation utilities.

The paper's evaluation figures all plot *cancellation versus frequency*:
the ratio of residual power spectral density with the system on versus
off.  This module provides the PSD estimator, band-energy summaries used
by the sound-profile classifier, and the A-weighting curve used by the
human-rating model.
"""

from __future__ import annotations

import numpy as np

from ..errors import SignalError
from .units import power_to_db
from .validation import check_positive, check_positive_int, check_waveform

__all__ = [
    "welch_psd",
    "band_energies",
    "band_energy_signature",
    "spectrogram",
    "a_weighting_db",
    "octave_band_edges",
    "cancellation_spectrum_db",
    "smooth_spectrum_db",
]


def welch_psd(signal, sample_rate, nperseg=512):
    """Welch power spectral density estimate.

    Returns ``(freqs, psd)`` with ``freqs`` in Hz.  A thin wrapper over
    :func:`scipy.signal.welch` with the library's validation applied, and
    ``nperseg`` clamped to the signal length so short signals still work.
    """
    from scipy import signal as sps

    signal = check_waveform("signal", signal, min_length=8)
    sample_rate = check_positive("sample_rate", sample_rate)
    nperseg = min(check_positive_int("nperseg", nperseg), signal.size)
    freqs, psd = sps.welch(signal, fs=sample_rate, nperseg=nperseg)
    return freqs, psd


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
    """Magnitude spectrogram ``(freqs, times, magnitude)``."""
    from scipy import signal as sps

    signal = check_waveform("signal", signal, min_length=8)
    sample_rate = check_positive("sample_rate", sample_rate)
    nperseg = min(check_positive_int("nperseg", nperseg), signal.size)
    noverlap = int(nperseg * overlap)
    freqs, times, sxx = sps.spectrogram(
        signal, fs=sample_rate, nperseg=nperseg, noverlap=noverlap
    )
    return freqs, times, sxx


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
