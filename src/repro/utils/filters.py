"""Filter designs in NumPy: the relay chain's low-passes and windows,
and the frequency-sampled FIRs of the earcup, ear and Bose models.

The relay (§4.1, Fig. 9) is an analog chain, simulated with a
Butterworth front end, an FM receiver low-pass and the polyphase
resampler's Kaiser window.  Designing them with :mod:`scipy.signal`
cost every relay process that module's import (about 1.2 s and 76 MB
on a 2-vCPU host), more than the rest of its set-up.  The designs are
short closed forms, so they live here:

* :func:`butter_sos` — an even-order Butterworth low-pass as
  second-order sections, in ``scipy.signal.butter(..., output="sos")``'s
  section order;
* :func:`kaiser_lowpass` — ``firwin(numtaps, cutoff,
  window=("kaiser", 5.0))``, ``resample_poly``'s default window;
* :func:`firwin2` — the Hamming-windowed frequency-sampling design
  (transducers, the passive earcup, the ear canal, the Bose stage);
* :func:`freqz` — an FIR's frequency response at any frequencies;
* :func:`sos_impulse_response` — a stable cascade's impulse response,
  cut where the rest of its absolute mass falls below
  :data:`IMPULSE_RTOL` of the whole, so that one FIR stands in for the
  recursion; :func:`butter_fir` caches it per Butterworth design.  A
  design that rings longer than :data:`MAX_IMPULSE_SPAN` samples is
  refused rather than built.

Each design matches its SciPy counterpart within 1e-14 (``firwin2``
bit for bit), and :func:`freqz` SciPy's within 1e-12 of the filter's
ℓ1 gain (``tests/test_filters.py``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import ConfigurationError
from .validation import check_in_range, check_positive, check_positive_int

__all__ = ["butter_sos", "kaiser_lowpass", "firwin2", "freqz",
           "sos_impulse_response", "butter_fir"]

#: :func:`sos_impulse_response` cuts a response where less than this
#: share of its absolute mass remains: far below double rounding, so
#: the FIR and the recursion differ by rounding alone.
IMPULSE_RTOL = 1e-18

#: Longest impulse response :func:`sos_impulse_response` computes or
#: returns.  The relay's designs keep 684 and 622 taps; a corner near
#: Nyquist rings far longer (an order-4 low-pass at 0.9975 of Nyquist
#: keeps 13,613 taps, at 0.99975 136,106), and every forward would
#: convolve with it.
MAX_IMPULSE_SPAN = 1 << 14

#: The Kaiser window's shape parameter in ``resample_poly``'s design.
KAISER_BETA = 5.0


def butter_sos(order, wn):
    """Digital Butterworth low-pass of even ``order``, as ``(order/2, 6)``
    second-order sections.

    ``wn`` is the cutoff as a fraction of Nyquist.  The analog
    prototype's poles (``buttap``) are scaled to the prewarped cutoff
    and mapped by the bilinear transform.  Each section holds one
    conjugate pole pair and a double zero at -1; the sections run from
    the pole farthest from the unit circle to the nearest (the order
    ``zpk2sos`` gives), and the first carries the gain.
    """
    order = check_positive_int("order", order)
    if order % 2:
        raise ConfigurationError(f"order must be even, got {order}")
    wn = check_in_range("wn", wn, 0.0, 1.0, inclusive=False)
    # The prewarped cutoff 2·fs·tan(π·wn/fs), with fs = 2.
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = warped * -np.exp(1j * np.pi * m / (2 * order))
    gain = warped ** order * np.real(1.0 / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    upper = poles[poles.imag > 0]
    upper = upper[np.argsort(-np.abs(1.0 - np.abs(upper)), kind="stable")]
    sos = np.zeros((order // 2, 6))
    sos[:, :3] = np.poly([-1.0, -1.0])
    for section, pole in zip(sos, upper):
        section[3:] = np.poly([pole, pole.conjugate()]).real
    sos[0, :3] *= gain
    return sos


def kaiser_lowpass(numtaps, cutoff):
    """Kaiser-windowed sinc low-pass with unit DC gain.

    ``scipy.signal.firwin(numtaps, cutoff, window=("kaiser", 5.0))``:
    ``cutoff`` is a fraction of Nyquist.
    """
    numtaps = check_positive_int("numtaps", numtaps)
    if numtaps < 2:
        raise ConfigurationError(f"numtaps must be >= 2, got {numtaps}")
    cutoff = check_in_range("cutoff", cutoff, 0.0, 1.0, inclusive=False)
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(numtaps, dtype=np.float64) - alpha
    h = cutoff * np.sinc(cutoff * m)
    h *= (np.i0(KAISER_BETA * np.sqrt(1 - (m / alpha) ** 2.0))
          / np.i0(np.float64(KAISER_BETA)))
    h /= np.sum(h)
    return h


def _hamming(numtaps):
    """The symmetric Hamming window, as SciPy sums its cosine terms."""
    fac = np.linspace(-np.pi, np.pi, numtaps)
    return 0.54 + (1.0 - 0.54) * np.cos(fac)


def firwin2(numtaps, freq, gain, fs):
    """Linear-phase FIR through ``gain`` at ``freq`` (Hz): frequency
    sampling with a Hamming window.

    ``scipy.signal.firwin2(numtaps, freq, gain, fs=fs)`` for an odd
    ``numtaps`` (a type I filter) and strictly increasing ``freq`` from
    0 to ``fs / 2``: the gains are interpolated onto ``1 + 2**ceil(log2
    numtaps)`` uniform frequencies, given the linear phase of a
    ``(numtaps - 1) / 2`` delay, and inverse transformed.
    """
    numtaps = check_positive_int("numtaps", numtaps)
    if numtaps % 2 == 0:
        raise ConfigurationError(f"numtaps must be odd, got {numtaps}")
    fs = check_positive("fs", fs)
    freq = np.asarray(freq, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    nyq = 0.5 * fs
    if (freq.ndim != 1 or freq.shape != gain.shape or freq.size < 2
            or freq[0] != 0.0 or freq[-1] != nyq
            or np.any(np.diff(freq) <= 0.0)):
        raise ConfigurationError(
            "freq must increase strictly from 0 to fs/2, with one gain each")
    nfreqs = 1 + 2 ** int(math.ceil(math.log(numtaps, 2)))
    x = np.linspace(0.0, nyq, nfreqs)
    fx = np.interp(x, freq, gain)
    shift = np.exp(-(numtaps - 1) / 2. * 1j * np.pi * x / nyq)
    return np.fft.irfft(fx * shift)[:numtaps] * _hamming(numtaps)


def freqz(b, w):
    """Frequency response ``H(e^{jω}) = Σ_k b[k]·e^{−jωk}`` of the FIR
    ``b`` at angular frequencies ``w`` (radians per sample).

    The DTFT by Horner's rule in ``e^{−jω}``, as
    ``scipy.signal.freqz(b, worN=w)`` evaluates it.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.size == 0:
        raise ConfigurationError("b must be a non-empty 1-D array")
    return np.polynomial.polynomial.polyval(
        np.exp(-1j * np.asarray(w, dtype=np.float64)), b)


def _recursion(v, a1, a2):
    """``y[n] = v[n] - a1·y[n-1] - a2·y[n-2]`` from rest, in plain floats."""
    a1, a2 = float(a1), float(a2)
    out = []
    y1 = y2 = 0.0
    for vn in v.tolist():
        y1, y2 = vn - a1 * y1 - a2 * y2, y1
        out.append(y1)
    return np.array(out)


def sos_impulse_response(sos):
    """Impulse response of a stable SOS cascade (``a0 = 1``), as an FIR.

    The cascade runs on a unit impulse, one section after another, over
    a span that doubles until its second half holds a negligible share
    of the mass.  The response is cut where the absolute mass after the
    cut falls below :data:`IMPULSE_RTOL` of the whole, so convolving
    with it differs from ``sosfilt`` by at most that share of the
    filter's ℓ1 gain times the signal's peak, plus rounding.
    """
    sos = np.asarray(sos, dtype=np.float64)
    if sos.ndim != 2 or sos.shape[1] != 6 or np.any(sos[:, 3] != 1.0):
        raise ConfigurationError("sos must be (sections, 6) with a0 = 1")
    # A section's poles lie inside the unit circle iff |a2| < 1 and
    # |a1| < 1 + a2 (the stability triangle).
    if (np.any(np.abs(sos[:, 5]) >= 1.0)
            or np.any(np.abs(sos[:, 4]) >= 1.0 + sos[:, 5])):
        raise ConfigurationError("sos has a pole on or outside the unit circle")
    span = 512
    while span <= MAX_IMPULSE_SPAN:
        h = np.zeros(span)
        h[0] = 1.0
        for b0, b1, b2, __, a1, a2 in sos:
            h = _recursion(np.convolve(h, (b0, b1, b2))[:span], a1, a2)
        mass = np.cumsum(np.abs(h[::-1]))[::-1]   # mass[k] = Σ_{j≥k} |h[j]|
        if mass[span // 2] <= 1e-3 * IMPULSE_RTOL * mass[0]:
            return h[: int(np.argmax(mass < IMPULSE_RTOL * mass[0]))]
        span *= 2
    raise ConfigurationError(
        f"the cascade's impulse response does not decay within "
        f"{MAX_IMPULSE_SPAN} samples")


@functools.lru_cache(maxsize=32)
def butter_fir(order, wn):
    """:func:`sos_impulse_response` of :func:`butter_sos` ``(order, wn)``.

    Cached per design and read-only: the relay's order-4 front end at
    8 kHz keeps 684 taps, the receiver's order-6, 4 kHz low-pass at
    96 kHz keeps 622.
    """
    try:
        h = sos_impulse_response(butter_sos(order, wn))
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"order-{order} Butterworth low-pass at {wn} of Nyquist: {exc}"
        ) from None
    h.flags.writeable = False
    return h
