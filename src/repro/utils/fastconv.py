"""Shared FIR engine: cached FFT plans per impulse response.

Before the perf overhaul, FIR application was scattered across an
ad-hoc trio — ``np.convolve`` (``acoustics/propagation.py``,
``core/system.py``, ``hardware/ear.py``), ``scipy.signal.fftconvolve``
(``acoustics/channels.py``, ``hardware/transducers.py``), and
``lfilter``-with-state for streaming blocks.  Every call re-transformed
the *same* impulse response; the acoustics chain applies one room IR to
every waveform of an experiment.

This module centralizes all of it:

* :func:`fir_apply` — one-shot convolution.  Short signals take a
  single cached-spectrum FFT product that is **bit-identical** to
  ``fftconvolve`` (same ``next_fast_len`` size, same rfft/irfft
  pipeline); long signals switch to **overlap-save** with a fixed
  per-IR block size, so one cached spectrum serves every signal length.
  Tiny kernels fall back to direct ``np.convolve`` (faster below the
  FFT break-even, and bit-identical to the historical path).  The
  transforms are :mod:`numpy.fft`: from NumPy 2.0 it is the same
  pocketfft as :mod:`scipy.fft`, so the products equal the ``scipy.fft``
  forms kept in the test oracle bit for bit, and no path here loads
  SciPy.
* :class:`StreamingFir` — stateful block convolution whose carry state
  is numerically the ``lfilter`` ``zi`` vector (the pending tail of the
  convolution), computed per block through :func:`fir_apply`.
* an LRU spectrum cache keyed by ``(ir bytes, nfft)`` — the "FFT plan
  per IR" the profiling harness showed the acoustics stage re-paying.
* :func:`fft_convolve` — ``fftconvolve``'s one uncached product, for
  two signals where neither is a reused kernel (the Wiener bound's
  correlations): :func:`fir_apply` would cache one spectrum per signal
  and, with equal lengths, take its direct O(n²) branch.

Contract: ``fir_apply(x, h)`` matches ``np.convolve(x, h)`` to
≤ 1e-10 absolute, and :class:`StreamingFir` matches ``lfilter`` with
carried state (hypothesis-tested in ``tests/test_fastconv.py`` against
the ``fftconvolve`` / ``lfilter`` formulations kept in the test
oracle).
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from ..errors import ConfigurationError, SignalError

__all__ = ["fir_apply", "fft_convolve", "StreamingFir", "cache_info",
           "clear_cache"]

#: Kernels at or below this length stay on direct ``np.convolve`` —
#: below the FFT break-even, and it keeps tiny secondary paths
#: bit-identical to the seed arithmetic.
DIRECT_TAP_LIMIT = 8

#: Spectrum-cache capacity (distinct ``(ir, nfft)`` pairs).
_CACHE_CAPACITY = 128

_cache = OrderedDict()      # (ir_bytes, nfft) -> cached rfft spectrum
_hits = 0
_misses = 0


def clear_cache():
    """Drop every cached spectrum (tests; memory pressure)."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def cache_info():
    """``{size, capacity, hits, misses}`` of the spectrum cache."""
    return {"size": len(_cache), "capacity": _CACHE_CAPACITY,
            "hits": _hits, "misses": _misses}


@functools.lru_cache(maxsize=128)
def _next_fast_len(n):
    """The smallest 5-smooth integer ≥ ``n``: pocketfft's fast real
    transform size, ``scipy.fft.next_fast_len(n, real=True)``.

    Cached: a search costs about 10 µs in Python, and the engine asks
    for a handful of sizes over and over.
    """
    best = 2 * n
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # f35 · 2^k for the least k that reaches n.
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _spectrum(ir, nfft):
    """The cached ``rfft(ir, nfft)`` for this exact impulse response."""
    global _hits, _misses
    key = (ir.tobytes(), nfft)
    found = _cache.get(key)
    if found is not None:
        _hits += 1
        _cache.move_to_end(key)
        return found
    _misses += 1
    spectrum = np.fft.rfft(ir, nfft)
    _cache[key] = spectrum
    if len(_cache) > _CACHE_CAPACITY:
        _cache.popitem(last=False)
    return spectrum


def _block_nfft(m):
    """Fixed overlap-save FFT size for an ``m``-tap kernel.

    ~8x the kernel keeps the per-output cost near the optimum while one
    cached spectrum serves every signal length the IR ever meets.
    """
    return _next_fast_len(max(8 * m, 4096))


def _overlap_save(x, H, m, nfft, n_out):
    """Linear convolution via overlap-save against a cached spectrum."""
    L = nfft - m + 1
    # Leading m-1 zeros stand in for the pre-signal history; slices past
    # the end are implicitly zero-padded by rfft(..., nfft).
    xpad = np.zeros(m - 1 + x.size)
    xpad[m - 1:] = x
    out = np.empty(n_out)
    pos = 0
    while pos < n_out:
        seg = xpad[pos: pos + nfft]
        y = np.fft.irfft(np.fft.rfft(seg, nfft) * H, nfft)
        take = min(L, n_out - pos)
        out[pos: pos + take] = y[m - 1: m - 1 + take]
        pos += take
    return out


def fir_apply(signal, ir, mode="same"):
    """Convolve ``signal`` with FIR ``ir`` through the cached-FFT engine.

    Parameters
    ----------
    signal, ir:
        Real 1-D float arrays (the waveform and the impulse response).
    mode:
        ``"same"`` returns the first ``len(signal)`` samples (the
        library's usual ``np.convolve(x, h)[:n]`` truncation); ``"full"``
        returns all ``n + m - 1``.
    """
    if mode not in ("same", "full"):
        raise ConfigurationError(f"mode must be 'same' or 'full', not {mode!r}")
    signal = np.asarray(signal)
    ir = np.asarray(ir)
    if signal.ndim != 1 or ir.ndim != 1 or signal.size == 0 or ir.size == 0:
        raise ConfigurationError("fir_apply needs non-empty 1-D arrays")
    n, m = signal.size, ir.size
    n_out = n + m - 1

    if (m <= DIRECT_TAP_LIMIT or n < 2 * m
            or np.iscomplexobj(signal) or np.iscomplexobj(ir)):
        full = np.convolve(signal, ir)
        return full if mode == "full" else full[:n]

    block_nfft = _block_nfft(m)
    if n_out <= block_nfft:
        # Single transform at fftconvolve's own size: bit-identical to
        # the historical fftconvolve output, spectrum cached.
        nfft = _next_fast_len(n_out)
        H = _spectrum(ir, nfft)
        full = np.fft.irfft(np.fft.rfft(signal, nfft) * H, nfft)[:n_out]
    else:
        H = _spectrum(ir, block_nfft)
        full = _overlap_save(signal, H, m, block_nfft, n_out)
    return full if mode == "full" else full[:n]


def fft_convolve(a, b):
    """Full linear convolution of two real 1-D arrays as one FFT product.

    ``scipy.signal.fftconvolve(a, b)`` bit for bit: the ``rfft`` product
    at ``next_fast_len(len(a) + len(b) − 1, real=True)``, cut to length,
    or a plain product when either array has one sample.  Complex input
    raises :class:`~repro.errors.SignalError`.
    """
    a, b = np.asarray(a), np.asarray(b)
    for name, x in (("a", a), ("b", b)):
        if np.iscomplexobj(x):
            raise SignalError(f"fft_convolve needs real arrays, got {name} "
                              f"of dtype {x.dtype}")
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ConfigurationError("fft_convolve needs non-empty 1-D arrays")
    if a.size == 1 or b.size == 1:
        return a * b
    n_out = a.size + b.size - 1
    nfft = _next_fast_len(n_out)
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft),
                        nfft)[:n_out]


class StreamingFir:
    """Stateful block FIR: overlap-add through the cached-FFT engine.

    The carry vector is exactly the pending convolution tail — the same
    quantity ``scipy.signal.lfilter`` keeps as ``zi`` — so a
    :class:`StreamingFir` can share its state buffer with code that
    still updates it sample-by-sample (``AcousticChannel.step``).

    Parameters
    ----------
    ir:
        FIR coefficients.
    state:
        Optional external carry buffer of length ``>= len(ir) - 1``
        (shared ownership); a private zero buffer otherwise.
    """

    def __init__(self, ir, state=None):
        self.ir = np.asarray(ir, dtype=np.float64)
        if self.ir.ndim != 1 or self.ir.size == 0:
            raise ConfigurationError("ir must be a non-empty 1-D array")
        depth = max(self.ir.size - 1, 1)
        if state is None:
            state = np.zeros(depth)
        elif state.size < depth:
            raise ConfigurationError(
                f"state buffer needs >= {depth} slots, got {state.size}")
        self.state = state

    def reset(self):
        """Clear the carried tail."""
        self.state[:] = 0.0

    def process(self, block):
        """Convolve one block, carrying state across calls."""
        block = np.asarray(block)
        m = self.ir.size
        if m == 1:
            return self.ir[0] * block
        n = block.size
        full = fir_apply(block, self.ir, mode="full")
        out = full[:n]
        k = min(n, m - 1)
        out[:k] += self.state[:k]
        carry = full[n:]
        if n < m - 1:
            carry[: m - 1 - n] += self.state[n:]
        self.state[: m - 1] = carry
        self.state[m - 1:] = 0.0
        return out
