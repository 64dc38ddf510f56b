"""RF channel impairments at complex baseband.

MUTE uses a narrow (≈ Carson-bandwidth) FM signal in the 900 MHz ISM
band; the paper notes that the wireless channel ``h_w`` is flat over so
narrow a band and reduces to a single complex tap.  The impairments that
*do* matter — and that motivated the analog FM design — are modeled
here:

* additive white Gaussian noise at a configurable SNR,
* carrier frequency offset between the relay's PLL and the receiver,
* power-amplifier nonlinearity (tanh soft saturation),
* a flat complex gain (path loss + phase rotation).

The AWGN is a pure function of the configured seed and the block
length: each call adds the draw a fresh ``default_rng(seed)`` makes.
The channel therefore makes that draw once and keeps it, read-only, in
a :class:`FrozenNoise` slot that is replaced when the seed or the
length changes; repeated calls add the same bits they always did, and
the slot holds only the link's own noise, never a sample of the signal
it carries.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np

from ..errors import ConfigurationError
from ..utils.units import db_to_amplitude
from ..utils.validation import check_waveform

__all__ = ["RfChannelConfig", "RfChannel", "FrozenNoise", "pa_nonlinearity"]


class FrozenNoise:
    """One object's noise draw, made once per ``(seed, length)`` and kept.

    ``draw(rng, n)`` turns a fresh ``numpy.random.default_rng(seed)``
    into ``n`` samples, so its result depends on nothing but the seed
    and ``n``.  Calling the slot with the pair it last saw returns that
    same read-only array; a new pair replaces it (the old draw is
    released first).  A seed that is not an integer — ``None`` asks for
    fresh entropy — is drawn on every call and never kept.
    """

    def __init__(self, draw):
        self._draw = draw
        self._key = None
        self._value = None

    def __call__(self, seed, n):
        if not isinstance(seed, numbers.Integral):
            return self._draw(np.random.default_rng(seed), n)
        key = (int(seed), int(n))
        if key != self._key:
            self._key = self._value = None
            value = self._draw(np.random.default_rng(seed), n)
            value.flags.writeable = False
            self._key, self._value = key, value
        return self._value


def _complex_normal(rng, n):
    """Complex Gaussian draw: ``n`` real parts, then ``n`` imaginary parts."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def pa_nonlinearity(baseband, backoff_db=3.0):
    """Soft-saturating power amplifier: tanh applied to the envelope.

    ``backoff_db`` sets how far the signal's RMS sits below the
    amplifier's saturation point; smaller backoff → harder clipping.
    AM rides on the envelope and is distorted; constant-envelope FM is
    immune (the comparison the FM-vs-AM ablation measures).
    """
    baseband = check_waveform("baseband", baseband, allow_complex=True,
                              min_length=1)
    rms = np.sqrt(np.mean(np.abs(baseband) ** 2))
    if rms == 0.0:
        return baseband.copy()
    saturation = rms * db_to_amplitude(backoff_db)
    envelope = np.abs(baseband)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(
            envelope > 0,
            saturation * np.tanh(envelope / saturation) / envelope,
            1.0,
        )
    return baseband * scale


@dataclasses.dataclass(frozen=True)
class RfChannelConfig:
    """Impairment settings for one RF link."""

    snr_db: float = 40.0            # post-path-loss SNR at the receiver
    cfo_hz: float = 0.0             # carrier frequency offset
    gain_db: float = 0.0            # flat path gain (negative = loss)
    phase_rad: float = 0.0          # flat phase rotation
    pa_backoff_db: float | None = None  # None disables PA nonlinearity
    seed: int = 0

    def __post_init__(self):
        if self.pa_backoff_db is not None and self.pa_backoff_db <= 0:
            raise ConfigurationError("pa_backoff_db must be > 0 or None")
        # +inf means a noiseless link; NaN is always a bug.
        if np.isnan(self.snr_db):
            raise ConfigurationError("snr_db must not be NaN")


class RfChannel:
    """Apply configured impairments to a complex-baseband signal."""

    def __init__(self, config=None, rf_rate=96000.0):
        self.config = config or RfChannelConfig()
        if rf_rate <= 0:
            raise ConfigurationError("rf_rate must be > 0")
        self.rf_rate = float(rf_rate)
        self._awgn = FrozenNoise(_complex_normal)

    def apply(self, baseband):
        """Pass a complex-baseband block through the channel.

        Returns a new complex128 array, also for a noiseless link.  The
        flat gain is skipped when it is exactly 1 (``gain_db`` and
        ``phase_rad`` both 0), and the noisy sum is built in the scaled
        noise's buffer; both give the bits the plain formula gives.
        """
        baseband = check_waveform("baseband", baseband, allow_complex=True,
                                  min_length=1)
        cfg = self.config
        out = baseband.astype(np.complex128, copy=False)

        if cfg.pa_backoff_db is not None:
            out = pa_nonlinearity(out, cfg.pa_backoff_db)

        if cfg.gain_db != 0.0 or cfg.phase_rad != 0.0:
            flat = db_to_amplitude(cfg.gain_db) * np.exp(1j * cfg.phase_rad)
            out = out * flat

        if cfg.cfo_hz != 0.0:
            t = np.arange(out.size) / self.rf_rate
            out = out * np.exp(2j * np.pi * cfg.cfo_hz * t)

        signal_power = np.mean(np.abs(out) ** 2)
        if np.isfinite(cfg.snr_db) and signal_power > 0:
            noise_power = signal_power / (10.0 ** (cfg.snr_db / 10.0))
            noisy = np.multiply(self._awgn(cfg.seed, out.size),
                                np.sqrt(noise_power / 2.0))
            noisy += out
            return noisy
        return out.copy() if out is baseband else out
