"""Baselines: today's ANC headphones (the paper's Bose comparisons).

A conventional feedforward ANC headphone runs the same FxLMS machinery
as LANC but with two handicaps the paper quantifies:

1. **Timing**: its reference mic sits <1 cm from the speaker, a ~30 µs
   acoustic budget that ADC+DSP+DAC+speaker delays overrun ~3×, so the
   anti-noise plays ``τ`` late.  A delayed copy cancels a tone only up
   to the phase error ``2π f τ``: the residual amplitude is
   ``|1 − e^{−j2πfτ}| = 2|sin(πfτ)|`` — tiny at low frequency, total
   failure (0 dB) by a couple of kHz.  That is exactly the Bose_Active
   curve of Figure 12.
2. **Causality**: with microseconds of lookahead the non-causal part of
   the optimal filter is truncated, leaving a floor even at low
   frequency.

:class:`ConventionalAncModel` captures both with a closed form,
validated against a time-domain FxLMS simulation at high sample rate
(the delay-limited run in ``tests/oracle.py``).
:class:`BoseHeadphone` composes it with the passive earcup for
Bose_Overall.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigurationError
from ..hardware.headphone import PassiveEarcup, bose_qc35_earcup
from ..utils.validation import check_positive, check_waveform

__all__ = ["ConventionalAncModel", "BoseHeadphone"]


@dataclasses.dataclass(frozen=True)
class ConventionalAncModel:
    """Delay-limited active cancellation (Bose_Active in Figure 12).

    Parameters
    ----------
    delay_error_s:
        How late the anti-noise plays (pipeline latency minus the ~30 µs
        acoustic budget).  ~60–120 µs for commercial headphones.
    floor_db:
        Best-case cancellation at DC (convergence/causality floor);
        Figure 12 shows Bose_Active bottoming out around −20…−25 dB.
    max_cancel_hz:
        Above this frequency the headphone's active stage gives up
        (manufacturers band-limit ANC; paper: "designed to only cancel
        low-frequency sounds below 1 kHz").  Cancellation is clamped to
        0 dB beyond the phase-error crossover anyway; this simply models
        the explicit cutoff some products apply.  ``None`` disables.
    """

    delay_error_s: float = 90e-6
    floor_db: float = -24.0
    max_cancel_hz: float | None = None

    def __post_init__(self):
        if self.delay_error_s < 0:
            raise ConfigurationError("delay_error_s must be >= 0")
        if self.floor_db > 0:
            raise ConfigurationError("floor_db must be <= 0")

    def residual_gain(self, freqs):
        """Linear residual amplitude vs frequency (1 = no cancellation)."""
        f = np.asarray(freqs, dtype=float)
        phase_residual = 2.0 * np.abs(np.sin(np.pi * f * self.delay_error_s))
        floor = 10.0 ** (self.floor_db / 20.0)
        residual = np.maximum(phase_residual, floor)
        residual = np.minimum(residual, 1.0)   # never amplify
        if self.max_cancel_hz is not None:
            residual = np.where(f > self.max_cancel_hz, 1.0, residual)
        return residual

    def cancellation_db(self, freqs):
        """Cancellation spectrum in dB (negative = cancelling)."""
        return 20.0 * np.log10(self.residual_gain(freqs))

    def residual_fir(self, sample_rate, n_taps=257):
        """Linear-phase FIR whose magnitude is the residual gain."""
        from scipy import signal as sps

        sample_rate = check_positive("sample_rate", sample_rate)
        if n_taps % 2 == 0 or n_taps < 9:
            raise ConfigurationError("n_taps must be odd and >= 9")
        grid = np.linspace(0.0, sample_rate / 2.0, 512)
        gains = self.residual_gain(grid)
        return sps.firwin2(n_taps, grid, gains, fs=sample_rate)

    def residual_waveform(self, disturbance, sample_rate, n_taps=257):
        """What the ear hears with this active stage on (time-aligned)."""
        from scipy import signal as sps

        disturbance = check_waveform("disturbance", disturbance)
        fir = self.residual_fir(sample_rate, n_taps)
        filtered = sps.fftconvolve(disturbance, fir)
        d = (n_taps - 1) // 2
        return filtered[d: d + disturbance.size]


class BoseHeadphone:
    """Active stage + passive earcup: the Bose_Overall scheme.

    ``residual_waveform`` applies the earcup's insertion loss and then
    the delay-limited active stage, the composition measured as
    Bose_Overall; set ``active=False`` for the passive-only measurement.
    """

    def __init__(self, active_model=None, earcup=None, sample_rate=8000.0):
        self.sample_rate = check_positive("sample_rate", sample_rate)
        self.active = active_model or ConventionalAncModel()
        self.earcup = earcup or bose_qc35_earcup(sample_rate=self.sample_rate)
        if not isinstance(self.earcup, PassiveEarcup):
            raise ConfigurationError("earcup must be a PassiveEarcup")

    def overall_cancellation_db(self, freqs):
        """Active + passive cancellation in dB (negative = quieter)."""
        return (self.active.cancellation_db(freqs)
                - self.earcup.insertion_loss_db(freqs))

    def residual_waveform(self, disturbance, active=True):
        """Ear signal with the headphone on."""
        disturbance = check_waveform("disturbance", disturbance)
        under_cup = self.earcup.apply(disturbance)
        if not active:
            return under_cup
        return self.active.residual_waveform(under_cup, self.sample_rate)

    def mean_overall_cancellation_db(self, f_low=0.0, f_high=None,
                                     n_points=256):
        """Band-average of the overall curve (the paper's −15 dB figure)."""
        f_high = f_high or self.sample_rate / 2.0
        freqs = np.linspace(max(f_low, 1.0), f_high, n_points)
        return float(np.mean(self.overall_cancellation_db(freqs)))

