"""DSP board latency model — the Eq. 3 timing budget.

The paper's necessary condition for beating the timing bottleneck::

    Lookahead >= Delay at {ADC + DSP + DAC + Speaker}     (Eq. 3)

A conventional headphone has ≈30 µs of acoustic budget (reference mic to
speaker, <1 cm); the sum of converter and processing delays is "easily
3×" that, so today's headphones miss the deadline and play the
anti-noise late.  MUTE's milliseconds of lookahead subsume all of it.

:class:`DspBoard` gathers the delay terms and provides the paper's
TMS320C6713 preset (8 kHz sampling cap → 4 kHz cancellation cap).  The
deadline itself is judged by the lookahead ledger:
:class:`repro.core.lookahead.LookaheadBudget` (``meets_deadline``,
``playback_lag_s``) and :func:`repro.core.lookahead.align`.
"""

from __future__ import annotations

import dataclasses

from ..acoustics.constants import CONVENTIONAL_ANC_BUDGET_S
from ..errors import ConfigurationError

__all__ = [
    "DspBoard",
    "tms320c6713",
    "headphone_dsp",
    "fast_dsp",
    "HEADPHONE_ACOUSTIC_BUDGET_S",
]


@dataclasses.dataclass(frozen=True)
class DspBoard:
    """Latency budget of the ear-device electronics.

    All delays in seconds.  ``max_sample_rate`` caps the usable audio
    band: the paper's board can only finish the per-sample LANC update
    within one sampling interval at 8 kHz.
    """

    adc_delay_s: float = 12 / 8000.0
    processing_delay_s: float = 1 / 8000.0
    dac_delay_s: float = 12 / 8000.0
    speaker_delay_s: float = 50e-6
    max_sample_rate: float = 8000.0
    name: str = "generic"

    def __post_init__(self):
        for field in ("adc_delay_s", "processing_delay_s", "dac_delay_s",
                      "speaker_delay_s"):
            value = getattr(self, field)
            if value < 0:
                raise ConfigurationError(f"{field} must be >= 0")
        if self.max_sample_rate <= 0:
            raise ConfigurationError("max_sample_rate must be > 0")

    @property
    def total_latency_s(self):
        """The right-hand side of Eq. 3."""
        return (self.adc_delay_s + self.processing_delay_s
                + self.dac_delay_s + self.speaker_delay_s)

    @property
    def usable_bandwidth_hz(self):
        """Nyquist band at the board's maximum sampling rate."""
        return self.max_sample_rate / 2.0


def tms320c6713(processing_headroom=1.0):
    """The paper's TI TMS320C6713 DSP starter kit.

    ``processing_headroom`` scales the per-sample processing time (>1
    models a heavier filter, <1 a lighter one).
    """
    if processing_headroom <= 0:
        raise ConfigurationError("processing_headroom must be > 0")
    return DspBoard(
        adc_delay_s=12 / 8000.0,
        processing_delay_s=processing_headroom / 8000.0,
        dac_delay_s=12 / 8000.0,
        speaker_delay_s=50e-6,
        max_sample_rate=8000.0,
        name="TMS320C6713",
    )


def headphone_dsp():
    """A conventional ANC headphone's pipeline.

    Fast specialized silicon, but the acoustic budget is only ~30 µs
    (``CONVENTIONAL_ANC_BUDGET_S``), and the pipeline sums to ~3× that —
    the paper's "easily 3x more than this time budget".
    """
    return DspBoard(
        adc_delay_s=40e-6,
        processing_delay_s=10e-6,
        dac_delay_s=30e-6,
        speaker_delay_s=10e-6,
        max_sample_rate=48000.0,
        name="headphone-asic",
    )


def fast_dsp():
    """A modern DSP able to run LANC at 48 kHz (the paper's "faster DSP
    will ease the problem" remark)."""
    return DspBoard(
        adc_delay_s=8 / 48000.0,
        processing_delay_s=1 / 48000.0,
        dac_delay_s=8 / 48000.0,
        speaker_delay_s=30e-6,
        max_sample_rate=48000.0,
        name="fast-dsp",
    )


#: Convenience: the conventional headphone's acoustic time budget.
HEADPHONE_ACOUSTIC_BUDGET_S = CONVENTIONAL_ANC_BUDGET_S
