"""Extension experiment — lifting the 4 kHz cap with a faster DSP.

Paper §5.2: "MUTE's cancellation is capped at 4 kHz due to limited
processing speed of the TMS320C6713 DSP.  It can sample at most 8 kHz to
finish the computation within one sampling interval.  A faster DSP will
ease the problem."

This experiment builds the eased system: the same bench geometry
simulated at 16 kHz with the ``fast_dsp`` board running the paper's
per-sample LANC (Algorithm 1) at twice the rate, cancelling out to
8 kHz.  The paper's board contributes a comparison row: above its 4 kHz
Nyquist band it cannot act at all, so its cancellation there is 0 dB by
construction.
"""

from __future__ import annotations

import dataclasses

from ...acoustics.geometry import Point, Room
from ...acoustics.rir import RirSettings
from ...core.adaptive.lanc import LancFilter
from ...core.lookahead import align
from ...core.scenario import Scenario
from ...core.secondary_path import estimate_secondary_path
from ...hardware.dsp_board import fast_dsp
from ...signals import WhiteNoise
from ...utils.units import cancellation_db
from ..metrics import measure_cancellation
from ..reporting import format_table
from .registry import experiment_result

__all__ = ["WidebandResult", "run_wideband", "wideband_bench"]


def wideband_bench(sample_rate=16000.0):
    """The standard bench geometry, sampled at 16 kHz."""
    room = Room(6.0, 5.0, 3.0, absorption=0.3)
    return Scenario(
        room=room,
        source=Point(1.0, 0.8, 1.2),
        client=Point(4.5, 2.5, 1.2),
        relays=(Point(1.3, 0.25, 1.2),),
        sample_rate=sample_rate,
        rir_settings=RirSettings(max_order=2),
    )


@dataclasses.dataclass
class WidebandResult:
    """Band-by-band cancellation of the fast-DSP system."""

    curve: object
    band_means_db: dict     # (lo, hi) -> dB
    broadband_db: float
    n_future: int
    sample_rate: float

    def report(self):
        rows = []
        for (lo, hi), value in self.band_means_db.items():
            paper_board = "—(cannot act)" if lo >= 4000 else "active"
            rows.append((f"{lo}-{hi}", f"{value:.1f}", paper_board))
        table = format_table(
            ["band (Hz)", "fast DSP @16 kHz (dB)",
             "paper's 8 kHz board"],
            rows,
            title="Extension — cancellation beyond the 4 kHz cap",
        )
        return table + (
            f"\nbroadband: {self.broadband_db:.1f} dB with "
            f"N = {self.n_future} future taps at "
            f"{self.sample_rate / 1e3:.0f} kHz"
        )


def run_wideband(duration_s=8.0, *, seed=7, scenario=None, n_past=1024,
                 mu=0.15, settle_fraction=0.5):
    """Run the 16 kHz fast-DSP system over the bench."""
    scenario = scenario or wideband_bench()
    fs = scenario.sample_rate
    channels = scenario.build_channels()
    noise = WhiteNoise(sample_rate=fs, level_rms=0.1, seed=seed) \
        .generate(duration_s)

    d = channels.h_ne.apply(noise)
    capture = channels.h_nr[0].apply(noise)
    reference, n_future = align(capture, channels.acoustic_lead_samples[0],
                                fast_dsp().total_latency_s, fs, 128)

    s_true = channels.h_se.ir
    estimate = estimate_secondary_path(
        s_true, n_taps=min(s_true.size, 256), probe_duration_s=2.0,
        sample_rate=fs, ambient_noise_rms=0.002, seed=seed)

    lanc = LancFilter(n_future=n_future, n_past=n_past,
                      secondary_path=estimate.impulse_response, mu=mu)
    result = lanc.run(reference, d, secondary_path_true=s_true)

    curve = measure_cancellation(d, result.error, fs,
                                 label="fast DSP @ 16 kHz",
                                 settle_fraction=settle_fraction)
    bands = [(0, 2000), (2000, 4000), (4000, 6000), (6000, 8000)]
    band_means = {band: curve.mean_db(*band) for band in bands}
    tail = slice(int(d.size * settle_fraction), None)
    return experiment_result(
        "wideband",
        dict(duration_s=duration_s, seed=seed, scenario=scenario,
             n_past=n_past, mu=mu, settle_fraction=settle_fraction),
        WidebandResult(
            curve=curve,
            band_means_db=band_means,
            broadband_db=cancellation_db(d[tail], result.error[tail]),
            n_future=n_future,
            sample_rate=fs,
        ),
    )
