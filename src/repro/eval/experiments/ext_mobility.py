"""Extension experiment — head mobility (paper §6).

The client's head sways slowly while MUTE cancels wide-band noise: the
noise→ear channel ``h_ne`` drifts, forcing the adaptive filter to track.
Three conditions:

* **static head** — the usual bench (upper bound);
* **moving, slow step** — the deep-cancellation step size tuned for
  static scenes (µ = 0.1) now lags the channel;
* **moving, tracking step** — a faster step (µ = 0.35) trades
  steady-state depth for agility — the paper's "enhanced filtering
  methods known to converge faster", in its simplest NLMS form.

Expected shape: mobility costs several dB; a tracking-tuned step
recovers a meaningful part of it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...acoustics.geometry import Point
from ...acoustics.timevarying import moving_client_channel
from ...core.adaptive.lanc import LancFilter
from ...core.lookahead import align
from ...core.secondary_path import estimate_secondary_path
from ...hardware.dsp_board import tms320c6713
from ...signals import WhiteNoise
from ...utils.units import cancellation_db
from ..reporting import format_table
from .common import bench_scenario
from .registry import experiment_result

__all__ = ["MobilityResult", "run_mobility", "sway_path"]


def sway_path(center, amplitude_m=0.15, n_periods=4, points_per_period=8):
    """Waypoints of a lateral head sway around ``center``.

    ``n_periods`` oscillations sampled densely enough that consecutive
    waypoints move a small fraction of a wavelength.
    """
    n_points = n_periods * points_per_period + 1
    offsets = amplitude_m * np.sin(
        np.linspace(0.0, n_periods * 2.0 * np.pi, n_points))
    return [Point(center.x, center.y + dy, center.z) for dy in offsets]


@dataclasses.dataclass
class MobilityResult:
    """Broadband cancellation per condition."""

    total_db: dict     # condition -> dB
    sway_amplitude_m: float

    @property
    def mobility_cost_db(self):
        """How much the moving head costs the slow-step filter."""
        return (self.total_db["moving, slow step"]
                - self.total_db["static head"])

    @property
    def tracking_recovery_db(self):
        """How much the faster step wins back (negative = recovers)."""
        return (self.total_db["moving, tracking step"]
                - self.total_db["moving, slow step"])

    def report(self):
        rows = [(condition, f"{value:.1f}")
                for condition, value in self.total_db.items()]
        table = format_table(
            ["condition", "broadband cancellation (dB)"], rows,
            title=(f"Extension — head mobility "
                   f"(±{self.sway_amplitude_m * 100:.0f} cm sway)"),
        )
        return table + (
            f"\nmobility cost at the static step: "
            f"{self.mobility_cost_db:+.1f} dB; tracking step recovers "
            f"{self.tracking_recovery_db:+.1f} dB"
        )


def run_mobility(duration_s=12.0, *, seed=5, scenario=None, sway_m=0.15,
                 n_past=384, settle_fraction=0.5):
    """Run the three mobility conditions over one noise take."""
    scenario = scenario or bench_scenario()
    fs = scenario.sample_rate
    noise = WhiteNoise(sample_rate=fs, level_rms=0.1, seed=seed) \
        .generate(duration_s)

    channels = scenario.build_channels()
    reference, n_future = align(
        channels.h_nr[0].apply(noise), channels.acoustic_lead_samples[0],
        tms320c6713().total_latency_s, fs, 64)

    s_true = channels.h_se.ir
    estimate = estimate_secondary_path(
        s_true, n_taps=min(s_true.size, 128), probe_duration_s=1.0,
        sample_rate=fs, ambient_noise_rms=0.002, seed=seed)
    s_hat = estimate.impulse_response

    # Static disturbance vs the swaying-head disturbance.
    d_static = channels.h_ne.apply(noise)
    moving = moving_client_channel(
        scenario.room, scenario.source,
        sway_path(scenario.client, amplitude_m=sway_m),
        fs, settings=scenario.rir_settings)
    d_moving = moving.apply(noise)

    tail = slice(int(noise.size * settle_fraction), None)
    conditions = {
        "static head": (d_static, 0.1),
        "moving, slow step": (d_moving, 0.1),
        "moving, tracking step": (d_moving, 0.35),
    }
    total_db = {}
    for label, (disturbance, mu) in conditions.items():
        # The light leak keeps FxLMS stable against the secondary-path
        # estimate's truncation error at the larger tracking step.
        lanc = LancFilter(n_future=n_future, n_past=n_past,
                          secondary_path=s_hat, mu=mu, leak=1e-4)
        result = lanc.run(reference, disturbance,
                          secondary_path_true=s_true)
        total_db[label] = cancellation_db(disturbance[tail],
                                          result.error[tail])
    return experiment_result(
        "mobility",
        dict(duration_s=duration_s, seed=seed, scenario=scenario,
             sway_m=sway_m, n_past=n_past, settle_fraction=settle_fraction),
        MobilityResult(total_db=total_db, sway_amplitude_m=sway_m),
    )
