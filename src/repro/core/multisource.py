"""Multi-source scenes: several noise sources, several relays.

Builds the signals for the paper's §6 extension experiment: each noise
source gets a relay pasted near it; each relay's forwarded waveform is
aligned to the error-mic time base using *its own* acoustic lead; and
the multi-reference filter (:class:`MultiRefLancFilter`) cancels the
mixture.  The single-reference baseline for comparison uses only the
best relay.

The key physical point (which the experiment demonstrates): with one
reference, the second source is *noise in the reference* — it arrives at
the relay through a different channel than at the ear, so no single
filter maps the mixture correctly, and cancellation plateaus.  A
reference per source restores identifiability.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..acoustics.channels import AcousticChannel
from ..acoustics.rir import room_impulse_response
from ..errors import ConfigurationError
from ..hardware.dsp_board import tms320c6713
from ..utils.validation import check_waveform
from .lookahead import align, lookahead_samples
from .secondary_path import estimate_secondary_path

__all__ = ["MultiSourceScene", "build_multisource_scene"]


@dataclasses.dataclass
class MultiSourceScene:
    """Prepared signals for one multi-source experiment run.

    Attributes
    ----------
    references:
        Per-relay aligned reference waveforms (list).
    disturbance:
        Mixture at the error microphone.
    n_futures:
        Usable anti-causal taps per relay.
    secondary_true / secondary_estimate:
        Physical and probed ``h_se``.
    sample_rate:
        Hz.
    per_source:
        ``(source_point, relay_point, lead_samples)`` per branch, for
        reports.
    """

    references: list
    disturbance: np.ndarray
    n_futures: list
    secondary_true: np.ndarray
    secondary_estimate: np.ndarray
    sample_rate: float
    per_source: list


def build_multisource_scene(scenario, sources, waveforms, dsp=None,
                            probe_noise_rms=0.002, seed=0,
                            max_n_future=64):
    """Propagate several sources through the room; align per-relay.

    Parameters
    ----------
    scenario:
        A :class:`repro.core.Scenario` whose ``relays`` tuple has one
        relay per source (relay *i* is assumed pasted near source *i*).
    sources:
        Sequence of :class:`repro.acoustics.Point` noise-source
        positions (same length as ``scenario.relays``).
    waveforms:
        Per-source waveforms (equal lengths).
    dsp:
        Ear-device latency budget (default: the paper's board).
    """
    if len(sources) != len(scenario.relays):
        raise ConfigurationError(
            f"need one relay per source: {len(sources)} sources, "
            f"{len(scenario.relays)} relays"
        )
    if len(waveforms) != len(sources):
        raise ConfigurationError("need one waveform per source")
    waveforms = [check_waveform(f"waveforms[{i}]", w)
                 for i, w in enumerate(waveforms)]
    lengths = {w.size for w in waveforms}
    if len(lengths) != 1:
        raise ConfigurationError("all source waveforms must share a length")

    dsp = dsp or tms320c6713()
    fs = scenario.sample_rate

    T = waveforms[0].size
    disturbance = np.zeros(T)
    references = []
    n_futures = []
    per_source = []

    # h_se once (speaker and error mic don't move).
    h_se_ir = room_impulse_response(
        scenario.room, scenario.speaker_position, scenario.client, fs,
        settings=scenario.rir_settings,
    )
    estimate = estimate_secondary_path(
        h_se_ir, n_taps=min(h_se_ir.size, 128),
        probe_duration_s=1.0, sample_rate=fs,
        ambient_noise_rms=probe_noise_rms, seed=seed,
    )

    for i, (source, waveform) in enumerate(zip(sources, waveforms)):
        scenario.room.require_inside(f"sources[{i}]", source)
        relay = scenario.relays[i]
        h_ne = AcousticChannel(room_impulse_response(
            scenario.room, source, scenario.client, fs,
            settings=scenario.rir_settings), name=f"h_ne[{i}]")
        disturbance += h_ne.apply(waveform)

        # Every relay hears *every* source — that is the whole point.
        capture = np.zeros(T)
        for j, (other_source, other_wave) in enumerate(zip(sources,
                                                           waveforms)):
            h_nr = room_impulse_response(
                scenario.room, other_source, relay, fs,
                settings=scenario.rir_settings)
            capture += AcousticChannel(h_nr, name=f"h_nr[{i}][{j}]") \
                .apply(other_wave)

        # Align this relay's stream on its *own* source's direct path.
        lead = lookahead_samples(
            source.distance_to(scenario.client), source.distance_to(relay),
            fs, speed=scenario.rir_settings.speed_of_sound)
        reference, n_future = align(capture, lead, dsp.total_latency_s, fs,
                                    max_n_future)
        references.append(reference)
        n_futures.append(n_future)
        per_source.append((source, relay, lead))

    return MultiSourceScene(
        references=references,
        disturbance=disturbance,
        n_futures=n_futures,
        secondary_true=h_se_ir,
        secondary_estimate=estimate.impulse_response,
        sample_rate=fs,
        per_source=per_source,
    )
