"""Figure 17 — additional cancellation from predictive profile switching.

The paper's setup: wide-band background noise plays *continuously from
one ambient speaker* while a voice talks intermittently *from another*.
When speech is active the dominant source — and therefore the acoustic
channels the adaptive filter must invert — changes; a single LANC filter
re-converges at every onset/offset (Figure 8b), while the predictive
switcher classifies the lookahead buffer, anticipates the transition,
and loads cached converged taps for the incoming profile (Figure 8c).

The paper reports ≈3 dB average additional cancellation; the sign
convention here is negative = switching cancels more.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...acoustics.geometry import Point
from ...core.adaptive.lanc import LancFilter, StreamingLanc
from ...core.lookahead import align
from ...core.profiles import PredictiveProfileSwitcher, ProfileClassifier
from ...core.secondary_path import estimate_secondary_path
from ...hardware.dsp_board import tms320c6713
from ...signals import BandlimitedNoise, IntermittentSource, MaleVoice
from ..metrics import additional_cancellation_db, measure_cancellation
from ..reporting import format_curves
from .registry import experiment_result
from .common import bench_scenario

__all__ = ["Fig17Result", "run_fig17", "run_switching", "TwoSourceScene",
           "build_two_source_scene"]


@dataclasses.dataclass
class TwoSourceScene:
    """Prepared signals for the two-speaker profiling experiment."""

    reference: np.ndarray            # aligned reference at the DSP
    disturbance: np.ndarray          # mixture at the error mic
    secondary_true: np.ndarray
    secondary_estimate: np.ndarray
    n_future: int
    speech_mask: np.ndarray          # ground truth voice activity
    sample_rate: float


@dataclasses.dataclass
class Fig17Result:
    """Curves for both conditions plus the Figure 17 delta."""

    curve_single: object
    curve_switching: object
    additional: object           # switching minus single (negative = gain)
    mean_additional_db: float    # paper: ≈ −3 dB
    switch_events: list
    cache_hits: int

    def report(self):
        table = format_curves(
            [self.curve_single, self.curve_switching, self.additional],
            title="Figure 17 — profile switching gain (intermittent voice "
                  "over background)",
        )
        return table + (
            f"\nmean additional cancellation: {self.mean_additional_db:+.1f} dB "
            f"(paper: ~-3 dB); switches: {len(self.switch_events)}, "
            f"cache hits: {self.cache_hits}"
        )


def build_two_source_scene(duration_s=16.0, seed=31, scenario=None,
                           voice_position=None, background_level=0.05,
                           voice_level=0.16, n_past=384):
    """Propagate two sources through the room and align the reference.

    The background speaker sits at the scenario's source position; the
    voice speaker at ``voice_position`` (default: a different corner,
    still farther from the client than the relay).
    """
    scenario = scenario or bench_scenario()
    fs = scenario.sample_rate
    # The voice speaker stands ~1.2 m from the background speaker — far
    # enough that the two profiles need different filters, close enough
    # that the relay still leads the ear for both sources.
    voice_position = voice_position or Point(2.2, 0.6, 1.3)

    scen_bg = scenario
    scen_voice = scenario.with_source(voice_position)
    ch_bg = scen_bg.build_channels()
    ch_voice = scen_voice.build_channels()

    background = BandlimitedNoise(100.0, 3600.0, sample_rate=fs,
                                  level_rms=background_level, seed=seed)
    voice_src = MaleVoice(sample_rate=fs, level_rms=voice_level,
                          seed=seed + 1, speech_fraction=1.0)
    gated = IntermittentSource(voice_src, on_s=1.6, off_s=1.1, seed=seed + 2)
    speech_wave, mask = gated.generate_with_activity(duration_s)
    bg_wave = background.generate(duration_s)

    disturbance = (ch_bg.h_ne.apply(bg_wave)
                   + ch_voice.h_ne.apply(speech_wave))
    captured = (ch_bg.h_nr[0].apply(bg_wave)
                + ch_voice.h_nr[0].apply(speech_wave))

    # One physical reference stream, one alignment shift: use the smaller
    # of the two leads so the future taps stay realizable for both
    # sources; the tap vector absorbs the per-source difference.
    lead = min(ch_bg.acoustic_lead_samples[0],
               ch_voice.acoustic_lead_samples[0])
    reference, n_future = align(captured, lead,
                                tms320c6713().total_latency_s, fs, 64)

    secondary_true = ch_bg.h_se.ir
    estimate = estimate_secondary_path(
        secondary_true, n_taps=min(secondary_true.size, 128),
        probe_duration_s=1.0, sample_rate=fs, ambient_noise_rms=0.002,
        seed=seed,
    )
    return TwoSourceScene(
        reference=reference,
        disturbance=disturbance,
        secondary_true=secondary_true,
        secondary_estimate=estimate.impulse_response,
        n_future=n_future,
        speech_mask=mask,
        sample_rate=fs,
    ), n_past


def _train_classifier(classifier, reference, mask, sample_rate):
    """Teach 'speech' and 'background' from labeled reference segments."""
    min_len = int(0.3 * sample_rate)
    speech_idx = np.flatnonzero(mask)
    quiet_idx = np.flatnonzero(~mask)
    if speech_idx.size < min_len or quiet_idx.size < min_len:
        raise ValueError("schedule leaves too little data to train profiles")
    classifier.register("speech", reference[speech_idx[: min_len * 3]])
    classifier.register("background", reference[quiet_idx[: min_len * 3]])


def run_switching(scene, n_past, mu, block_s=0.02):
    """LANC with predictive profile switching over ``scene``.

    Trains the classifier on the scene's labeled reference, then walks
    one session in ``block_s`` blocks.  Before each block the switcher
    classifies what is about to arrive — the physically available
    ``n_future`` samples of lookahead plus a short recent window — and
    loads the incoming profile's cached taps on a change.  Returns
    ``(residual, switcher)``.
    """
    fs = scene.sample_rate
    classifier = ProfileClassifier(sample_rate=fs, n_bands=12,
                                   max_distance=1.2, energy_floor=1e-5)
    _train_classifier(classifier, scene.reference, scene.speech_mask, fs)
    switched = LancFilter(n_future=scene.n_future, n_past=n_past,
                          secondary_path=scene.secondary_estimate, mu=mu)
    switcher = PredictiveProfileSwitcher(classifier, switched,
                                         min_dwell_blocks=4)
    session = StreamingLanc(switched, scene.reference,
                            secondary_path_true=scene.secondary_true)
    block = max(int(block_s * fs), 1)
    for start in range(0, scene.reference.size, block):
        window = np.concatenate([
            scene.reference[max(start - 128, 0): start],
            session.state.peek_future(scene.n_future),
        ])
        switcher.observe(window, start)
        session.process(scene.disturbance[start: start + block])
    return session.residual(), switcher


def run_fig17(duration_s=16.0, *, seed=31, scenario=None, block_s=0.02,
              settle_fraction=0.35, mu=0.1):
    """Run single-filter and switching conditions over one scene."""
    scene, n_past = build_two_source_scene(duration_s=duration_s, seed=seed,
                                           scenario=scenario)

    # --- Condition A: one filter, no profiling -----------------------
    single = LancFilter(n_future=scene.n_future, n_past=n_past,
                        secondary_path=scene.secondary_estimate, mu=mu)
    res_single = single.run(scene.reference, scene.disturbance,
                            secondary_path_true=scene.secondary_true)

    # --- Condition B: predictive profile switching --------------------
    res_switching, switcher = run_switching(scene, n_past, mu, block_s)

    kwargs = dict(sample_rate=scene.sample_rate,
                  settle_fraction=settle_fraction)
    curve_single = measure_cancellation(
        scene.disturbance, res_single.error,
        label="single filter", **kwargs)
    curve_switching = measure_cancellation(
        scene.disturbance, res_switching,
        label="with switching", **kwargs)
    additional = additional_cancellation_db(curve_switching, curve_single)

    result = Fig17Result(
        curve_single=curve_single,
        curve_switching=curve_switching,
        additional=additional,
        mean_additional_db=additional.mean_db(),
        switch_events=list(switcher.events),
        cache_hits=sum(1 for e in switcher.events if e.cache_hit),
    )
    return experiment_result(
        "fig17",
        dict(duration_s=duration_s, seed=seed, scenario=scenario,
             block_s=block_s, settle_fraction=settle_fraction, mu=mu),
        result,
    )
