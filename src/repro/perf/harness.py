"""Stage-level profiling of the MUTE pipeline (``repro perf-profile``).

The harness runs the Figure 12 bench workload end to end through
:meth:`repro.core.system.MuteSystem.run` and, separately, through each
stage in isolation:

``synthesis``
    Source-noise generation (:class:`repro.signals.WhiteNoise`).
``channel``
    Room acoustics — ``h_ne`` and ``h_nr`` FIR application
    (:mod:`repro.acoustics.channels`, the fast-conv engine's territory).
``relay``
    The IoT relay forward path.  With the default
    :class:`~repro.wireless.relay.AnalogRelay` this is the full
    FM-at-complex-baseband chain — resample up, modulate, CFO, AWGN,
    discriminate, resample down — the polyphase-cache fast path's
    territory.
``kernel``
    The adaptive LANC walk over the prepared signals.
``ear``
    Ear-side hardware: transducer coloration and ear-canal coupling
    (:mod:`repro.hardware`).

Each stage is timed with the shared median-of-N
:func:`repro.perf.time_call` timer and reported as a ``repro.perf/v1``
JSON document — the artifact the CI perf-smoke job uploads and the
document every fast path in ``docs/PERFORMANCE.md`` cites as its
motivation.

Stage timings are *diagnostic* (where does the time go?); the committed
regression gate lives in ``benchmarks/bench_pipeline.py``, which runs
the same workload against the test oracle's reference paths and
asserts the speedup floor.
"""

from __future__ import annotations

import numpy as np

from ..core.system import MuteSystem
from ..errors import ConfigurationError
from ..eval.experiments.common import bench_scenario, default_config
from ..hardware.ear import EarCanalCoupling
from ..signals import WhiteNoise
from ..wireless.relay import AnalogRelay
from .timer import time_call

__all__ = ["PROFILE_SCHEMA", "default_noise", "profile_pipeline"]

#: Schema identifier stamped on every profile document.
PROFILE_SCHEMA = "repro.perf/v1"

#: Stage names in pipeline order (the report preserves this order).
STAGES = ("synthesis", "channel", "relay", "kernel", "ear")


def default_noise(duration_s, sample_rate=8000.0, seed=7):
    """The Figure 12 workload: seeded white noise at bench level."""
    return WhiteNoise(sample_rate=sample_rate, level_rms=0.1,
                      seed=seed).generate(duration_s)


def profile_pipeline(duration_s=2.0, repeats=3, warmup=1, seed=7):
    """Profile the pipeline; returns a ``repro.perf/v1`` dict.

    Parameters
    ----------
    duration_s:
        Simulated workload length (seconds of audio).
    repeats / warmup:
        Per-stage timing repeats (median reported) and untimed warmup
        calls — warmup 1 measures the steady state the caches serve.
    seed:
        Workload seed (Figure 12 uses 7).
    """
    if duration_s <= 0:
        raise ConfigurationError(
            f"duration_s must be > 0, got {duration_s}")
    scenario = bench_scenario()
    sample_rate = scenario.sample_rate
    relay = AnalogRelay(audio_rate=sample_rate, seed=seed)
    config = default_config(relay=relay, seed=seed)

    system = MuteSystem(scenario, config)
    noise = default_noise(duration_s, sample_rate, seed)
    prepared = system.prepare(noise)
    earcup_model = EarCanalCoupling(sample_rate=sample_rate)
    transducer = config.transducer
    h_ne = system.channels.h_ne
    h_nr = system.channels.h_nr[system.relay_index]
    source = WhiteNoise(sample_rate=sample_rate, level_rms=0.1, seed=seed)
    captured = h_nr.apply(noise)
    antinoise = prepared.disturbance_at_ear  # stand-in drive signal

    def run_kernel():
        lanc = system.make_filter(n_future=prepared.n_future)
        return lanc.run(
            prepared.reference, prepared.disturbance_at_ear,
            secondary_path_true=prepared.secondary_path_true)

    def run_ear():
        colored = transducer.apply(antinoise)
        return earcup_model.drum_pressure(prepared.disturbance_at_ear,
                                          colored)

    stage_fns = {
        "synthesis": lambda: source.generate(duration_s),
        "channel": lambda: (h_ne.apply(noise), h_nr.apply(noise)),
        "relay": lambda: relay.forward(captured),
        "kernel": run_kernel,
        "ear": run_ear,
    }
    stages = []
    for name in STAGES:
        timing = time_call(stage_fns[name], repeats=repeats, warmup=warmup)
        stages.append({"stage": name, **timing.to_dict()})

    end_to_end = time_call(lambda: system.run(noise), repeats=repeats,
                           warmup=warmup)
    residual_rms = float(np.sqrt(np.mean(
        np.square(end_to_end.result.residual))))

    total_stage_s = sum(s["median_s"] for s in stages)
    for s in stages:
        s["fraction_of_stages"] = (s["median_s"] / total_stage_s
                                   if total_stage_s > 0 else 0.0)
    return {
        "schema": PROFILE_SCHEMA,
        "workload": {
            "kind": "fig12-white-noise",
            "duration_s": float(duration_s),
            "sample_rate": float(sample_rate),
            "seed": int(seed),
            "samples": int(noise.size),
            "relay": "analog",
        },
        "settings": {
            "repeats": int(repeats),
            "warmup": int(warmup),
        },
        "stages": stages,
        "total_stage_s": total_stage_s,
        "end_to_end": {"target": "MuteSystem.run", **end_to_end.to_dict()},
        "residual_rms": residual_rms,
    }


def render_profile(doc):
    """Terminal table for one :func:`profile_pipeline` document."""
    lines = [
        f"== perf profile: {doc['workload']['duration_s']:.1f} s "
        "fig12 workload ==",
        f"  {'stage':<10} {'median':>10} {'best':>10} {'share':>7}",
    ]
    for s in doc["stages"]:
        lines.append(
            f"  {s['stage']:<10} {s['median_s'] * 1e3:>8.2f}ms "
            f"{s['best_s'] * 1e3:>8.2f}ms "
            f"{s['fraction_of_stages'] * 100:>6.1f}%"
        )
    e2e = doc["end_to_end"]
    lines.append(
        f"  {'end-to-end':<10} {e2e['median_s'] * 1e3:>8.2f}ms "
        f"{e2e['best_s'] * 1e3:>8.2f}ms   (MuteSystem.run)"
    )
    return "\n".join(lines)
