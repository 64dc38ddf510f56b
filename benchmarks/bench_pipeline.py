"""End-to-end pipeline benchmark: the product vs the test oracle.

The committed regression gate for the profile-guided fast-path work
(``docs/PERFORMANCE.md``): one fig12-style workload — the bench
scenario, an :class:`~repro.wireless.relay.AnalogRelay` FM chain, and
seeded white noise — is run end to end through
:meth:`MuteSystem.run <repro.core.system.MuteSystem.run>` twice:

* **baseline** — inside :func:`tests.oracle.reference_paths`: the
  per-sample kernel walks and the straightforward signal arithmetic
  (``fftconvolve`` / uncached ``resample_poly`` / allocating mod-demod),
  kept verbatim in the test oracle so this bench has an honest
  denominator;
* **fast** — the product: cached-FFT overlap-save convolution, cached
  polyphase resampling, in-place mod/demod, BLAS kernels.

The bench asserts both the **speedup floor** (fast must beat baseline
by ≥ :data:`PIPELINE_SPEEDUP_FLOOR`) and the **correctness contract**
(residuals agree to ≤ :data:`RESIDUAL_TOLERANCE` max abs), and writes
the result to ``BENCH_pipeline.json`` — the artifact the CI perf-smoke
job runs and uploads.

Run with::

    pytest benchmarks/bench_pipeline.py -s
"""

import contextlib

import numpy as np

from _bench_utils import time_call, write_bench_json
from repro.core.system import MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.signals import WhiteNoise
from repro.wireless.relay import AnalogRelay
from tests import oracle

#: The fast configuration must beat the slow baseline end to end by at
#: least this much (measured ~5x on the reference container; committed
#: floor leaves headroom for slower CI machines).
PIPELINE_SPEEDUP_FLOOR = 2.0

#: Max abs deviation allowed between fast and baseline residuals — the
#: kernel-vs-oracle contract; every conv/resample fast path is
#: individually bit-identical or ≤ 1e-12 (tests/test_fastconv.py).
RESIDUAL_TOLERANCE = 1e-10

#: Simulated seconds of the fig12 workload.
DURATION_S = 4.0

#: Workload seed (the Figure 12 seed).
SEED = 7


#: The two legs: the oracle's reference arithmetic and the product.
PATHS = {"baseline": oracle.reference_paths,
         "fast": contextlib.nullcontext}


def _build_system():
    scenario = bench_scenario()
    relay = AnalogRelay(audio_rate=scenario.sample_rate, seed=SEED)
    config = default_config(relay=relay, seed=SEED)
    return MuteSystem(scenario, config)


def test_pipeline_fast_vs_slow(report):
    """Fast vs slow end to end: speedup floor + residual agreement.

    The timed region is :meth:`MuteSystem.run` — the per-workload
    pipeline (propagate, relay, align, adapt, collect).  System
    construction (secondary-path probe, relay latency calibration) is
    a one-time setup cost shared by both variants and sits outside the
    timer; both variants make the same number of ``run`` calls so the
    relay's seeded RF-noise stream stays comparable.
    """
    noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1,
                       seed=SEED).generate(DURATION_S)

    rows = {}
    for name, path in PATHS.items():
        with path():
            system = _build_system()
            timing = time_call(lambda: system.run(noise),
                               repeats=3, warmup=1)
        rows[name] = {
            "paths": "tests/oracle.py" if name == "baseline" else "product",
            **timing.to_dict(),
        }
        rows[name]["result"] = timing.result

    base, fast = rows["baseline"], rows["fast"]
    max_dev = float(np.max(np.abs(
        fast["result"].residual - base["result"].residual)))
    speedup = base["median_s"] / fast["median_s"]
    cancellation_db = float(
        fast["result"].mean_cancellation_db(f_high=1000.0))
    for row in rows.values():
        del row["result"]

    path = write_bench_json("pipeline", {
        "schema": "repro.bench.pipeline/v1",
        "workload": {
            "kind": "fig12-white-noise",
            "duration_s": DURATION_S,
            "seed": SEED,
            "relay": "analog",
            "scenario": "bench (6x5x3 m room)",
        },
        "pipeline_speedup_floor": PIPELINE_SPEEDUP_FLOOR,
        "residual_tolerance": RESIDUAL_TOLERANCE,
        "baseline": base,
        "fast": fast,
        "speedup": speedup,
        "max_abs_residual_deviation": max_dev,
        "mean_cancellation_db_low_band": cancellation_db,
    })

    report(
        f"end-to-end MuteSystem.run, {DURATION_S:.0f} s fig12 workload\n"
        f"  baseline (oracle paths)      {base['median_s']:.3f} s\n"
        f"  fast (product)               {fast['median_s']:.3f} s\n"
        f"  speedup {speedup:.2f}x (floor {PIPELINE_SPEEDUP_FLOOR}x), "
        f"max residual dev {max_dev:.2e}\n"
        f"[written to {path}]"
    )

    assert max_dev <= RESIDUAL_TOLERANCE, \
        f"fast pipeline diverges from baseline: {max_dev:.3e}"
    assert speedup >= PIPELINE_SPEEDUP_FLOOR, \
        f"pipeline speedup {speedup:.2f}x < {PIPELINE_SPEEDUP_FLOOR}x"

