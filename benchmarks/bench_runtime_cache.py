"""The repro.runtime layer: channel-cache speedup, executor wall time.

Two measurements, one artifact (``BENCH_runtime.json``):

* **cold vs warm** ``Scenario.build_channels()`` on the office scenario
  — the acceptance bar is warm >= 10x faster than cold, and warm output
  bit-identical to an uncached compute;
* **serial vs ``--jobs 2``** wall time of the full suite — every
  registered experiment on its defaults, as ``repro run-all`` runs it —
  through :func:`repro.runtime.run_experiments`.  Reported, not
  asserted: on a single-core host the pool adds fork overhead instead
  of speedup, and what the runtime *guarantees* is result equality
  (asserted here and in ``tests/test_runtime.py``), not a ratio.

Opt-in (``runtime_bench`` marker): these time the infrastructure, not
the paper's figures, so the default bench sweep skips them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _bench_utils import run_once, write_bench_json

from repro import runtime
from repro.core.scenario import office_scenario
from repro.eval import experiments
from repro.runtime.cache import ChannelCache

pytestmark = pytest.mark.runtime_bench


def measure_cache(warm_rounds=5):
    """Cold and best-warm build_channels times plus a bit-identity check."""
    scenario = office_scenario()
    cache = ChannelCache()

    t0 = time.perf_counter()
    cold = cache.get_or_build(scenario)
    cold_s = time.perf_counter() - t0

    warm_times = []
    warm = None
    for __ in range(warm_rounds):
        t0 = time.perf_counter()
        warm = cache.get_or_build(scenario)
        warm_times.append(time.perf_counter() - t0)
    warm_s = min(warm_times)

    uncached = scenario.compute_channels()
    identical = (
        np.array_equal(warm.h_ne.ir, uncached.h_ne.ir)
        and np.array_equal(warm.h_se.ir, uncached.h_se.ir)
        and all(np.array_equal(a.ir, b.ir)
                for a, b in zip(warm.h_nr, uncached.h_nr))
        and warm.acoustic_lead_samples == uncached.acoustic_lead_samples
    )
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "bit_identical": identical,
        "stats": cache.stats(),
    }


def measure_suite(jobs=2):
    """Serial vs ``jobs``-worker wall time of ``repro run-all``'s suite."""
    names = experiments.experiment_names()
    request = runtime.RunRequest()          # run-all's defaults
    serial = runtime.run_experiments(names, request=request)
    parallel = runtime.run_experiments(names,
                                       request=request.replace(jobs=jobs))
    equal = not serial.failures() and not parallel.failures() and all(
        serial.results()[name].report() == parallel.results()[name].report()
        for name in names
    )
    return {
        "experiments": names,
        "jobs": jobs,
        "serial_s": serial.wall_s,
        "parallel_s": parallel.wall_s,
        "pool_used": parallel.parallel,
        "results_equal": equal,
    }


def test_runtime_cache_and_executor(benchmark, report):
    def measure():
        return {"cache": measure_cache(), "suite": measure_suite()}

    result = run_once(benchmark, measure)
    cache, suite = result["cache"], result["suite"]

    path = write_bench_json("runtime", result)
    report("\n".join([
        "repro.runtime bench",
        f"  build_channels cold: {cache['cold_s'] * 1e3:8.2f} ms",
        f"  build_channels warm: {cache['warm_s'] * 1e3:8.2f} ms  "
        f"({cache['speedup']:.0f}x, bit-identical: "
        f"{cache['bit_identical']})",
        f"  run-all ({len(suite['experiments'])} experiments) serial:    "
        f"{suite['serial_s']:6.2f} s",
        f"  run-all ({len(suite['experiments'])} experiments) --jobs "
        f"{suite['jobs']}: {suite['parallel_s']:6.2f} s  "
        f"(pool used: {suite['pool_used']}, "
        f"results equal: {suite['results_equal']})",
        f"  [written to {path.name}]",
    ]))

    assert cache["bit_identical"]
    assert cache["speedup"] >= 10.0, (cache["cold_s"], cache["warm_s"])
    assert suite["results_equal"]
