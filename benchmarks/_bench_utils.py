"""Helpers shared by the figure benchmarks.

Besides the pytest-benchmark shim, this module holds the **one shared
timer** (:func:`time_call`): every bench that reports a wall time in a
``BENCH_*.json`` uses the same median-of-N/best-of-N measurement, so
the numbers are directly comparable (see ``docs/PERFORMANCE.md``).  It
is also where benches pick up the **shared observability schema**: any
bench can snapshot the metrics the instrumented pipeline recorded
(``repro.obs.metrics/v1``) and emit them next to its figure table, so
every ``bench_*.py`` speaks the same JSON dialect as
``repro obs-report``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

from repro import obs
from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall times of one repeated measurement, plus the last result."""

    result: object            #: return value of the final repeat
    times_s: tuple            #: every repeat's wall time, in run order

    @property
    def median_s(self):
        """Median repeat — the headline number every artifact reports."""
        return float(statistics.median(self.times_s))

    @property
    def best_s(self):
        """Fastest repeat (the least-interference bound)."""
        return float(min(self.times_s))

    @property
    def repeats(self):
        return len(self.times_s)

    def to_dict(self):
        """JSON-able summary (no ``result`` — callers own their payloads)."""
        return {
            "median_s": self.median_s,
            "best_s": self.best_s,
            "repeats": self.repeats,
            "times_s": [float(t) for t in self.times_s],
        }


def time_call(fn, repeats=3, warmup=0):
    """Run ``fn()`` ``repeats`` times; return a :class:`Timing`.

    ``warmup`` extra untimed calls run first — use 1 for code with
    one-time caches (FFT plans, polyphase designs) when measuring the
    steady state, 0 when the cold cost is the point.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    for __ in range(int(warmup)):
        fn()
    times = []
    result = None
    for __ in range(int(repeats)):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return Timing(result=result, times_s=tuple(times))


def run_once(benchmark, fn, **kwargs):
    """Execute ``fn`` once under the benchmark timer; return its result."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)


def write_bench_json(name, payload):
    """Write ``BENCH_<name>.json`` next to the benchmarks; return the path.

    The standing artifact a bench leaves behind (wall times, speedups,
    metrics snapshots) so runs are comparable across commits without
    re-reading terminal output.
    """
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                    encoding="utf-8")
    return path


def metrics_snapshot():
    """The global obs metrics as a ``repro.obs.metrics/v1`` document.

    Empty (but schema-stamped) unless the bench enabled observability
    around the code it measured — see ``bench_obs_overhead.py`` for the
    pattern.
    """
    return obs.get_registry().to_dict()
