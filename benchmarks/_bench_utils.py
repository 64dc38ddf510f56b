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
import os
import platform
import statistics
import subprocess
import time
from importlib import metadata
from pathlib import Path

from repro import obs
from repro.errors import ConfigurationError
from repro.utils.store import atomic_write

#: Where ``write_bench_json`` leaves its artifacts: next to the benches.
BENCH_DIR = Path(__file__).resolve().parent


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


def _git_state():
    """``{"sha", "dirty"}`` of the checkout; ``None`` values outside git."""
    root = BENCH_DIR.parent

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def bench_stamp():
    """What a bench number depends on besides the code.

    The facts the e2e benchmark stamps into its ``result.json``: the git
    commit and dirty flag, the Python / NumPy / SciPy versions (SciPy's
    read from package metadata, so stamping imports no SciPy), the BLAS
    NumPy links against, the CPU count and the load average.
    """
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:              # NumPy < 1.26 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "git": _git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def write_bench_json(name, payload):
    """Write ``BENCH_<name>.json`` next to the benchmarks; return the path.

    The standing artifact a bench leaves behind (wall times, speedups,
    metrics snapshots) so runs are comparable across commits without
    re-reading terminal output.  The payload gains a ``stamp``
    (:func:`bench_stamp`), and the file is replaced atomically: a failed
    write leaves the previous artifact whole.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    document = dict(payload, stamp=bench_stamp())
    atomic_write(path, json.dumps(document, indent=2, default=str) + "\n")
    return path


def metrics_snapshot():
    """The global obs metrics as a ``repro.obs.metrics/v1`` document.

    Empty (but schema-stamped) unless the bench enabled observability
    around the code it measured — see ``bench_obs_overhead.py`` for the
    pattern.
    """
    return obs.get_registry().to_dict()
