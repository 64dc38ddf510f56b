"""The benchmark's metric declarations and the statistics behind them.

Every metric the benchmark prints is declared here once, with its unit
and direction; ``BENCHMARK.json`` at the repository root must list the
same names and units (``test_e2e.py`` checks that).
"""

from __future__ import annotations

import math
import statistics

#: End-to-end metrics, printed by every workload with ``--trace 0``:
#: name -> (unit, better).  Latency and throughput are taken at the
#: faster quartile of requests: on a shared host, interference only ever
#: slows a request, and the median of a 20 s run moved by 11-22 % between
#: runs of unchanged code where the quartile moved by 5-12 %.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p25_ms": ("ms", "lower"),
    "audio_s_per_s": ("s/s", "higher"),
    "quality_db": ("dB", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Name of the span around one whole request in the traced run.
ROOT = "request"

#: The 8 kHz sample period, the paper's per-sample time budget.
SAMPLE_PERIOD_S = 1.0 / 8000.0

#: Per-layer share of a request's wall time -> (span names, reduction).
#: ``total`` is the spans' duration, ``self`` their duration minus the
#: time their child spans cover.
SHARES = {
    "acoustics.apply_frac": (("acoustics.apply",), "total"),
    "acoustics.build_channels_frac": (("acoustics.build_channels",),
                                      "total"),
    "wireless.forward_frac": (("wireless.forward",), "total"),
    "core.prepare_self_frac": (("core.prepare",), "self"),
    "core.select_frac": (("core.select",), "total"),
    "adaptive.run_frac": (("adaptive.run",), "total"),
    "adaptive.stream_frac": (("adaptive.stream",), "total"),
    "adaptive.batch_frac": (("adaptive.batch",), "total"),
    "faults.observe_frac": (("faults.observe",), "total"),
    "serving.submit_frac": (("serving.submit",), "total"),
    "serving.tick_self_frac": (("serving.tick",), "self"),
    "unattributed_frac": ((ROOT,), "self"),
}

#: Time per sample handled, as a share of the 125 µs sample period.
BUDGETS = {
    "wireless.sample_budget_frac": ("wireless.forward",),
    "adaptive.sample_budget_frac": ("adaptive.run", "adaptive.stream",
                                    "adaptive.batch"),
}

#: Work done per request, as counts: (span names, reduction).
COUNTS = {
    "wireless.forward_calls": (("wireless.forward",), "calls"),
    "adaptive.samples": (BUDGETS["adaptive.sample_budget_frac"], "n"),
}

#: Per-layer metrics, printed by every workload with ``--trace 1``:
#: name -> (unit, better).  A layer the workload never calls reads 0;
#: layers are reported as shares and counts, so only times that every
#: workload measures carry a time unit.
PER_LAYER = {
    **{name: ("ratio", "lower") for name in SHARES},
    **{name: ("ratio", "lower") for name in BUDGETS},
    "wireless.forward_calls": ("count", "lower"),
    "adaptive.samples": ("count", "higher"),
    "serving.active_mean": ("count", "higher"),
    "serving.queue_max": ("count", "lower"),
    "request_ms": ("ms", "lower"),
    "signals.generate_ms": ("ms", "lower"),
    "setup.import_ms": ("ms", "lower"),
    "setup.build_ms": ("ms", "lower"),
    "setup.warmup_ms": ("ms", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Percentiles a tail latency may be reported at, highest first.
TAIL_PERCENTILES = (99, 90, 50)

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile and the count of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, ceiling):
    """``(q, value)`` for the highest ``q <= ceiling`` in
    :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND` samples above
    it, or ``None`` when no percentile qualifies."""
    for q in TAIL_PERCENTILES:
        if q > ceiling or not samples:
            continue
        value, beyond = percentile(samples, q)
        if beyond >= MIN_BEYOND:
            return q, value
    return None


def quartiles(samples):
    """Lower quartile, median and upper quartile (one sample: itself)."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def with_units(values, declared):
    """``{name: {"value": v, "unit": u}}``; ``values`` must name exactly
    the ``declared`` metrics."""
    if set(values) != set(declared):
        raise ValueError("metrics differ from the declared ones: "
                         f"{sorted(set(values) ^ set(declared))}")
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, __) in declared.items()}


def self_times(spans):
    """Per span index: its duration minus the time its children cover."""
    out = [end - start for __, start, end, __, __, __ in spans]
    for __, start, end, parent, __, __ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def per_request_sums(spans):
    """``{request: {(span name, reduction): value}}`` in seconds/counts."""
    selfs = self_times(spans)
    sums = {}
    for index, (name, start, end, __, request, n) in enumerate(spans):
        acc = sums.setdefault(request, {})
        for key, value in (("total", end - start), ("self", selfs[index]),
                           ("calls", 1), ("n", n)):
            acc[(name, key)] = acc.get((name, key), 0) + value
    return sums


def layer_values(spans, requests, gauges, setup, overhead):
    """Every :data:`PER_LAYER` value from one traced run.

    ``requests`` are the traced request ids, ``gauges`` one
    ``{"active", "queue"}`` sample per traced request (empty for
    workloads without a server), ``setup`` the phases of set-up in
    seconds and ``overhead`` the traced-vs-untraced latency ratio - 1.
    Each per-request value is reported as its median over requests.
    """
    sums = per_request_sums(spans)
    per_request = {}
    for request in requests:
        acc = sums.get(request, {})

        def total(names, reduction):
            return sum(acc.get((name, reduction), 0) for name in names)

        wall = acc[(ROOT, "total")]
        row = {metric: total(names, reduction) / wall
               for metric, (names, reduction) in SHARES.items()}
        for metric, names in BUDGETS.items():
            n = total(names, "n")
            row[metric] = (total(names, "total") / n / SAMPLE_PERIOD_S
                           if n else 0.0)
        for metric, (names, reduction) in COUNTS.items():
            row[metric] = total(names, reduction)
        row["request_ms"] = wall * 1e3
        row["signals.generate_ms"] = total(("signals.generate",),
                                           "total") * 1e3
        for metric, value in row.items():
            per_request.setdefault(metric, []).append(value)
    values = {metric: statistics.median(v)
              for metric, v in per_request.items()}
    values["serving.active_mean"] = (
        statistics.fmean(g["active"] for g in gauges) if gauges else 0.0)
    values["serving.queue_max"] = max((g["queue"] for g in gauges),
                                      default=0)
    values["setup.import_ms"] = setup["import_s"] * 1e3
    values["setup.build_ms"] = setup["build_s"] * 1e3
    values["setup.warmup_ms"] = setup["warmup_s"] * 1e3
    values["trace_overhead_frac"] = overhead
    return values
