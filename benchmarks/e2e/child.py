"""One workload in one fresh process: set up, then measure or trace.

``run.py`` starts this script with the ``REPRO_*`` variables removed, so
what it measures is the product default.  It prints one JSON line::

    python3 benchmarks/e2e/child.py --workload fig12 --seed 7 \\
        --seconds 20 --phase measure

Phases: ``setup`` (import, build, warm-up request, nothing else),
``measure`` (the untraced closed loop behind the end-to-end metrics) and
``trace`` (every other request traced, behind the per-layer metrics).
"""

import time

#: Taken before anything the product needs is imported: set-up time
#: starts here.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Every run makes at least this many timed requests, however short.
MIN_REQUESTS = 2

PHASES = ("setup", "measure", "trace")


def set_up(name, seed, tracer=None, t0=None):
    """Import, build and warm up one workload.

    Returns ``(workload, phases in seconds, warm-up error or None)``.
    """
    t0 = time.perf_counter() if t0 is None else t0
    import repro  # noqa: F401
    import workloads

    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, tracer)
    t2 = time.perf_counter()
    inp = workload.make_input(workload.warmup_index)
    out = workload.call(inp)
    t3 = time.perf_counter()
    phases = {"import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2,
              "setup_s": t3 - t0}
    return workload, phases, workload.check(workloads.WARMUP, inp, out)


def _request(workload, inp):
    """Time one request; returns ``(output, seconds, error or None)``."""
    start = time.perf_counter()
    try:
        out = workload.call(inp)
    except Exception as exc:  # noqa: BLE001 — a failed request is counted
        return None, time.perf_counter() - start, repr(exc)
    return out, time.perf_counter() - start, None


def closed_loop(workload, seconds, tracer=None):
    """Send requests one after another for ``seconds``.

    With a ``tracer``, every other request runs with the layer hooks
    installed and is recorded under its request id.
    """
    import workloads

    latencies = {False: [], True: []}
    rates = []
    attempted, errors = 0, []
    traced_ids, gauges, first_traced = [], [], None
    hooks = (workloads.layer_hooks() + workload.instance_hooks()
             if tracer is not None else [])
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_REQUESTS or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            with tracer.span("signals.generate", i):
                inp = workload.make_input(i)
            with tracer.hooks(hooks), tracer.span(stats.ROOT, i):
                out, elapsed, error = _request(workload, inp)
            traced_ids.append(i)
            gauge = workload.gauges()
            if gauge is not None:
                gauges.append(gauge)
        else:
            inp = workload.make_input(i)
            out, elapsed, error = _request(workload, inp)
        attempted += 1
        if error is None:
            error = workload.check(i, inp, out)
        if error is None:
            latencies[traced].append(elapsed)
            if not traced:
                rates.append(workload.audio_s(inp, out) / elapsed)
            if traced and first_traced is None:
                first_traced = (inp, out)
        else:
            errors.append(f"request {i}: {error}")
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = list(workload.final_checks())
    if tracer is not None and workload.repeatable and first_traced:
        inp, out = first_traced
        probes.append(None if workload.same(workload.call(inp), out)
                      else "a traced request's output differs untraced")
    attempted += len(probes)
    errors += [f"probe: {error}" for error in probes if error is not None]
    return {"latencies": latencies, "rates": rates,
            "attempted": attempted, "errors": errors, "rss_mb": rss_mb,
            "traced_ids": traced_ids, "gauges": gauges}


def run_phase(name, seed, seconds, phase, t0=None):
    """Run one phase of one workload; returns the result document."""
    tracer = Tracer() if phase == "trace" else None
    workload, setup, warm_error = set_up(name, seed, tracer, t0)
    result = {"workload": name, "phase": phase, "setup": setup,
              "attempted": 1, "errors": []}
    if warm_error is not None:
        result["errors"].append(f"warm-up: {warm_error}")
    if phase == "setup":
        return result

    loop = closed_loop(workload, seconds, tracer)
    result["attempted"] += loop["attempted"]
    result["errors"] += loop["errors"]
    untraced = loop["latencies"][False]
    if not untraced or not workload.quality:
        raise RuntimeError(f"{name}: no request succeeded: "
                           f"{result['errors'][:1]}")
    if phase == "measure":
        p25, p50, __ = stats.quartiles(untraced)
        tail = stats.tail_percentile(untraced, workload.tail)
        q, tail_s = tail if tail is not None else ("max", max(untraced))
        # Printed and recorded, not gated: see stats.END_TO_END.
        result["latency"] = {"requests": len(untraced), "p50_ms": p50 * 1e3,
                             "tail_percentile": q, "tail_ms": tail_s * 1e3}
        values = {
            "setup_s": setup["setup_s"],
            "latency_p25_ms": p25 * 1e3,
            "audio_s_per_s": stats.quartiles(loop["rates"])[2],
            "quality_db": statistics.fmean(workload.quality),
            "peak_rss_mb": loop["rss_mb"],
        }
        result["metrics"] = stats.with_units(values, stats.END_TO_END)
    else:
        traced = loop["latencies"][True]
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0 if traced else 0.0)
        values = stats.layer_values(tracer.spans, loop["traced_ids"],
                                    loop["gauges"], setup, overhead)
        result["metrics"] = stats.with_units(values, stats.PER_LAYER)
        result["spans"] = tracer.spans
    result["versions"] = _versions()
    return result


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")}}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=PHASES)
    parser.add_argument("--spans", action="store_true",
                        help="include the recorded spans in the output")
    args = parser.parse_args(argv)
    result = run_phase(args.workload, args.seed, args.seconds, args.phase,
                       t0=T0)
    if not args.spans:
        result.pop("spans", None)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
