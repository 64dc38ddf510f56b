"""Command-line interface: regenerate paper figures, trace the pipeline.

Subcommands
-----------
``list``
    Print every registered experiment with a one-line description::

        python -m repro list

``run``
    Regenerate one paper figure / extension experiment (or ``all``).
    Each experiment prints the same rows/series its paper figure plots
    (via the experiment's ``report()``)::

        python -m repro run fig12
        python -m repro run fig17 --duration 20 --seed 3
        python -m repro run all

``run-all``
    Run several experiments (default: all of them) through the
    :mod:`repro.runtime` executor, optionally across worker processes,
    and print one merged report — per-run wall times plus the combined
    :mod:`repro.obs` metrics of every worker::

        python -m repro run-all --jobs 4
        python -m repro run-all --jobs 2 timing fig13
        python -m repro run-all --jobs 4 --out suite.json

``serve-bench``
    Drive the multi-session serving runtime (:mod:`repro.serving`):
    admit N concurrent device sessions and drain them through the
    batched cross-session kernel, printing throughput and block-latency
    percentiles — with ``--check``, also run the serial schedule and
    verify the two are bit-identical (the CI smoke)::

        python -m repro serve-bench --sessions 8 --duration 0.3 --check
        python -m repro serve-bench --sessions 64 --out serving.json

``chaos-soak``
    Soak the crash-safe serving layer (:mod:`repro.chaos`): serve a
    fleet under injected crashes and deadline stalls, verify every
    session ends warm-restored bit-identically or deliberately shed,
    and print (or write) the ``repro.chaos.soak/v1`` report — exit 1
    if any invariant broke (the CI chaos smoke)::

        python -m repro chaos-soak --sessions 6 --duration 0.3
        python -m repro chaos-soak --json --out soak.json

``perf-profile``
    Time the pipeline stage by stage (synthesis / channel / relay /
    kernel / ear, plus end-to-end ``MuteSystem.run``) on the Figure 12
    workload and print a stage table — or the ``repro.perf/v1`` JSON
    document CI uploads (see ``docs/PERFORMANCE.md``)::

        python -m repro perf-profile
        python -m repro perf-profile --json
        python -m repro perf-profile --duration 1 --out profile.json

``obs-report``
    Run the headline office scenario with observability
    (:mod:`repro.obs`) enabled and print the span tree, the metrics
    table, and the timing-budget report — or the bundled
    ``repro.obs.report/v1`` JSON document (schemas in
    ``docs/OBSERVABILITY.md``)::

        python -m repro obs-report
        python -m repro obs-report --duration 5 --block 128
        python -m repro obs-report --json --out trace.json

The experiment catalog itself lives in the registry
(:mod:`repro.eval.experiments`) — the CLI is a thin dispatcher over
``experiments.all_experiments()``.  The installed console entry point
``repro`` is equivalent to ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import obs
from .errors import SignalError
from .eval import experiments
from .utils.store import atomic_write


def build_parser():
    """The argparse tree (exposed for tests)."""
    names = experiments.experiment_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MUTE (SIGCOMM 2018) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=names + ["all"])
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds (experiment default if unset)")
    run.add_argument("--seed", type=int, default=None,
                     help="random seed (experiment default if unset)")

    run_all = sub.add_parser(
        "run-all",
        help="run many experiments through the parallel runtime",
    )
    run_all.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                         help="experiments to run (default: all)")
    run_all.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1 = serial)")
    run_all.add_argument("--duration", type=float, default=None,
                         help="simulated seconds for every run "
                              "(experiment defaults if unset)")
    run_all.add_argument("--seed", type=int, default=None,
                         help="random seed for every run "
                              "(experiment defaults if unset)")
    run_all.add_argument("--no-obs", action="store_true",
                         help="skip per-run obs tracing/metrics")
    run_all.add_argument("--out", default=None, metavar="PATH",
                         help="write the repro.runtime.report/v2 JSON "
                              "suite document to PATH")

    serve = sub.add_parser(
        "serve-bench",
        help="drain N concurrent sessions through the serving runtime",
    )
    serve.add_argument("--sessions", type=int, default=8, metavar="N",
                       help="concurrent device sessions (default 8)")
    serve.add_argument("--duration", type=float, default=0.5,
                       help="simulated seconds per session (default 0.5)")
    serve.add_argument("--block", type=int, default=256,
                       help="lock-step block size in samples (default 256)")
    serve.add_argument("--seed", type=int, default=0,
                       help="base workload seed (default 0)")
    serve.add_argument("--serial", action="store_true",
                       help="serial scheduling instead of batched")
    serve.add_argument("--check", action="store_true",
                       help="run BOTH schedules and verify bit-identity "
                            "(exit 1 on mismatch)")
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="write the repro.runtime.report/v2 serving "
                            "JSON document to PATH")

    soak = sub.add_parser(
        "chaos-soak",
        help="crash a serving fleet on purpose and verify recovery",
    )
    soak.add_argument("--sessions", type=int, default=6, metavar="N",
                      help="concurrent device sessions (default 6)")
    soak.add_argument("--duration", type=float, default=0.3,
                      help="simulated seconds per session (default 0.3)")
    soak.add_argument("--block", type=int, default=128,
                      help="lock-step block size in samples (default 128)")
    soak.add_argument("--seed", type=int, default=0,
                      help="root seed for workloads and chaos (default 0)")
    soak.add_argument("--serial", action="store_true",
                      help="serial scheduling instead of batched")
    soak.add_argument("--crash-prob", type=float, default=0.5,
                      help="per-session crash probability (default 0.5)")
    soak.add_argument("--stall-prob", type=float, default=0.5,
                      help="per-session stall probability (default 0.5)")
    soak.add_argument("--json", action="store_true",
                      help="emit the repro.chaos.soak/v1 JSON document "
                           "instead of text")
    soak.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON document to PATH")

    perf = sub.add_parser(
        "perf-profile",
        help="profile the pipeline per stage; emit repro.perf/v1 JSON",
    )
    perf.add_argument("--duration", type=float, default=2.0,
                      help="simulated seconds of workload (default 2.0)")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timed repeats per stage, median reported "
                           "(default 3)")
    perf.add_argument("--warmup", type=int, default=1,
                      help="untimed warmup calls per stage (default 1 — "
                           "measures the cache-warm steady state)")
    perf.add_argument("--seed", type=int, default=7,
                      help="workload seed (default 7, the fig12 seed)")
    perf.add_argument("--json", action="store_true",
                      help="emit the repro.perf/v1 JSON document instead "
                           "of text")
    perf.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON document to PATH")

    obs_report = sub.add_parser(
        "obs-report",
        help="trace a MuteSystem run; print span tree, metrics, "
             "timing budget",
    )
    obs_report.add_argument("--duration", type=float, default=2.0,
                            help="simulated seconds (default 2.0)")
    obs_report.add_argument("--seed", type=int, default=0,
                            help="noise seed (default 0)")
    obs_report.add_argument("--block", type=int, default=64,
                            help="block size for the deadline ledger "
                                 "(default 64)")
    obs_report.add_argument("--json", action="store_true",
                            help="emit the repro.obs.report/v1 JSON "
                                 "document instead of text")
    obs_report.add_argument("--out", default=None, metavar="PATH",
                            help="also write the JSON document to PATH")
    return parser


def _write_out(command, path, document, out):
    """Write ``document`` as JSON to ``path``, all or nothing.

    Goes through :func:`repro.utils.store.atomic_write`, so a failed or
    interrupted write keeps any previous file intact.  On ``OSError``
    prints ``<command>: cannot write <path>: <error>`` to ``out`` and
    returns False (the caller exits 2).
    """
    try:
        atomic_write(path, json.dumps(document, indent=2, default=str))
    except OSError as exc:
        print(f"{command}: cannot write {path}: {exc}", file=out)
        return False
    return True


def _run_one(name, request, out):
    """Run one named experiment and print its report to ``out``."""
    entry = experiments.get(name)
    print(f"== {name}: {entry.description} ==", file=out)
    started = time.time()
    result = entry.run(request=request)
    print(result.report(), file=out)
    print(f"[{name} done in {time.time() - started:.1f}s]\n", file=out)
    return result


def _run_suite(args, out):
    """The ``run-all`` subcommand: fan runs out, print one merged report."""
    from . import runtime

    if args.jobs < 1:
        print("run-all: --jobs must be >= 1", file=out)
        return 2
    names = args.experiments or experiments.experiment_names()
    unknown = [n for n in names if n not in experiments.experiment_names()]
    if unknown:
        print(f"run-all: unknown experiment(s): {', '.join(unknown)} "
              f"(see `repro list`)", file=out)
        return 2

    suite = runtime.run_experiments(
        names,
        request=runtime.RunRequest(
            seed=args.seed,
            duration_s=args.duration,
            with_obs=not args.no_obs,
            jobs=args.jobs,
        ),
    )

    for outcome in suite.outcomes:
        if outcome.ok:
            entry = experiments.get(outcome.name)
            print(f"== {outcome.name}: {entry.description} ==", file=out)
            print(outcome.result.report(), file=out)
            print(f"[{outcome.name} done in {outcome.wall_s:.1f}s]\n",
                  file=out)
        else:
            print(f"== {outcome.name}: FAILED ==", file=out)
            print(outcome.error, file=out)

    print(suite.report(), file=out)

    if args.out:
        if not _write_out("run-all", args.out, suite.to_dict(), out):
            return 2
        print(f"\n[JSON suite report written to {args.out}]", file=out)

    return 0 if not suite.failures() else 1


def _run_serve_bench(args, out):
    """The ``serve-bench`` subcommand: drain a session fleet, report.

    With ``--check``, both schedules run and their per-session residual
    digests must match bit for bit — the CI smoke for the serial ==
    batched serving contract.
    """
    from . import serving

    if args.sessions < 1:
        print("serve-bench: --sessions must be >= 1", file=out)
        return 2
    if args.duration <= 0:
        print("serve-bench: --duration must be > 0", file=out)
        return 2
    if args.block < 1:
        print("serve-bench: --block must be >= 1", file=out)
        return 2

    def drain(batched):
        config = serving.ServerConfig(
            batched=batched, block_size=args.block,
            max_sessions=max(args.sessions, 1),
        )
        server = serving.SessionServer(config)
        for i in range(args.sessions):
            server.submit(serving.SessionWorkload.synthetic(
                f"user{i}", duration_s=args.duration, seed=args.seed + i,
                sample_rate=config.session.sample_rate))
        return server.run_until_drained()

    try:
        report = drain(batched=not args.serial)
    except SignalError as exc:
        print(f"serve-bench: {exc}", file=out)
        return 2
    print(report.report(), file=out)

    code = 0
    if args.check:
        other = drain(batched=args.serial)
        matched = report.digests() == other.digests()
        print(f"\nserial == batched digests: "
              f"{'OK' if matched else 'MISMATCH'}", file=out)
        if not matched:
            code = 1

    if args.out:
        if not _write_out("serve-bench", args.out, report.to_dict(), out):
            return 2
        print(f"[JSON serving report written to {args.out}]", file=out)
    return code


def _run_chaos_soak(args, out):
    """The ``chaos-soak`` subcommand: injected crashes, verified recovery.

    Runs :func:`repro.chaos.run_soak` with obs enabled (so the
    ``serving.recovery.*`` counters are exercised) and exits non-zero
    when any crash-safety invariant — accounted sessions, bit-identical
    warm restores, clean statuses — fails to hold.
    """
    from . import chaos

    if args.sessions < 1:
        print("chaos-soak: --sessions must be >= 1", file=out)
        return 2
    if args.duration <= 0:
        print("chaos-soak: --duration must be > 0", file=out)
        return 2
    if args.block < 1:
        print("chaos-soak: --block must be >= 1", file=out)
        return 2
    if not 0.0 <= args.crash_prob <= 1.0 \
            or not 0.0 <= args.stall_prob <= 1.0:
        print("chaos-soak: probabilities must be in [0, 1]", file=out)
        return 2

    obs.reset()
    with obs.enabled_scope():
        report = chaos.run_soak(
            sessions=args.sessions, duration_s=args.duration,
            block_size=args.block, seed=args.seed,
            batched=not args.serial, crash_prob=args.crash_prob,
            stall_prob=args.stall_prob,
        )

    document = report.to_dict() if (args.json or args.out) else None
    if args.out and not _write_out("chaos-soak", args.out, document, out):
        return 2
    if args.json:
        print(json.dumps(document, indent=2, default=str), file=out)
    else:
        print(report.report(), file=out)
        if args.out:
            print(f"[JSON soak report written to {args.out}]", file=out)
    return 0 if report.ok() else 1


def _run_perf_profile(args, out):
    """The ``perf-profile`` subcommand: stage-level pipeline timings.

    Runs :func:`repro.perf.profile_pipeline` on the fig12 workload and
    renders (or writes) the ``repro.perf/v1`` document — the artifact
    the CI perf-smoke job uploads and ``docs/PERFORMANCE.md`` reads
    from.
    """
    from .perf import profile_pipeline
    from .perf.harness import render_profile

    if args.duration <= 0:
        print("perf-profile: --duration must be > 0", file=out)
        return 2
    if args.repeats < 1:
        print("perf-profile: --repeats must be >= 1", file=out)
        return 2
    if args.warmup < 0:
        print("perf-profile: --warmup must be >= 0", file=out)
        return 2

    doc = profile_pipeline(
        duration_s=args.duration, repeats=args.repeats, warmup=args.warmup,
        seed=args.seed,
    )
    if args.out and not _write_out("perf-profile", args.out, doc, out):
        return 2
    if args.json:
        print(json.dumps(doc, indent=2, default=str), file=out)
        return 0
    print(render_profile(doc), file=out)
    if args.out:
        print(f"[JSON perf profile written to {args.out}]", file=out)
    return 0


def _run_obs_report(args, out):
    """The ``obs-report`` subcommand: one traced headline-scenario run.

    Builds the paper's office scenario, enables :mod:`repro.obs` for a
    single ``MuteSystem.run``, then renders the recorded trace, metrics,
    and per-stage timing budget.  The previous enable/disable state and
    any previously recorded spans/metrics are cleared so the report
    covers exactly this run.
    """
    # Imported here: the CLI composes the library top-down, and plain
    # `repro list` should not pay for building a scenario.
    from .core.scenario import office_scenario
    from .core.system import MuteSystem
    from .signals import WhiteNoise

    if args.duration <= 0:
        print("obs-report: --duration must be > 0", file=out)
        return 2
    if args.block <= 0:
        print("obs-report: --block must be > 0", file=out)
        return 2

    scenario = office_scenario()
    noise = WhiteNoise(level_rms=0.1, seed=args.seed).generate(args.duration)

    obs.reset()
    with obs.enabled_scope():
        system = MuteSystem(scenario)
        result = system.run(noise)

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    budget_report = obs.timing_budget_report(
        tracer, system.lookahead_budget, system.sample_rate,
        n_samples=noise.size, block_size=args.block,
    )

    document = None
    if args.json or args.out:
        document = obs.obs_report_dict(tracer, registry, budget_report)
    if args.out and not _write_out("obs-report", args.out, document, out):
        return 2
    if args.json:
        print(json.dumps(document, indent=2, default=str), file=out)
        return 0

    print("== obs-report: traced MuteSystem.run on the office scenario ==",
          file=out)
    print(system.summary(), file=out)
    print(f"mean cancellation {result.mean_cancellation_db():.1f} dB over "
          f"{args.duration:.1f} s\n", file=out)
    print("--- span tree ---", file=out)
    print(tracer.render(), file=out)
    print("\n--- metrics ---", file=out)
    print(registry.render(), file=out)
    print("\n--- timing budget ---", file=out)
    print(budget_report.report(), file=out)
    if args.out:
        print(f"\n[JSON report written to {args.out}]", file=out)
    return 0


def main(argv=None, out=None):
    """Entry point; returns a process exit code.

    Parameters
    ----------
    argv:
        Argument list (defaults to ``sys.argv[1:]``).
    out:
        Output stream (defaults to stdout) — injectable for tests.
    """
    from .runtime import RunRequest

    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "list":
        catalog = experiments.all_experiments()
        width = max(len(entry.name) for entry in catalog)
        for entry in sorted(catalog, key=lambda e: e.name):
            print(f"{entry.name.ljust(width)}  {entry.description}", file=out)
        return 0

    if args.command == "obs-report":
        return _run_obs_report(args, out)

    if args.command == "perf-profile":
        return _run_perf_profile(args, out)

    if args.command == "serve-bench":
        return _run_serve_bench(args, out)

    if args.command == "chaos-soak":
        return _run_chaos_soak(args, out)

    if args.command == "run-all":
        try:
            return _run_suite(args, out)
        except BrokenPipeError:
            return 0

    names = experiments.experiment_names() if args.experiment == "all" \
        else [args.experiment]
    request = RunRequest(seed=args.seed, duration_s=args.duration)
    try:
        for name in names:
            _run_one(name, request, out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI etiquette.
        return 0
    return 0
