"""End-to-end benchmark of the MUTE reproduction, four workloads.

One workload, as ``BENCHMARK.json`` runs it (the last line printed is
the result)::

    python3 benchmarks/e2e/run.py --workload fig12 --seed 7 --seconds 20 \\
        --trace 0

All four workloads, each untraced and then shortened and traced, into
``<dir>/result.json`` and ``<dir>/spans.json``::

    python3 benchmarks/e2e/run.py --seed 7 --out <dir>

Each measurement runs in a fresh ``child.py`` process built from the
checkout's ``src/`` with every ``REPRO_*`` variable removed, so the
product defaults are what is measured.  ``--trace 0`` sets up
:data:`SETUP_REPEATS` times and reports the median set-up time.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Workload names, in the order the all-workload run uses.
WORKLOADS = ("fig12", "serve", "relay_scan", "outage")

#: Fresh processes set up per ``--trace 0`` run; the median is reported.
SETUP_REPEATS = 3

#: Seconds the processes of one workload run may take together before
#: the one running is stopped; a run must end within 180 s.
WORKLOAD_TIMEOUT_S = 170

#: ``run_seconds`` of ``BENCHMARK.json``, the default ``--seconds``.
DEFAULT_SECONDS = 20


class BenchmarkError(RuntimeError):
    """A child process failed; the run prints no result."""


def child_env():
    """The environment without ``REPRO_*``, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env, sorted(set(os.environ) - set(env))


def run_child(workload, seed, seconds, phase, deadline, spans=False):
    """One ``child.py`` process, stopped at ``deadline`` (a
    ``perf_counter`` reading); returns its result document."""
    command = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--phase", phase] + (["--spans"] if spans else [])
    proc = subprocess.run(command, cwd=ROOT, env=child_env()[0],
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.perf_counter(), 0.0))
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {phase} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, spans=False):
    """Measure (``trace=False``) or trace one workload; returns its entry."""
    load_before = os.getloadavg()
    started = time.perf_counter()
    deadline = started + WORKLOAD_TIMEOUT_S
    if trace:
        runs = [run_child(workload, seed, seconds, "trace", deadline, spans)]
    else:
        runs = [run_child(workload, seed, seconds, "setup", deadline)
                for __ in range(SETUP_REPEATS - 1)]
        runs.append(run_child(workload, seed, seconds, "measure", deadline))
    result = runs[-1]
    setups = [run["setup"]["setup_s"] for run in runs]
    if not trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    errors = [error for run in runs for error in run["errors"]]
    entry = {
        "correct": not errors,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(errors),
        "metrics": result["metrics"],
        "errors": errors,
        "setup_runs_s": setups,
        "wall_s": time.perf_counter() - started,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "versions": result["versions"],
    }
    for key in ("latency", "spans"):
        if key in result:
            entry[key] = result[key]
    return entry


def git_state():
    """``{"sha", "dirty"}`` of the checkout, ``None`` outside a git clone."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no"))}


def stamp(seed, seconds, versions):
    """What the numbers depend on besides the code."""
    return {
        "git": git_state(),
        "python": platform.python_version(),
        **versions,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "env_removed": child_env()[1],
        "setup_repeats": SETUP_REPEATS,
    }


def print_entry(name, leg, entry):
    for metric, value in entry["metrics"].items():
        print(f"{name:<11} {leg:<10} {metric:<29} "
              f"{value['value']:>12.6g} {value['unit']}")
    if "latency" in entry:
        lat = entry["latency"]
        print(f"{name:<11} {leg:<10} {'(not gated) latency p50':<29} "
              f"{lat['p50_ms']:>12.6g} ms, p{lat['tail_percentile']} "
              f"{lat['tail_ms']:.6g} ms over {lat['requests']} requests")
    for error in entry["errors"]:
        print(f"{name:<11} {leg:<10} FAILED {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, "
                             "untraced and traced)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer "
                             "metrics of a traced run")
    parser.add_argument("--out", type=Path,
                        help="write result.json (and spans.json) here")
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, which stops the running child.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    spans = args.out is not None
    entries = {}
    try:
        if args.workload:
            leg = "per_layer" if args.trace else "end_to_end"
            entries[args.workload] = {leg: run_workload(
                args.workload, args.seed, args.seconds, args.trace, spans)}
        else:
            for name in WORKLOADS:
                entries[name] = {
                    "end_to_end": run_workload(name, args.seed,
                                               args.seconds, False),
                    "per_layer": run_workload(name, args.seed,
                                              args.seconds / 3, True, spans),
                }
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    legs = [leg for by_leg in entries.values() for leg in by_leg.values()]
    versions = [leg.pop("versions") for leg in legs][0]
    all_spans = {name: leg.pop("spans") for name, by_leg in entries.items()
                 for leg in by_leg.values() if "spans" in leg}
    document = {"schema": "mute-e2e/v1",
                "stamp": stamp(args.seed, args.seconds, versions),
                "workloads": entries}
    for name, by_leg in entries.items():
        for leg_name, leg in by_leg.items():
            print_entry(name, leg_name, leg)
    print("stamp " + json.dumps(document["stamp"]))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "result.json").write_text(json.dumps(document, indent=1))
        if all_spans:
            (args.out / "spans.json").write_text(json.dumps(all_spans))
        print(f"written to {args.out}")
    if args.workload:
        leg = legs[0]
        print(json.dumps({key: leg[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
