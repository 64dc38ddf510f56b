"""Do two sets of benchmark results agree within BENCHMARK.json's bounds?

    python3 benchmarks/e2e/agree.py A.json B.json
    python3 benchmarks/e2e/agree.py runs-a/ runs-b/

Each argument is a ``result.json`` written by ``run.py --out`` or a
directory; a directory stands for the per-metric medians of every
``result.json`` below it.  For each workload in both, every end-to-end
metric must differ by no more than its bound (a share of A's value),
and the share of failed operations must be the same.  One row per
workload and metric is printed; the exit code is 1 on any disagreement.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    """The result documents ``path`` names."""
    path = Path(path)
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"agree.py: no result.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def summarize(documents):
    """``{workload: {"metrics": {name: median}, "fail_ratio": r}}``."""
    summary = {}
    for doc in documents:
        for name, legs in doc["workloads"].items():
            leg = legs.get("end_to_end")
            if leg is None:
                continue
            acc = summary.setdefault(name, {"values": {}, "failed": 0,
                                            "attempted": 0})
            for metric, value in leg["metrics"].items():
                acc["values"].setdefault(metric, []).append(value["value"])
            acc["failed"] += leg["failed"]
            acc["attempted"] += leg["attempted"]
    return {name: {"metrics": {m: statistics.median(v)
                               for m, v in acc["values"].items()},
                   "fail_ratio": acc["failed"] / max(acc["attempted"], 1)}
            for name, acc in summary.items()}


def compare(a, b, bounds):
    """Rows ``(workload, metric, a, b, change, bound, ok)``."""
    rows = []
    for name in sorted(set(a) & set(b)):
        for metric, bound in bounds.items():
            if metric not in a[name]["metrics"] \
                    or metric not in b[name]["metrics"]:
                continue
            va, vb = a[name]["metrics"][metric], b[name]["metrics"][metric]
            change = (vb - va) / abs(va) if va else float("inf")
            rows.append((name, metric, va, vb, change, bound,
                         abs(change) <= bound))
        fa, fb = a[name]["fail_ratio"], b[name]["fail_ratio"]
        rows.append((name, "fail_ratio", fa, fb, fb - fa, 0.0, fa == fb))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result.json, or a directory of them")
    parser.add_argument("b", help="result.json, or a directory of them")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(summarize(load(args.a)), summarize(load(args.b)), bounds)
    if not rows:
        print("agree.py: the two sides share no workload")
        return 1
    for name, metric, va, vb, change, bound, ok in rows:
        print(f"{name:<11} {metric:<16} {va:>12.6g} {vb:>12.6g} "
              f"{change:>+8.2%} (bound {bound:.0%}) "
              f"{'ok' if ok else 'DISAGREE'}")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
