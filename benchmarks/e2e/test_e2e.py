"""Checks of the end-to-end benchmark itself (about 20 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import agree  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def _bounds():
    return {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def test_declarations_match_benchmark_json():
    assert _declared("end_to_end") == stats.END_TO_END
    assert _declared("per_layer") == stats.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS) == list(run.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS


def _hook_targets(workload):
    return [(owner, attr, vars(owner).get(attr))
            for owner, attr, __, __ in
            workloads.layer_hooks() + workload.instance_hooks()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_declared_metrics_and_restores_hooks(name,
                                                            monkeypatch):
    measured = child.run_phase(name, seed=3, seconds=0.0, phase="measure")
    assert measured["errors"] == []
    assert {m: v["unit"] for m, v in measured["metrics"].items()} == {
        m: unit for m, (unit, __) in _declared("end_to_end").items()}

    built = []
    real_set_up = child.set_up

    def set_up(*args, **kwargs):
        result = real_set_up(*args, **kwargs)
        built.append((result[0], _hook_targets(result[0])))
        return result

    monkeypatch.setattr(child, "set_up", set_up)
    traced = child.run_phase(name, seed=3, seconds=0.0, phase="trace")
    assert traced["errors"] == []
    assert {m: v["unit"] for m, v in traced["metrics"].items()} == {
        m: unit for m, (unit, __) in _declared("per_layer").items()}
    assert traced["spans"], "the traced request recorded no span"
    workload, before = built[0]
    for (owner, attr, original), (__, __, now) in zip(
            before, _hook_targets(workload)):
        assert now is original, f"{attr} was not restored"


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(1, 101)), 90) == (90, 10)
    assert stats.tail_percentile(list(range(19)), 99) is None
    assert stats.tail_percentile(list(range(20)), 99) == (50, 9)
    assert stats.tail_percentile(list(range(99)), 99)[0] == 50
    assert stats.tail_percentile(list(range(100)), 99)[0] == 90
    assert stats.tail_percentile(list(range(100)), 50)[0] == 50
    assert stats.tail_percentile(list(range(999)), 99)[0] == 90
    assert stats.tail_percentile(list(range(1000)), 99) == (99, 989)


def _document():
    metrics = {name: {"value": 10.0, "unit": unit}
               for name, (unit, __) in stats.END_TO_END.items()}
    return {"workloads": {"fig12": {"end_to_end": {
        "metrics": metrics, "attempted": 40, "failed": 0}}}}


def _agree(tmp_path, a, b):
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc))
    return agree.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])


def _slower(doc, share):
    slower = copy.deepcopy(doc)
    slower["workloads"]["fig12"]["end_to_end"]["metrics"][
        "latency_p25_ms"]["value"] *= 1.0 + share
    return slower


def test_agree_flags_slower_latency_and_more_failures(tmp_path):
    bound = _bounds()["latency_p25_ms"]
    base = _document()
    assert _agree(tmp_path, base, copy.deepcopy(base)) == 0
    assert _agree(tmp_path, base, _slower(base, 0.8 * bound)) == 0
    assert _agree(tmp_path, base, _slower(base, 1.2 * bound)) == 1

    failing = copy.deepcopy(base)
    failing["workloads"]["fig12"]["end_to_end"]["failed"] = 1
    assert _agree(tmp_path, base, failing) == 1
