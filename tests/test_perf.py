"""The shared benchmark helpers (``benchmarks/_bench_utils.py``)."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _bench_utils import Timing, time_call, write_bench_json  # noqa: E402


class TestTimer:
    def test_time_call_summary(self):
        timing = time_call(lambda: 42, repeats=3)
        assert timing.result == 42
        assert timing.repeats == 3
        assert len(timing.times_s) == 3
        assert timing.best_s <= timing.median_s
        assert timing.best_s == min(timing.times_s)

    def test_to_dict_is_json_able(self):
        doc = time_call(lambda: None, repeats=2).to_dict()
        assert set(doc) == {"median_s", "best_s", "repeats", "times_s"}
        json.dumps(doc)

    def test_warmup_calls_are_untimed(self):
        calls = []
        timing = time_call(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5           # 2 warmup + 3 timed
        assert timing.repeats == 3

    def test_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError):
            time_call(lambda: None, repeats=0)

    def test_timing_is_frozen(self):
        timing = Timing(result=None, times_s=(1.0,))
        with pytest.raises(Exception):
            timing.result = 1


class TestBenchJson:
    def test_stamp_records_provenance(self, tmp_path, monkeypatch):
        import _bench_utils

        monkeypatch.setattr(_bench_utils, "BENCH_DIR", tmp_path)
        path = write_bench_json("probe", {"rows": [1, 2]})
        document = json.loads(path.read_text(encoding="utf-8"))
        assert path == tmp_path / "BENCH_probe.json"
        assert document["rows"] == [1, 2]
        stamp = document["stamp"]
        assert set(stamp) == {"git", "python", "numpy", "scipy", "blas",
                              "cpu_count", "loadavg"}
        assert set(stamp["git"]) == {"sha", "dirty"}
        assert set(stamp["blas"]) == {"name", "version"}
        assert len(stamp["loadavg"]) == 3

    def test_stamp_imports_no_scipy(self):
        script = ("import sys; sys.path.insert(0, 'benchmarks'); "
                  "import _bench_utils; _bench_utils.bench_stamp(); "
                  "print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=root, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE, text=True).stdout
        assert out.strip() == "[]"

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import _bench_utils

        monkeypatch.setattr(_bench_utils, "BENCH_DIR", tmp_path)
        path = write_bench_json("probe", {"run": "old"})
        old = path.read_bytes()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.utils.store.os.replace", full_disk)
        with pytest.raises(OSError):
            write_bench_json("probe", {"run": "new"})
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
