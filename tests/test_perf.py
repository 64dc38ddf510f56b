"""The perf toolkit: shared timer, stage profiler, perf-profile CLI."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf import PROFILE_SCHEMA, Timing, profile_pipeline, time_call
from repro.perf.harness import STAGES, render_profile


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


class TestProfilePipeline:
    @pytest.fixture(scope="class")
    def doc(self):
        return profile_pipeline(duration_s=0.25, repeats=1, warmup=0)

    def test_schema_and_stage_order(self, doc):
        assert doc["schema"] == PROFILE_SCHEMA == "repro.perf/v1"
        assert tuple(s["stage"] for s in doc["stages"]) == STAGES

    def test_stage_rows_are_timings(self, doc):
        for s in doc["stages"]:
            assert s["median_s"] > 0
            assert 0.0 <= s["fraction_of_stages"] <= 1.0
        total = sum(s["fraction_of_stages"] for s in doc["stages"])
        assert total == pytest.approx(1.0)

    def test_end_to_end_and_residual(self, doc):
        assert doc["end_to_end"]["target"] == "MuteSystem.run"
        assert doc["end_to_end"]["median_s"] > 0
        assert np.isfinite(doc["residual_rms"])
        assert doc["workload"]["samples"] == 2000   # 0.25 s at 8 kHz

    def test_document_is_json_able(self, doc):
        json.dumps(doc)

    def test_render_profile(self, doc):
        text = render_profile(doc)
        for stage in STAGES:
            assert stage in text
        assert "end-to-end" in text

    def test_rejects_bad_duration(self):
        with pytest.raises(ConfigurationError):
            profile_pipeline(duration_s=0.0)


class TestPerfProfileCli:
    ARGS = ["perf-profile", "--duration", "0.2", "--repeats", "1",
            "--warmup", "0"]

    def test_json_output(self):
        out = io.StringIO()
        assert main(self.ARGS + ["--json"], out=out) == 0
        doc = json.loads(out.getvalue())
        assert doc["schema"] == "repro.perf/v1"
        assert len(doc["stages"]) == len(STAGES)

    def test_table_output(self):
        out = io.StringIO()
        assert main(self.ARGS, out=out) == 0
        assert "perf profile" in out.getvalue()

    def test_out_writes_document(self, tmp_path):
        path = tmp_path / "profile.json"
        out = io.StringIO()
        assert main(self.ARGS + ["--out", str(path)], out=out) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.perf/v1"

    def test_no_fastpath_flag(self):
        """The fast paths are the only paths: there is no switch."""
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--no-fastpath"], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_bad_arguments_rejected(self):
        out = io.StringIO()
        assert main(["perf-profile", "--duration", "0"], out=out) == 2
        assert main(["perf-profile", "--repeats", "0"], out=out) == 2
