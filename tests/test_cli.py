"""The command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.eval import experiments


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "fig13", "--duration", "2.5", "--seed", "9"])
        assert args.experiment == "fig13"
        assert args.duration == 2.5
        assert args.seed == 9

    def test_run_all_command_with_options(self):
        args = build_parser().parse_args(
            ["run-all", "--jobs", "4", "timing", "fig13"])
        assert args.command == "run-all"
        assert args.jobs == 4
        assert args.experiments == ["timing", "fig13"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_perf_profile_is_not_a_subcommand(self):
        """The e2e benchmark and ``obs-report`` are the timing sources."""
        with pytest.raises(SystemExit) as excinfo:
            main(["perf-profile"], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_every_experiment(self):
        out = io.StringIO()
        code = main(["list"], out=out)
        assert code == 0
        text = out.getvalue()
        for name in experiments.experiment_names():
            assert name in text

    def test_run_fast_experiment(self):
        out = io.StringIO()
        code = main(["run", "timing"], out=out)
        assert code == 0
        assert "Eq. 4" in out.getvalue()

    def test_run_fig13(self):
        out = io.StringIO()
        code = main(["run", "fig13"], out=out)
        assert code == 0
        assert "frequency response" in out.getvalue()


class TestRunAll:
    def test_two_fast_experiments_parallel(self):
        """Tier-1 smoke: run-all --jobs 2 completes with merged obs."""
        out = io.StringIO()
        code = main(["run-all", "--jobs", "2", "timing", "fig13"], out=out)
        assert code == 0
        text = out.getvalue()
        # Per-run reports plus the merged suite summary.
        assert "Eq. 4" in text
        assert "frequency response" in text
        assert "runtime suite: 2 experiment(s), jobs=2" in text
        assert "merged metrics" in text

    def test_unknown_experiment_fails_fast(self):
        out = io.StringIO()
        code = main(["run-all", "nope"], out=out)
        assert code == 2
        assert "unknown experiment" in out.getvalue()

    def test_bad_jobs_rejected(self):
        out = io.StringIO()
        code = main(["run-all", "--jobs", "0", "timing"], out=out)
        assert code == 2

    def test_json_suite_document(self, tmp_path):
        path = tmp_path / "suite.json"
        out = io.StringIO()
        code = main(["run-all", "--out", str(path), "timing"], out=out)
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.runtime.report/v2"
        assert [run["name"] for run in document["runs"]] == ["timing"]
        assert document["runs"][0]["ok"] is True
        assert "metrics" in document and "trace" in document
