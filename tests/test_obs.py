"""The observability layer: tracing, metrics, profiling, CLI report."""

import io
import json
import time

import numpy as np
import pytest

import repro
from repro import obs
from repro.cli import main
from repro.core.adaptive.lanc import LancFilter, StreamingLanc
from repro.core.profiles import PredictiveProfileSwitcher, ProfileClassifier
from repro.errors import ConfigurationError
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends disabled with empty tracer/registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Config gate
# ---------------------------------------------------------------------------
class TestConfig:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_enable_disable(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_enabled_scope_restores(self):
        with obs.enabled_scope():
            assert obs.enabled()
        assert not obs.enabled()

    def test_enabled_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.enabled_scope():
                raise RuntimeError("boom")
        assert not obs.enabled()

    def test_enabled_scope_nests(self):
        obs.enable()
        with obs.enabled_scope():
            assert obs.enabled()
        assert obs.enabled()        # outer enable preserved


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", label="x"):
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.attributes == {"label": "x"}

    def test_span_timings_are_finite_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.finished and inner.finished
        assert outer.wall_s >= inner.wall_s >= 0.0
        assert outer.cpu_s >= 0.0
        assert outer.self_wall_s() >= 0.0

    def test_set_attribute_inside_span(self):
        tracer = Tracer()
        with tracer.span("s") as sp:
            sp.set_attribute("n_future", 56)
        assert tracer.roots[0].attributes["n_future"] == 56

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.find("b").name == "b"
        assert tracer.find("missing") is None
        assert [(d, s.name) for d, s in tracer.walk()] == [(0, "a"), (1, "b")]

    def test_to_dict_schema(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        d = tracer.to_dict()
        assert d["schema"] == obs.TRACE_SCHEMA
        span = d["spans"][0]
        for key in ("name", "t_start_s", "wall_s", "cpu_s", "attributes",
                    "children"):
            assert key in span
        assert span["children"][0]["name"] == "b"
        json.loads(tracer.to_json())        # round-trips

    def test_render_tree_indents(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        lines = tracer.render().splitlines()
        assert lines[0].startswith("a ")
        assert lines[1].startswith("  b ")

    def test_reset_clears(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == []

    def test_reset_with_open_span_rejected(self):
        tracer = Tracer()
        cm = tracer.span("open")
        cm.__enter__()
        with pytest.raises(ConfigurationError):
            tracer.reset()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates(self):
        reg = obs.MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("runs").inc(2)
        assert reg.counter("runs").value == 3.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            obs.MetricsRegistry().counter("c").inc(-1)

    def test_gauge_keeps_last_value_and_writes(self):
        g = obs.MetricsRegistry().gauge("level")
        g.set(1.5)
        g.set(2.5)
        assert g.value == 2.5
        assert g.writes == 2

    def test_labels_distinguish_instruments(self):
        reg = obs.MetricsRegistry()
        reg.counter("samples", engine="lanc").inc(10)
        reg.counter("samples", engine="lms").inc(20)
        assert reg.counter("samples", engine="lanc").value == 10
        assert reg.counter("samples", engine="lms").value == 20
        assert len(reg) == 2

    def test_histogram_quantiles_interpolate(self):
        h = Histogram("h", {}, buckets=[1.0, 2.0, 4.0, 8.0])
        for v in [0.5, 1.5, 3.0, 6.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(11.0)
        assert h.mean == pytest.approx(2.75)
        # p50 → rank 2 of 4 → second bucket (1, 2]: interpolated inside.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        # p100 → last populated bucket (4, 8].
        assert 4.0 <= h.quantile(1.0) <= 8.0
        assert h.min == 0.5 and h.max == 6.0

    def test_histogram_overflow_reports_observed_max(self):
        h = Histogram("h", {}, buckets=[1.0])
        h.observe(100.0)
        assert h.quantile(0.99) == 100.0

    def test_histogram_empty_quantile_is_none(self):
        h = Histogram("h", {})
        assert h.quantile(0.5) is None
        assert h.mean is None
        assert h.summary()["count"] == 0

    def test_histogram_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", {}, buckets=[2.0, 1.0])
        with pytest.raises(ConfigurationError):
            Histogram("h", {}).quantile(1.5)

    def test_default_latency_buckets_increasing(self):
        assert all(b2 > b1 for b1, b2 in zip(DEFAULT_LATENCY_BUCKETS,
                                             DEFAULT_LATENCY_BUCKETS[1:]))

    def test_registry_to_dict_schema(self):
        reg = obs.MetricsRegistry()
        reg.counter("c", stage="x").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(0.001)
        d = reg.to_dict()
        assert d["schema"] == obs.METRICS_SCHEMA
        kinds = {m["name"]: m["kind"] for m in d["metrics"]}
        assert kinds == {"c": "counter", "g": "gauge", "h": "histogram"}
        json.loads(reg.to_json())
        assert "c" in reg.render()

    def test_registry_reset(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert len(reg) == 0


# ---------------------------------------------------------------------------
# Disabled mode is a no-op
# ---------------------------------------------------------------------------
class TestDisabledNoOp:
    def test_module_span_is_noop_when_disabled(self):
        with obs.span("anything", k=1) as sp:
            sp.set_attribute("ignored", 2)
        assert obs.get_tracer().roots == []

    def test_pipeline_records_nothing_when_disabled(self):
        scenario = repro.office_scenario()
        noise = repro.WhiteNoise(level_rms=0.1, seed=1).generate(0.5)
        repro.MuteSystem(scenario).run(noise)
        assert obs.get_tracer().roots == []
        assert len(obs.get_registry()) == 0

    def test_module_span_records_when_enabled(self):
        obs.enable()
        with obs.span("visible"):
            pass
        assert obs.get_tracer().find("visible") is not None


# ---------------------------------------------------------------------------
# Pipeline instrumentation
# ---------------------------------------------------------------------------
class _RunCapture:
    """Snapshot of one traced run, detached from the global obs state.

    The autouse cleanup fixture wipes the global tracer/registry before
    every test, so the module-scoped fixture keeps its own references:
    a shim :class:`Tracer` holding the recorded span forest and the
    exported metrics document.
    """

    def __init__(self, plain, traced, system, noise, roots, metrics):
        self.plain = plain
        self.traced = traced
        self.system = system
        self.noise = noise
        self.tracer = Tracer()
        self.tracer.roots = roots
        self.metrics = metrics

    def metric(self, name, **labels):
        labels = {k: str(v) for k, v in labels.items()}
        for m in self.metrics["metrics"]:
            if m["name"] == name and m["labels"] == labels:
                return m
        raise AssertionError(f"metric {name!r} {labels} not recorded")


@pytest.fixture(scope="module")
def office_runs():
    """One disabled and one enabled run of the same system + noise."""
    scenario = repro.office_scenario()
    noise = repro.WhiteNoise(level_rms=0.1, seed=1).generate(0.5)
    obs.disable()
    obs.get_tracer().reset()
    obs.get_registry().reset()
    plain = repro.MuteSystem(scenario).run(noise)
    obs.enable()
    try:
        system = repro.MuteSystem(scenario)
        traced = system.run(noise)
    finally:
        obs.disable()
    capture = _RunCapture(plain, traced, system, noise,
                          roots=list(obs.get_tracer().roots),
                          metrics=obs.get_registry().to_dict())
    obs.get_tracer().reset()
    obs.get_registry().reset()
    return capture


class TestPipelineInstrumentation:
    def test_enabling_does_not_change_outputs_bitwise(self, office_runs):
        plain, traced = office_runs.plain, office_runs.traced
        assert np.array_equal(plain.residual, traced.residual)
        assert np.array_equal(plain.antinoise, traced.antinoise)
        assert np.array_equal(plain.disturbance_open,
                              traced.disturbance_open)
        assert np.array_equal(plain.disturbance_at_ear,
                              traced.disturbance_at_ear)
        assert plain.n_future_used == traced.n_future_used

    def test_run_trace_has_stage_children(self, office_runs):
        tracer = office_runs.tracer
        run_span = tracer.find("mute.run")
        assert run_span is not None
        names = [c.name for c in run_span.children]
        assert names == ["mute.prepare", "mute.adapt", "mute.collect"]
        prepare = run_span.children[0]
        assert [c.name for c in prepare.children] == [
            "mute.prepare.propagate", "mute.prepare.relay",
            "mute.prepare.align"]
        assert tracer.find("mute.estimate_secondary") is not None

    def test_stage_latencies_cover_end_to_end_wall_time(self, office_runs):
        system, noise = office_runs.system, office_runs.noise
        report = obs.timing_budget_report(
            office_runs.tracer, system.lookahead_budget, system.sample_rate,
            n_samples=noise.size)
        # Acceptance criterion: stages sum to within 5% of the run.
        assert 0.95 <= report.coverage <= 1.02
        assert report.over_budget() == []
        assert {s.stage for s in report.stages} == {
            "mute.prepare", "mute.adapt", "mute.collect"}
        text = report.report()
        assert "mute.adapt" in text and "deadline" in text
        json.dumps(report.to_dict())

    def test_engine_metrics_recorded(self, office_runs):
        assert office_runs.metric("mute.runs")["value"] >= 1
        assert office_runs.metric("adaptive.samples",
                                  engine="lancfilter")["value"] > 0
        misadjustment = office_runs.metric("adaptive.misadjustment",
                                           engine="lancfilter")
        assert misadjustment["writes"] >= 1
        # Cancelling, not diverging.
        assert 0.0 < misadjustment["value"] < 1.0
        assert office_runs.metric("adaptive.run_s",
                                  engine="lancfilter")["count"] >= 1
        assert office_runs.metric("relay.forwarded_samples",
                                  relay="ideal")["value"] > 0

    def test_timing_report_without_trace_rejected(self):
        budget = repro.LookaheadBudget(acoustic_lead_s=0.01)
        with pytest.raises(ConfigurationError):
            obs.timing_budget_report(Tracer(), budget, 8000.0, 100)

    def test_over_budget_flagged_for_slow_stage(self):
        # A stage costing ~5 ms/sample cannot meet a 125 us + 0 lookahead
        # deadline at block size 1.
        tracer = Tracer()
        with tracer.span("mute.run"):
            with tracer.span("mute.adapt"):
                time.sleep(0.05)
        tight = repro.LookaheadBudget(acoustic_lead_s=0.0)
        report = obs.timing_budget_report(tracer, tight, 8000.0,
                                          n_samples=10, block_size=1)
        assert report.over_budget() == ["mute.adapt"]
        assert "OVER" in report.report()

    def test_obs_report_bundle(self, office_runs):
        system, noise = office_runs.system, office_runs.noise
        budget_report = obs.timing_budget_report(
            office_runs.tracer, system.lookahead_budget, system.sample_rate,
            n_samples=noise.size)
        registry = obs.MetricsRegistry()
        document = obs.obs_report_dict(office_runs.tracer, registry,
                                       budget_report)
        assert document["schema"] == obs.REPORT_SCHEMA
        assert document["trace"]["schema"] == obs.TRACE_SCHEMA
        assert document["metrics"]["schema"] == obs.METRICS_SCHEMA
        assert document["budget"]["over_budget"] == []
        round_tripped = json.loads(obs.obs_report_json(
            office_runs.tracer, registry, budget_report))
        assert round_tripped["budget"]["stages"] == \
            document["budget"]["stages"]


class TestEngineHooks:
    def _signals(self, n=1500, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        s = np.array([1.0, 0.4, 0.1])
        d = -np.convolve(x, s)[:n]
        return x, d, s

    def test_streaming_lanc_block_histogram(self):
        x, d, s = self._signals()
        lanc = LancFilter(n_future=4, n_past=16, secondary_path=s, mu=0.2)
        stream = StreamingLanc(lanc, x, secondary_path_true=s)
        obs.enable()
        for start in range(0, 1024, 128):
            stream.process(d[start:start + 128])
        obs.disable()
        hist = obs.get_registry().histogram("adaptive.block_update_s",
                                            engine="streaminglanc")
        assert hist.count == 8
        assert obs.get_registry().counter(
            "adaptive.samples", engine="streaminglanc").value == 1024

    def test_lms_rls_apa_record_metrics(self):
        from repro.core.adaptive.apa import ApaFilter
        from repro.core.adaptive.rls import RlsFilter
        x, d, __ = self._signals(n=400)
        obs.enable()
        repro.LmsFilter(n_taps=8).run(x, d)
        RlsFilter(n_taps=8).run(x, d)
        ApaFilter(n_taps=8, order=2).run(x, d)
        obs.disable()
        reg = obs.get_registry()
        for engine in ("lmsfilter", "rlsfilter", "apafilter"):
            assert reg.counter("adaptive.samples",
                               engine=engine).value == 400
            assert reg.gauge("adaptive.misadjustment",
                             engine=engine).writes == 1

    def test_profile_switcher_metrics(self):
        rng = np.random.default_rng(0)
        fs = 8000.0
        t = np.arange(2048) / fs
        hum = np.sin(2 * np.pi * 120.0 * t)
        hiss = rng.standard_normal(2048)
        classifier = ProfileClassifier(sample_rate=fs)
        classifier.register("hum", hum)
        classifier.register("hiss", hiss)
        lanc = LancFilter(n_future=2, n_past=8,
                          secondary_path=np.array([1.0]))
        switcher = PredictiveProfileSwitcher(classifier, lanc)
        obs.enable()
        switcher.observe(hum, 0)
        switcher.observe(hiss, 2048)
        switcher.observe(hum, 4096)     # second visit: cache hit
        obs.disable()
        reg = obs.get_registry()
        assert reg.counter("profiles.switches", to="hum").value == 2
        assert reg.counter("profiles.switches", to="hiss").value == 1
        assert reg.counter("profiles.cache_hits").value == 1
        assert reg.counter("profiles.cache_misses").value == 2
        assert reg.histogram("profiles.swap_s").count == 3

    def test_analog_relay_demod_metrics(self):
        relay = repro.AnalogRelay(audio_rate=8000.0, rf_rate=48000.0)
        audio = repro.WhiteNoise(level_rms=0.1, seed=2).generate(0.25)
        obs.enable()
        relay.forward(audio)
        relay.audio_snr_db(audio)
        obs.disable()
        reg = obs.get_registry()
        assert obs.get_tracer().find("relay.forward") is not None
        assert reg.histogram("relay.demod_s", relay="analog").count >= 1
        snr = reg.gauge("relay.audio_snr_db", relay="analog")
        assert snr.writes == 1 and snr.value > 0.0


# ---------------------------------------------------------------------------
# The obs-report CLI (smoke: keeps the command and schema exercised)
# ---------------------------------------------------------------------------
class TestObsReportCli:
    def test_text_report(self):
        out = io.StringIO()
        code = main(["obs-report", "--duration", "0.5"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "span tree" in text
        assert "mute.run" in text
        assert "Timing budget" in text
        assert "adaptive.misadjustment" in text

    def test_json_report_schema(self):
        out = io.StringIO()
        code = main(["obs-report", "--duration", "0.5", "--json"], out=out)
        assert code == 0
        document = json.loads(out.getvalue())
        assert document["schema"] == obs.REPORT_SCHEMA
        assert document["trace"]["schema"] == obs.TRACE_SCHEMA
        assert document["metrics"]["schema"] == obs.METRICS_SCHEMA
        budget = document["budget"]
        assert budget["coverage"] >= 0.95
        assert {s["stage"] for s in budget["stages"]} >= {
            "mute.prepare", "mute.adapt"}
        root = document["trace"]["spans"]
        assert any(s["name"] == "mute.run" for s in root)

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        out = io.StringIO()
        code = main(["obs-report", "--duration", "0.5", "--out", str(path)],
                    out=out)
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == obs.REPORT_SCHEMA

    def test_bad_duration_rejected(self):
        out = io.StringIO()
        assert main(["obs-report", "--duration", "-1"], out=out) == 2

    def test_leaves_observability_disabled(self):
        main(["obs-report", "--duration", "0.5"], out=io.StringIO())
        assert not obs.enabled()
