"""repro.faults: fault model, injection, degradation."""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.core import LancFilter
from repro.core.system import ResilientRunResult
from repro.errors import ConfigurationError
from repro.faults import (
    MODE_FEEDBACK,
    MODE_MUTE,
    MODE_PASSIVE,
    BurstInterference,
    ClockDrift,
    DegradationController,
    FaultPlan,
    FaultyRelay,
    PacketLoss,
    PacketReorder,
    ReferenceHealthMonitor,
    RelayHandoff,
    RelayOutage,
    SnrFade,
    outage_plan,
    packet_loss_plan,
    wrap_relay,
)
from repro.signals import WhiteNoise
from repro.wireless.relay import IdealRelay

FS = 8000.0
SECONDARY = np.array([0.0, 1.0])


def passthrough_relay():
    return IdealRelay(mic_noise_rms=0.0)


# ---------------------------------------------------------------------------
# Events and plans
# ---------------------------------------------------------------------------
class TestEvents:
    def test_window_clips_to_waveform(self):
        event = RelayOutage(0.5, 2.0)
        assert event.window(1000.0, 1200) == (500, 1200)
        assert event.window(1000.0, 400) == (400, 400)  # fully outside

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RelayOutage(-0.1, 1.0)
        with pytest.raises(ConfigurationError):
            RelayOutage(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            PacketLoss(0.0, 1.0, loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            SnrFade(2.0, 1.0)

    def test_handoff_at(self):
        h = RelayHandoff.at(3.0, blackout_s=0.08)
        assert h.start_s == 3.0
        assert h.duration_s == pytest.approx(0.08)

    def test_outage_fraction_merges_overlaps(self):
        plan = FaultPlan(events=(
            RelayOutage(1.0, 2.0),
            RelayOutage(1.5, 2.5),
            RelayHandoff.at(5.0, blackout_s=0.5),
            SnrFade(0.0, 4.0),          # not an outage
        ))
        assert plan.outage_fraction(10.0) == pytest.approx(0.2)


class TestFaultPlan:
    def test_key_is_order_independent(self):
        a = FaultPlan(events=(RelayOutage(1.0, 2.0), SnrFade(3.0, 4.0)))
        b = FaultPlan(events=(SnrFade(3.0, 4.0), RelayOutage(1.0, 2.0)))
        assert a.plan_key() == b.plan_key()
        assert a.events == b.events

    def test_key_depends_on_content_and_seed(self):
        base = FaultPlan(events=(RelayOutage(1.0, 2.0),))
        assert base.plan_key() != FaultPlan(
            events=(RelayOutage(1.0, 2.1),)).plan_key()
        assert base.plan_key() != dataclasses.replace(
            base, seed=1).plan_key()
        assert base.plan_key() != FaultPlan(
            events=(RelayHandoff(1.0, 2.0),)).plan_key()

    def test_empty_and_helpers(self):
        assert FaultPlan().empty
        assert outage_plan(8.0, 0.0).empty
        assert packet_loss_plan(8.0, 0.0).empty
        plan = outage_plan(8.0, 0.25)
        assert plan.outage_fraction(8.0) == pytest.approx(0.25)
        assert len(packet_loss_plan(8.0, 0.1)) == 1
        assert "RelayOutage" in plan.describe()

    def test_rejects_non_events(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=("outage",))

    def test_events_of(self):
        plan = FaultPlan(events=(RelayOutage(0.0, 1.0), SnrFade(2.0, 3.0)))
        assert plan.events_of(SnrFade) == (SnrFade(2.0, 3.0),)


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------
class TestFaultyRelay:
    def _audio(self, seconds=1.0, seed=0):
        return WhiteNoise(sample_rate=FS, level_rms=0.1,
                          seed=seed).generate(seconds)

    def test_empty_plan_is_identity(self):
        audio = self._audio()
        faulty = FaultyRelay(passthrough_relay(), FaultPlan(),
                             sample_rate=FS)
        plain = passthrough_relay().forward(audio)
        assert np.array_equal(faulty.forward(audio), plain)

    def test_wrap_relay_none_returns_same_object(self):
        relay = passthrough_relay()
        assert wrap_relay(relay, None, FS) is relay
        assert isinstance(wrap_relay(relay, FaultPlan(), FS), FaultyRelay)

    def test_outage_silences_window_only(self):
        audio = self._audio()
        plan = FaultPlan(events=(RelayOutage(0.25, 0.5),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        assert np.all(out[2000:4000] == 0.0)
        assert np.array_equal(out[:2000], audio[:2000])
        assert np.array_equal(out[4000:], audio[4000:])

    def test_snr_fade_hits_target_snr(self):
        audio = self._audio(2.0)
        plan = FaultPlan(events=(SnrFade(0.0, 2.0, snr_db=6.0),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        noise = out - audio
        snr = 10 * np.log10(np.mean(audio ** 2) / np.mean(noise ** 2))
        assert snr == pytest.approx(6.0, abs=0.5)

    def test_burst_adds_energy_in_window(self):
        audio = self._audio()
        plan = FaultPlan(events=(BurstInterference(0.5, 0.75,
                                                   level_rms=0.2),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        delta = out - audio
        assert np.all(delta[:4000] == 0.0)
        burst_rms = np.sqrt(np.mean(delta[4000:6000] ** 2))
        assert burst_rms == pytest.approx(0.2, rel=0.15)

    def test_packet_loss_zeroes_about_loss_rate(self):
        audio = np.ones(int(FS * 2))
        plan = FaultPlan(events=(PacketLoss(0.0, 2.0, loss_rate=0.3,
                                            frame_s=10e-3),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        zero_fraction = np.mean(out == 0.0)
        assert 0.15 < zero_fraction < 0.45

    def test_packet_reorder_permutes_samples(self):
        audio = np.arange(int(FS)) / FS
        plan = FaultPlan(events=(PacketReorder(0.0, 1.0, swap_rate=1.0,
                                               frame_s=10e-3),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        assert not np.array_equal(out, audio)
        assert np.array_equal(np.sort(out), np.sort(audio))

    def test_clock_drift_slips_inside_window(self):
        audio = np.sin(2 * np.pi * 200 * np.arange(int(FS)) / FS)
        plan = FaultPlan(events=(ClockDrift(0.25, 0.75, ppm=50000.0),))
        out = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        assert out.size == audio.size
        assert np.array_equal(out[:2000], audio[:2000])
        assert not np.allclose(out[3000:6000], audio[3000:6000])

    def test_injection_is_deterministic(self):
        audio = self._audio()
        plan = FaultPlan(events=(SnrFade(0.0, 0.5, snr_db=3.0),
                                 PacketLoss(0.5, 1.0, loss_rate=0.4)),
                         seed=5)
        a = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        b = FaultyRelay(passthrough_relay(), plan, FS).forward(audio)
        assert np.array_equal(a, b)

    def test_attribute_passthrough(self):
        faulty = FaultyRelay(passthrough_relay(),
                             FaultPlan(events=(RelayOutage(0.0, 0.1),)),
                             sample_rate=FS)
        assert faulty.latency_samples == 0
        with pytest.raises(AttributeError):
            faulty.does_not_exist

    def test_requires_forward(self):
        with pytest.raises(ConfigurationError):
            FaultyRelay(object(), FaultPlan(), FS)
        with pytest.raises(ConfigurationError):
            FaultyRelay(passthrough_relay(), "not a plan", FS)


# ---------------------------------------------------------------------------
# Health monitor and degradation controller
# ---------------------------------------------------------------------------
class TestReferenceHealthMonitor:
    def test_worsening_is_immediate(self):
        monitor = ReferenceHealthMonitor(recovery_blocks=2)
        healthy = np.full(100, 0.1)
        assert monitor.assess(healthy) == "healthy"
        assert monitor.assess(np.zeros(100)) == "lost"

    def test_improvement_needs_consecutive_blocks(self):
        monitor = ReferenceHealthMonitor(recovery_blocks=2)
        healthy = np.full(100, 0.1)
        monitor.assess(healthy)
        monitor.assess(np.zeros(100))
        assert monitor.assess(healthy) == "lost"      # 1st better block
        assert monitor.assess(healthy) == "healthy"   # 2nd: recovered

    def test_spike_counts_as_degraded(self):
        monitor = ReferenceHealthMonitor(spike_ratio=4.0)
        monitor.assess(np.full(100, 0.1))
        assert monitor.assess(np.full(100, 1.0)) == "degraded"

    def test_baseline_not_dragged_down_by_outage(self):
        monitor = ReferenceHealthMonitor()
        monitor.assess(np.full(100, 0.1))
        baseline = monitor.baseline_rms
        for _ in range(10):
            monitor.assess(np.zeros(100))
        assert monitor.baseline_rms == baseline

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ReferenceHealthMonitor(lost_ratio=0.6, degraded_ratio=0.5)
        with pytest.raises(ConfigurationError):
            ReferenceHealthMonitor(spike_ratio=0.5)


class TestDegradationController:
    def _controller(self):
        f = LancFilter(4, 16, SECONDARY)
        return f, DegradationController(f, sample_rate=1000.0)

    def test_gates(self):
        assert DegradationController.gates(MODE_MUTE) == (True, True)
        assert DegradationController.gates(MODE_FEEDBACK) == (False, True)
        assert DegradationController.gates(MODE_PASSIVE) == (False, False)
        with pytest.raises(ConfigurationError):
            DegradationController.gates("nope")

    def test_degrade_and_recover_restores_taps(self):
        f, ctrl = self._controller()
        healthy = np.full(100, 0.1)
        assert ctrl.observe(healthy, 0) == MODE_MUTE
        converged = np.linspace(1.0, 0.0, f.n_taps)
        f.set_taps(converged)

        assert ctrl.observe(np.zeros(100), 100) == MODE_PASSIVE
        f.set_taps(np.full(f.n_taps, 9.0))   # simulate corruption

        ctrl.observe(healthy, 200)            # hysteresis: still passive
        assert ctrl.observe(healthy, 300) == MODE_MUTE
        assert np.array_equal(f.get_taps(), converged)
        assert ctrl.recovered
        assert [t.to_mode for t in ctrl.transitions] == [MODE_PASSIVE,
                                                         MODE_MUTE]
        assert ctrl.transitions[0].time_s == pytest.approx(0.1)

    def test_mode_fractions(self):
        _, ctrl = self._controller()
        healthy = np.full(100, 0.1)
        ctrl.observe(healthy, 0)
        ctrl.observe(np.zeros(100), 100)
        fractions = ctrl.mode_fractions()
        assert fractions[MODE_MUTE] == pytest.approx(0.5)
        assert fractions[MODE_PASSIVE] == pytest.approx(0.5)

    def test_transition_emits_obs_span_and_metrics(self):
        _, ctrl = self._controller()
        obs.reset()
        with obs.enabled_scope():
            ctrl.observe(np.full(100, 0.1), 0)
            ctrl.observe(np.zeros(100), 100)
        tracer = obs.get_tracer()
        spans = [sp for _, sp in tracer.walk()
                 if sp.name == "resilience.transition"]
        assert len(spans) == 1
        assert spans[0].attributes["to"] == MODE_PASSIVE
        metrics = obs.get_registry().to_dict()["metrics"]
        names = {m["name"] for m in metrics}
        assert "resilience.transitions" in names
        assert "resilience.mode" in names
        obs.reset()

    def test_snapshot_restore_resumes_the_mode_machine(self):
        original_filter, original = self._controller()
        healthy = [np.full(100, level) for level in (0.1, 0.12, 0.09)]
        for i, block in enumerate(healthy + [np.zeros(100)] * 2):
            if i == 2:
                original_filter.set_taps(
                    np.linspace(1.0, 0.0, original_filter.n_taps))
            original.observe(block, 100 * i)

        state = original.snapshot()
        taps = state.pop("snapshot_taps")
        state = json.loads(json.dumps(state))      # as a checkpoint stores it
        restored_filter, restored = self._controller()
        restored.restore({**state, "snapshot_taps": taps})

        for i in range(5, 9):
            block = np.full(100, 0.1)
            assert restored.observe(block, 100 * i) == \
                original.observe(block, 100 * i)
        assert restored.modes == original.modes
        assert restored.transitions == original.transitions
        assert np.array_equal(restored_filter.get_taps(),
                              original_filter.get_taps())

    def test_requires_tap_access(self):
        with pytest.raises(ConfigurationError):
            DegradationController(object())


# ---------------------------------------------------------------------------
# End-to-end: MuteSystem.run_resilient
# ---------------------------------------------------------------------------
class TestRunResilient:
    def _noise(self, seconds=2.0):
        return WhiteNoise(sample_rate=FS, level_rms=0.1,
                          seed=3).generate(seconds)

    def test_zero_fault_plan_bit_identical_to_unwrapped(self, fast_system):
        noise = self._noise()
        plain = fast_system.run_resilient(noise, fault_plan=None)
        empty = fast_system.run_resilient(noise, fault_plan=FaultPlan())
        assert np.array_equal(plain.residual, empty.residual)
        assert np.array_equal(plain.antinoise, empty.antinoise)
        assert plain.plan_key is None and empty.plan_key is None
        assert plain.modes and all(m == MODE_MUTE for m in plain.modes)
        assert isinstance(plain, ResilientRunResult)

    def test_outage_degrades_then_recovers(self, fast_system):
        noise = self._noise()
        plan = outage_plan(2.0, 0.25, seed=0)
        result = fast_system.run_resilient(noise, fault_plan=plan)
        assert result.plan_key == plan.plan_key()
        modes = {t.to_mode for t in result.transitions}
        assert MODE_PASSIVE in modes
        assert result.recovered
        before = result.window_cancellation_db(0.4, 0.7)
        during = result.window_cancellation_db(0.8, 1.2)
        assert before < during - 3.0     # fault clearly visible
        assert result.mode_fractions[MODE_PASSIVE] > 0.1

    def test_transitions_visible_in_obs_trace(self, fast_system):
        noise = self._noise()
        plan = outage_plan(2.0, 0.25, seed=0)
        obs.reset()
        with obs.enabled_scope():
            result = fast_system.run_resilient(noise, fault_plan=plan)
        tracer = obs.get_tracer()
        assert tracer.find("mute.run_resilient") is not None
        transitions = [sp for _, sp in tracer.walk()
                       if sp.name == "resilience.transition"]
        assert len(transitions) == len(result.transitions) >= 2
        obs.reset()

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0},
        {"block_size": 0.5},
        {"block_size": 2.7},
        {"block_size": True},
        {"block_size": "256"},
        {"fault_plan": {"events": []}},
    ], ids=["zero", "half", "fractional", "bool", "string", "dict-plan"])
    def test_block_size_validation(self, fast_system, kwargs):
        with pytest.raises(ConfigurationError):
            fast_system.run_resilient(self._noise(0.5), **kwargs)

    def test_window_cancellation_validation(self, fast_system):
        result = fast_system.run_resilient(self._noise(0.5))
        with pytest.raises(ConfigurationError):
            result.window_cancellation_db(0.4, 0.1)


# ---------------------------------------------------------------------------
# The registered experiment
# ---------------------------------------------------------------------------
class TestResilienceExperiment:
    def test_registered(self):
        from repro.eval import experiments

        assert "resilience" in experiments.experiment_names()
        entry = experiments.get("resilience")
        assert "degradation" in entry.description

    def test_smoke_and_monotonicity(self):
        from repro.eval.experiments import run_resilience

        result = run_resilience(2.0, outage_fractions=(0.0, 0.4),
                                loss_rates=(0.2,))
        res = result.results
        assert res.outage_monotone()
        assert res.outage_penalty_db() >= 0.0
        clean = res.outage_curve[0.0]
        faulted = res.outage_curve[0.4]
        assert clean["cancellation_db"] < -5.0
        assert faulted["transitions"] >= 2 and faulted["recovered"]
        report = res.report()
        assert "outage 40%" in report and "loss 20%" in report

    def test_serial_equals_parallel(self):
        from repro import runtime

        request = runtime.RunRequest(
            duration_s=1.5, seed=0, with_obs=False,
            params={"outage_fractions": (0.0, 0.3), "loss_rates": ()})
        serial = runtime.run_experiments(["resilience"], request=request)
        parallel = runtime.run_experiments(["resilience"],
                                           request=request.replace(jobs=2))
        a = serial.results()["resilience"]
        b = parallel.results()["resilience"]
        assert a.outage_curve == b.outage_curve
        assert a.loss_curve == b.loss_curve
