"""The chaos layer: plans, injectors, breakers, and the soak harness.

Covers the crash-safety acceptance contract end to end:

* zero chaos with supervision + breakers enabled is **bit-identical**
  to the plain server (the layer is free when nothing goes wrong);
* an injected crash + warm restore is **invisible in the output bits**;
* repeated crashes escalate to a deliberate shed, never a hang;
* the deadline breaker walks its closed/open/half-open ladder.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import chaos, obs, serving
from repro.chaos import (
    SOAK_SCHEMA,
    ChaosPlan,
    CrashAt,
    SessionChaosInjector,
    StallAt,
    run_soak,
    soak_plans,
)
from repro.cli import main
from repro.errors import ConfigurationError, InjectedCrashError
from repro.eval import experiments
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DeadlineCircuitBreaker,
    DeadlineConfig,
    SupervisionConfig,
)

BLOCK = 128
DURATION_S = 0.3        # 2400 samples -> 18 whole blocks of 128


def _workloads(sessions, seed=0, plans=None):
    built = []
    for i in range(sessions):
        injector = None
        if plans is not None and i in plans:
            injector = SessionChaosInjector(plans[i])
        built.append(serving.SessionWorkload.synthetic(
            f"user{i}", duration_s=DURATION_S, seed=seed + i,
            chaos=injector))
    return built


def _drain(workloads, batched=True, **config_kwargs):
    config_kwargs.setdefault("block_size", BLOCK)
    config_kwargs.setdefault("max_sessions", max(len(workloads), 1))
    server = serving.SessionServer(
        serving.ServerConfig(batched=batched, **config_kwargs))
    for workload in workloads:
        server.submit(workload)
    return server.run_until_drained()


def _assert_integer_fields(config, fields):
    """Each field refuses a float, a bool and a string, and keeps a
    NumPy integer as the int it is."""
    for field in fields:
        for bad in (2.5, True, "3"):
            with pytest.raises(ConfigurationError, match=field):
                config(**{field: bad})
        value = getattr(config(**{field: np.int64(3)}), field)
        assert type(value) is int and value == 3


class TestChaosPlan:
    def test_events_sorted_and_key_deterministic(self):
        plan = ChaosPlan(events=(StallAt(9), CrashAt(2), CrashAt(7)))
        assert [e.block for e in plan.events] == [2, 7, 9]
        reordered = ChaosPlan(events=(CrashAt(7), StallAt(9), CrashAt(2)))
        assert plan.plan_key() == reordered.plan_key()
        assert plan.plan_key() != ChaosPlan(events=(CrashAt(3),)).plan_key()

    def test_empty_plan_is_identity(self):
        assert ChaosPlan().empty
        assert len(ChaosPlan()) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashAt(-1)
        with pytest.raises(ConfigurationError):
            StallAt(0, stall_s=0.0)
        with pytest.raises(ConfigurationError):
            StallAt(0, blocks=0)
        with pytest.raises(ConfigurationError):
            ChaosPlan(events=("boom",))
        with pytest.raises(ConfigurationError):
            SessionChaosInjector("not a plan")

    def test_soak_plans_deterministic_and_independent(self):
        first = soak_plans(4, 18, seed=7)
        again = soak_plans(4, 18, seed=7)
        assert [p.plan_key() for p in first] == \
            [p.plan_key() for p in again]
        # Adding a session never perturbs earlier sessions' chaos.
        grown = soak_plans(5, 18, seed=7)
        assert [p.plan_key() for p in grown[:4]] == \
            [p.plan_key() for p in first]


class TestInjectorOneShot:
    def test_crash_fires_exactly_once(self):
        session = serving.DeviceSession(
            0, serving.SessionWorkload.synthetic("u", duration_s=DURATION_S),
            serving.SessionConfig(), BLOCK)
        injector = SessionChaosInjector(ChaosPlan(events=(CrashAt(0),)))
        with pytest.raises(InjectedCrashError):
            injector.before_block(session)
        # The replayed block after a restore must not re-crash.
        assert injector.before_block(session) == 0.0
        assert injector.crashes == 1

    def test_stalls_accumulate_once_per_block(self):
        session = serving.DeviceSession(
            0, serving.SessionWorkload.synthetic("u", duration_s=DURATION_S),
            serving.SessionConfig(), BLOCK)
        injector = SessionChaosInjector(
            ChaosPlan(events=(StallAt(0, stall_s=0.01, blocks=2),)))
        assert injector.before_block(session) == pytest.approx(0.01)
        assert injector.before_block(session) == 0.0     # one-shot replay
        session.block_index = 1
        assert injector.before_block(session) == pytest.approx(0.01)
        session.block_index = 2
        assert injector.before_block(session) == 0.0     # past the window
        assert injector.stats()["stalls"] == 2


class TestZeroChaosBitIdentity:
    """Supervision + breakers enabled, nothing injected: same bits."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           batched=st.booleans())
    def test_matches_unsupervised_baseline(self, seed, batched):
        plain = _drain(_workloads(3, seed=seed), batched=batched)
        hardened = _drain(
            _workloads(3, seed=seed), batched=batched,
            supervision=SupervisionConfig(checkpoint_every_blocks=4),
            deadline=DeadlineConfig(),
        )
        assert hardened.digests() == plain.digests()
        assert hardened.statuses() == {serving.DONE: 3}
        assert hardened.recovery["restores"] == 0
        assert hardened.recovery["escalations"] == 0


class TestCrashRecovery:
    def test_warm_restore_is_bit_identical(self):
        baseline = _drain(_workloads(3))
        plans = {1: ChaosPlan(events=(CrashAt(5),))}
        recovered = _drain(
            _workloads(3, plans=plans),
            supervision=SupervisionConfig(checkpoint_every_blocks=2,
                                          max_restarts=2),
        )
        assert recovered.digests() == baseline.digests()
        assert recovered.statuses() == {serving.DONE: 3}
        assert recovered.recovery["restores"] == 1
        assert recovered.recovery["crashed_sessions"] == 1

    def test_crash_leaves_neighbors_untouched(self):
        baseline = _drain(_workloads(4))
        plans = {2: ChaosPlan(events=(CrashAt(3), CrashAt(9)))}
        recovered = _drain(
            _workloads(4, plans=plans),
            supervision=SupervisionConfig(checkpoint_every_blocks=2,
                                          max_restarts=3),
        )
        assert recovered.digests() == baseline.digests()

    def test_escalates_to_shed_after_budget(self):
        plans = {0: ChaosPlan(events=(CrashAt(2), CrashAt(4), CrashAt(6)))}
        report = _drain(
            _workloads(2, plans=plans),
            supervision=SupervisionConfig(checkpoint_every_blocks=2,
                                          max_restarts=2),
        )
        by_name = {r.name: r for r in report.results}
        assert by_name["user0"].status == serving.SHED
        assert "escalated to shed" in by_name["user0"].error
        assert by_name["user1"].status == serving.DONE
        assert report.recovery["escalations"] == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisionConfig(checkpoint_every_blocks=0)
        with pytest.raises(ConfigurationError):
            SupervisionConfig(max_restarts=-1)
        _assert_integer_fields(SupervisionConfig,
                               ("checkpoint_every_blocks", "max_restarts"))

    def test_unsupervised_crash_raises(self):
        plans = {0: ChaosPlan(events=(CrashAt(1),))}
        with pytest.raises(InjectedCrashError):
            _drain(_workloads(1, plans=plans))

    def test_backoff_sits_out_ticks(self):
        """One tick after the first crash, two after the second."""
        supervisor = serving.SessionSupervisor(
            SupervisionConfig(max_restarts=3))
        session = serving.DeviceSession(
            0, serving.SessionWorkload.synthetic("u", duration_s=DURATION_S),
            serving.SessionConfig(), BLOCK)
        supervisor.on_admit(session)
        replacement = supervisor.on_crash(session, RuntimeError("boom"),
                                          tick=10)
        assert replacement is not None
        assert not supervisor.ready(replacement, 11)
        assert supervisor.ready(replacement, 12)
        replacement = supervisor.on_crash(replacement, RuntimeError("boom"),
                                          tick=20)
        assert not supervisor.ready(replacement, 21)
        assert not supervisor.ready(replacement, 22)
        assert supervisor.ready(replacement, 23)


class TestDeadlineBreaker:
    def test_eq3_budget(self):
        """An admitted session's deadline is its lookahead window."""
        server = serving.SessionServer(serving.ServerConfig(
            block_size=BLOCK, deadline=DeadlineConfig(),
            session=serving.SessionConfig(n_future=24,
                                          sample_rate=16000.0)))
        server.submit(serving.SessionWorkload.synthetic(
            "u", duration_s=DURATION_S, sample_rate=16000.0))
        server.tick()
        assert server.active[0].breaker.deadline_s == 24 / 16000.0

    def test_state_machine_walk(self):
        breaker = DeadlineCircuitBreaker(
            0.01, DeadlineConfig(miss_threshold=2, cooldown_blocks=2))
        assert breaker.mode_floor() == "mute"
        breaker.observe(0.02)
        assert breaker.state == BREAKER_CLOSED        # one miss: not yet
        breaker.observe(0.001)
        breaker.observe(0.02)
        breaker.observe(0.02)                         # 2 consecutive: trip
        assert breaker.state == BREAKER_OPEN
        assert breaker.mode_floor() == "feedback"
        breaker.observe(0.001)
        breaker.observe(0.001)                        # cooldown elapses
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.mode_floor() == "mute"         # probe runs at full
        breaker.observe(0.001)                        # probe meets deadline
        assert breaker.state == BREAKER_CLOSED
        assert breaker.summary()["recoveries"] == 1

    def test_failed_probe_escalates_cooldown_and_floor(self):
        breaker = DeadlineCircuitBreaker(
            0.01, DeadlineConfig(miss_threshold=1, cooldown_blocks=2))
        breaker.observe(0.02)                         # trip 1
        first_cooldown = breaker.cooldown_remaining
        breaker.observe(0.001)
        breaker.observe(0.001)
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.observe(0.02)                         # failed probe: trip 2
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        assert breaker.cooldown_remaining == 2 * first_cooldown
        assert breaker.mode_floor() == "passive"      # ESCALATE_TRIPS hit

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlineCircuitBreaker(0.0)
        with pytest.raises(ConfigurationError):
            DeadlineConfig(miss_threshold=0)
        _assert_integer_fields(DeadlineConfig,
                               ("miss_threshold", "cooldown_blocks"))

    def test_zero_lookahead_refused_when_the_server_is_built(self):
        """N = 0 leaves a breaker no deadline: the server refuses it at
        construction, before admission takes a session off the queue."""
        session = serving.SessionConfig(n_future=0)
        with pytest.raises(ConfigurationError, match="n_future"):
            serving.SessionServer(serving.ServerConfig(
                deadline=DeadlineConfig(), session=session))
        report = _drain(_workloads(1), session=session)
        assert report.statuses() == {serving.DONE: 1}

    def test_stall_trips_breaker_in_server(self):
        """Injected stalls (simulated latency) drive the breaker."""
        plans = {0: ChaosPlan(events=(StallAt(2, stall_s=0.05, blocks=6),))}
        report = _drain(
            _workloads(2, plans=plans),
            supervision=SupervisionConfig(),
            deadline=DeadlineConfig(miss_threshold=2, cooldown_blocks=4),
        )
        by_name = {r.name: r for r in report.results}
        assert by_name["user0"].breaker["trips"] >= 1
        assert by_name["user0"].breaker["misses"] >= 2
        assert by_name["user1"].breaker["trips"] == 0
        # Latency degradation, not failure: the session still finishes.
        assert by_name["user0"].status == serving.DONE


class TestSoakHarness:
    def test_soak_passes_and_round_trips(self):
        report = run_soak(sessions=4, duration_s=DURATION_S,
                          block_size=BLOCK, seed=7, crash_prob=1.0)
        assert report.ok()
        assert report.crashes_injected >= 1
        assert report.unaccounted == []
        assert report.mismatches == []
        assert all(status in (serving.DONE, serving.SHED)
                   for status in report.statuses)
        # Recovery must be visible, not silent.
        assert (report.recovery["restores"]
                + report.recovery["escalations"]) >= 1

        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema"] == SOAK_SCHEMA
        assert document["ok"] is True
        assert "PASS" in report.report()

    def test_serial_and_batched_agree(self):
        batched = run_soak(sessions=3, duration_s=DURATION_S,
                           block_size=BLOCK, seed=3, batched=True)
        serial = run_soak(sessions=3, duration_s=DURATION_S,
                          block_size=BLOCK, seed=3, batched=False)
        assert batched.ok() and serial.ok()
        assert batched.statuses == serial.statuses
        assert batched.crashes_injected == serial.crashes_injected

    def test_recovery_metrics_exported(self):
        obs.reset()
        with obs.enabled_scope():
            report = run_soak(sessions=3, duration_s=DURATION_S,
                              block_size=BLOCK, seed=7, crash_prob=1.0)
            metrics = obs.get_registry().to_dict()["metrics"]
        obs.reset()
        assert report.ok()
        names = {m["name"] for m in metrics}
        assert "serving.recovery.crashes" in names
        assert "serving.recovery.checkpoints" in names
        assert "serving.recovery.restores" in names

    def test_rejects_sub_two_block_sessions(self):
        with pytest.raises(ConfigurationError):
            run_soak(sessions=2, duration_s=0.01, block_size=BLOCK)


class TestChaosExperiment:
    def test_registered_and_runs(self):
        entry = experiments.get("chaos")
        result = entry.run(duration_s=DURATION_S, sessions=3,
                           block_size=BLOCK)
        assert result["name"] == "chaos"
        assert result.results.ok
        assert result.results.mismatches == []
        assert "chaos soak: 3 session(s)" in result.report()
        assert "PASS" in result.report()


class TestChaosSoakCli:
    def test_passes(self):
        out = io.StringIO()
        code = main(["chaos-soak", "--sessions", "3",
                     "--duration", str(DURATION_S), "--block", str(BLOCK),
                     "--seed", "7"], out=out)
        assert code == 0
        assert "PASS" in out.getvalue()

    def test_json_out_writes_soak_document(self, tmp_path):
        path = tmp_path / "soak.json"
        out = io.StringIO()
        code = main(["chaos-soak", "--sessions", "3",
                     "--duration", str(DURATION_S), "--json",
                     "--out", str(path)], out=out)
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == SOAK_SCHEMA
        assert document["ok"] is True

    def test_bad_arguments_rejected(self):
        out = io.StringIO()
        assert main(["chaos-soak", "--sessions", "0"], out=out) == 2
        assert main(["chaos-soak", "--duration", "-1"], out=out) == 2
        assert main(["chaos-soak", "--crash-prob", "2.0"], out=out) == 2
