"""The multi-session serving runtime (repro.serving)."""

import errno
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serving
from repro.cli import main
from repro.core.adaptive import kernels
from repro.errors import ConfigurationError, ServingOverloadError, \
    SignalError
from repro.eval import experiments
from repro.faults import outage_plan
from repro.runtime import RunRequest
from tests import oracle

BLOCK = 128
DURATION_S = 0.2        # 1600 samples -> 12 whole blocks of 128


def _workloads(sessions, seed=0, duration_s=DURATION_S, fault_plans=None):
    out = []
    for i in range(sessions):
        plan = fault_plans.get(i) if fault_plans else None
        out.append(serving.SessionWorkload.synthetic(
            f"user{i}", duration_s=duration_s, seed=seed + i,
            fault_plan=plan))
    return out


def _drain(workloads, batched, **config_kwargs):
    config_kwargs.setdefault("block_size", BLOCK)
    config_kwargs.setdefault("max_sessions", max(len(workloads), 1))
    server = serving.SessionServer(
        serving.ServerConfig(batched=batched, **config_kwargs))
    for workload in workloads:
        server.submit(workload)
    return server.run_until_drained()


class TestBitIdentity:
    """Serial and batched scheduling must produce identical bits."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           sessions=st.integers(min_value=1, max_value=5))
    def test_serial_equals_batched(self, seed, sessions):
        serial = _drain(_workloads(sessions, seed=seed), batched=False)
        batched = _drain(_workloads(sessions, seed=seed), batched=True)
        assert serial.digests() == batched.digests()
        assert serial.statuses() == batched.statuses()
        assert serial.session_blocks == batched.session_blocks

    def test_bit_identity_survives_faults(self):
        plans = {1: outage_plan(DURATION_S, 0.4)}
        serial = _drain(_workloads(3, fault_plans=plans), batched=False)
        batched = _drain(_workloads(3, fault_plans=plans), batched=True)
        assert serial.digests() == batched.digests()

    def test_bit_identity_with_narrow_admission(self):
        """max_sessions < fleet: staggered admission, same bits."""
        serial = _drain(_workloads(5), batched=False, max_sessions=2)
        batched = _drain(_workloads(5), batched=True, max_sessions=2)
        assert serial.digests() == batched.digests()
        assert serial.statuses() == {serving.DONE: 5}


class TestBatchKernelContract:
    """fxlms_block_batch vs the single-session kernel: <= 1e-10."""

    TOL = 1e-10

    def _session_inputs(self, sessions, config):
        built = []
        for workload in _workloads(sessions, seed=7):
            span = (workload.reference.size // BLOCK) * BLOCK
            x = workload.reference[:span]
            d = workload.disturbance[:span]
            state = kernels.KernelState(
                config.n_future, config.n_past, config.secondary())
            state.extend(np.concatenate([x, np.zeros(config.n_future)]))
            built.append((x, d, state))
        return built

    def test_matches_single_session_kernel(self):
        config = serving.SessionConfig()
        n_taps = config.n_future + config.n_past
        batch = self._session_inputs(3, config)
        solo = self._session_inputs(3, config)

        taps = np.zeros((3, n_taps))
        mu = np.full(3, config.mu)
        batch_errors = []
        n_blocks = batch[0][1].size // BLOCK
        for b in range(n_blocks):
            d = np.stack([item[1][b * BLOCK:(b + 1) * BLOCK]
                          for item in batch])
            errors, diverged = kernels.fxlms_block_batch(
                [item[2] for item in batch], taps, d, mu)
            assert not diverged.any()
            batch_errors.append(errors)
        batch_errors = np.concatenate(batch_errors, axis=1)

        for s, (x, d, state) in enumerate(solo):
            solo_taps = np.zeros(n_taps)
            solo_errors = []
            for b in range(n_blocks):
                errors, __ = oracle.fxlms_block(
                    state, solo_taps, d[b * BLOCK:(b + 1) * BLOCK],
                    config.mu)
                solo_errors.append(errors)
            np.testing.assert_allclose(
                batch_errors[s], np.concatenate(solo_errors),
                atol=self.TOL, rtol=0)
            np.testing.assert_allclose(taps[s], solo_taps,
                                       atol=self.TOL, rtol=0)

    def test_dispatcher_validates_inputs(self):
        config = serving.SessionConfig()
        n_taps = config.n_future + config.n_past
        (x, d, state), = self._session_inputs(1, config)
        good_taps = np.zeros((1, n_taps))
        good_d = d[:BLOCK][np.newaxis, :]
        mu = np.array([0.3])

        with pytest.raises(ConfigurationError):
            kernels.fxlms_block_batch([], good_taps, good_d, mu)
        with pytest.raises(ConfigurationError):        # ragged geometry
            other = kernels.KernelState(
                config.n_future + 1, config.n_past, config.secondary())
            other.extend(np.zeros(x.size + config.n_future + 1))
            kernels.fxlms_block_batch(
                [state, other], np.zeros((2, n_taps)),
                np.vstack([good_d, good_d]), np.array([0.3, 0.3]))
        with pytest.raises(ConfigurationError):        # taps shape
            kernels.fxlms_block_batch([state], np.zeros(n_taps),
                                      good_d, mu)
        with pytest.raises(ConfigurationError):        # d shape
            kernels.fxlms_block_batch([state], good_taps, d[:BLOCK], mu)
        with pytest.raises(ConfigurationError):        # underrun
            starved = kernels.KernelState(
                config.n_future, config.n_past, config.secondary())
            starved.extend(np.zeros(8))
            kernels.fxlms_block_batch([starved], good_taps, good_d, mu)


class TestBatchWorkspace:
    """The preallocated kernel arena: bit-identity + zero-alloc ticks."""

    def _run_blocks(self, config, workspace, seed):
        """Drive fxlms_block_batch over 3 sessions; returns (errors, taps)."""
        n_taps = config.n_future + config.n_past
        built = []
        for workload in _workloads(3, seed=seed):
            span = (workload.reference.size // BLOCK) * BLOCK
            state = kernels.KernelState(
                config.n_future, config.n_past, config.secondary())
            state.extend(np.concatenate(
                [workload.reference[:span], np.zeros(config.n_future)]))
            built.append((workload.disturbance[:span], state))
        taps = np.zeros((3, n_taps))
        mu = np.full(3, config.mu)
        collected = []
        n_blocks = built[0][0].size // BLOCK
        for b in range(n_blocks):
            d = np.stack([d_sig[b * BLOCK:(b + 1) * BLOCK]
                          for d_sig, __ in built])
            errors, diverged = kernels.fxlms_block_batch(
                [state for __, state in built], taps, d, mu,
                workspace=workspace)
            assert not diverged.any()
            # Arena-backed results are borrowed views — copy before the
            # next call reuses the buffers.
            collected.append(np.array(errors, copy=True))
        return np.concatenate(collected, axis=1), taps

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_arena_bit_identical_to_fresh_allocation(self, seed):
        """Explicit workspace vs workspace=None: identical bits.

        The arena changes where results live, never what they are — the
        kernel runs the same instruction sequence over arena views and
        fresh arrays (the contract in repro.core.adaptive.kernels
        .workspace).  max_sessions > batch size also exercises the
        leading-axis capacity slicing.
        """
        config = serving.SessionConfig()
        ws = kernels.BatchWorkspace(
            8, BLOCK, config.n_future, config.n_past,
            config.secondary().size)
        arena_errors, arena_taps = self._run_blocks(config, ws, seed)
        fresh_errors, fresh_taps = self._run_blocks(config, None, seed)
        np.testing.assert_array_equal(arena_errors, fresh_errors)
        np.testing.assert_array_equal(arena_taps, fresh_taps)

    def test_mismatched_geometry_rejected(self):
        config = serving.SessionConfig()
        wrong_block = kernels.BatchWorkspace(
            8, BLOCK * 2, config.n_future, config.n_past,
            config.secondary().size)
        assert not wrong_block.fits(1, BLOCK, config.n_future,
                                    config.n_past, config.secondary().size)
        with pytest.raises(ConfigurationError, match="workspace sized"):
            self._run_blocks(config, wrong_block, seed=0)

    def test_workspace_validates_construction(self):
        with pytest.raises(ConfigurationError):
            kernels.BatchWorkspace(0, BLOCK, 64, 512, 8)
        with pytest.raises(ConfigurationError):
            kernels.BatchWorkspace(8, BLOCK, 64, 0, 8)

    def test_nbytes_reports_arena_size(self):
        ws = kernels.BatchWorkspace(8, BLOCK, 64, 512, 8)
        assert ws.nbytes >= ws.seg.nbytes + ws.errors.nbytes
        assert ws.seg_len == (512 - 1) + BLOCK + 64

    def test_steady_state_ticks_allocate_nothing(self):
        """The issue's acceptance gate: zero per-tick array allocations.

        After warmup (admission, caches, the arena itself) the batched
        block loop must run out of the preallocated workspace — a few
        KB of Python-object churn per tick is tolerated, fresh (S, L)
        scratch stacks (tens of KB each) are not.
        """
        import tracemalloc

        server = serving.SessionServer(serving.ServerConfig(
            batched=True, block_size=BLOCK, max_sessions=8))
        for workload in _workloads(8, duration_s=2.0):
            server.submit(workload)
        for __ in range(4):                 # warm: admission + caches
            assert server.tick()
        tracemalloc.start()
        try:
            for __ in range(8):
                assert server.tick()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_tick = peak / 8
        assert per_tick < 16_384, \
            f"steady-state tick allocates {per_tick / 1024:.1f} KiB"


class TestAdmission:
    def test_reject_policy_raises(self):
        manager = serving.SessionManager(max_sessions=1, queue_depth=2)
        for workload in _workloads(2):
            manager.submit(workload)
        with pytest.raises(ServingOverloadError):
            manager.submit(_workloads(1, seed=99)[0])
        assert manager.shed_count == 0

    def test_shed_oldest_policy_evicts(self):
        manager = serving.SessionManager(
            max_sessions=1, queue_depth=2, shed_policy="shed-oldest")
        first, second = (manager.submit(w) for w in _workloads(2))
        third = manager.submit(_workloads(1, seed=99)[0])
        assert first.status == serving.SHED
        assert manager.shed_count == 1
        assert list(manager.pending) == [second, third]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            serving.SessionManager(shed_policy="coin-flip")

    def test_shed_sessions_reported(self):
        server = serving.SessionServer(serving.ServerConfig(
            block_size=BLOCK, max_sessions=1, queue_depth=1,
            shed_policy="shed-oldest"))
        for workload in _workloads(3):
            server.submit(workload)
        report = server.run_until_drained()
        assert report.shed == 2
        (survivor,) = report.results
        assert survivor.name == "user2"

    def test_sub_block_workload_rejected_at_submit(self):
        manager = serving.SessionManager(block_size=BLOCK)
        tiny = serving.SessionWorkload.synthetic(
            "tiny", duration_s=BLOCK / 2 / 8000.0, seed=0)
        with pytest.raises(SignalError,
                           match=r"'tiny' has 64 samples.*128-sample block"):
            manager.submit(tiny)
        assert not manager.pending
        assert manager.submitted == 0

    def test_request_fault_plan_applied_on_submit(self):
        manager = serving.SessionManager()
        plan = outage_plan(DURATION_S, 0.4)
        session = manager.submit(
            _workloads(1)[0], request=RunRequest(fault_plan=plan))
        assert session.workload.fault_plan is plan


class TestFaultIsolation:
    def test_faulty_session_leaves_neighbors_untouched(self):
        healthy = _drain(_workloads(3), batched=True)
        plans = {1: outage_plan(DURATION_S, 0.5)}
        mixed = _drain(_workloads(3, fault_plans=plans), batched=True)

        assert mixed.digests()["user0"] == healthy.digests()["user0"]
        assert mixed.digests()["user2"] == healthy.digests()["user2"]
        assert mixed.digests()["user1"] != healthy.digests()["user1"]
        faulted = next(r for r in mixed.results if r.name == "user1")
        assert faulted.transitions > 0
        assert faulted.status == serving.DONE

    def test_diverged_session_is_isolated(self):
        workloads = _workloads(3)
        bomb = serving.SessionWorkload(
            name="user1", reference=workloads[1].reference,
            disturbance=workloads[1].disturbance * 1e9)
        workloads[1] = bomb
        healthy = _drain([workloads[0], workloads[2]], batched=True)
        mixed = _drain(workloads, batched=True)

        by_name = {r.name: r for r in mixed.results}
        assert by_name["user1"].status == serving.FAILED
        assert "divergence" in by_name["user1"].error
        assert by_name["user1"].blocks == 0
        assert mixed.digests()["user0"] == healthy.digests()["user0"]
        assert mixed.digests()["user2"] == healthy.digests()["user2"]
        assert mixed.statuses() == {serving.DONE: 2, serving.FAILED: 1}


class TestServingReport:
    def test_document_schema_and_round_trip(self):
        report = _drain(_workloads(2), batched=True)
        document = report.to_dict()
        assert document["schema"] == "repro.runtime.report/v2"
        assert document["kind"] == "serving"
        assert document["shed"] == 0
        assert {s["name"] for s in document["sessions"]} == \
            {"user0", "user1"}
        assert all(s["status"] == serving.DONE
                   for s in document["sessions"])
        json.loads(json.dumps(document))  # JSON-able end to end

    def test_latency_percentiles_and_throughput(self):
        report = _drain(_workloads(2), batched=True)
        pct = report.latency_percentiles()
        assert 0.0 < pct["p50"] <= pct["p99"]
        assert report.throughput_blocks_per_s() > 0
        assert report.audio_seconds_per_s() > 0
        assert "session-blocks/s" in report.report()

    def test_sessions_cancel_noise(self):
        report = _drain(_workloads(2, duration_s=1.0), batched=True)
        for result in report.results:
            assert result.cancellation_db() > 3.0, result.name


class TestServingExperiment:
    def test_registered_and_runs(self):
        entry = experiments.get("serving")
        result = entry.run(duration_s=DURATION_S, sessions=2,
                           block_size=BLOCK)
        assert result["name"] == "serving"
        assert result.results.sessions == 2
        assert "serving: 2 session(s)" in result.report()

    def test_fault_plan_reaches_odd_sessions(self):
        entry = experiments.get("serving")
        result = entry.run(duration_s=DURATION_S, sessions=4,
                           block_size=BLOCK,
                           fault_plan=outage_plan(DURATION_S, 0.4))
        assert result.results.faulted_sessions == 2


class TestServeBenchCli:
    def test_check_passes(self):
        out = io.StringIO()
        code = main(["serve-bench", "--sessions", "2",
                     "--duration", "0.2", "--block", str(BLOCK),
                     "--check"], out=out)
        assert code == 0
        assert "serial == batched digests: OK" in out.getvalue()

    def test_out_writes_v2_document(self, tmp_path):
        path = tmp_path / "serving.json"
        out = io.StringIO()
        code = main(["serve-bench", "--sessions", "2",
                     "--duration", "0.2", "--out", str(path)], out=out)
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.runtime.report/v2"
        assert document["kind"] == "serving"

    def test_failed_out_write_keeps_previous_file(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "serving.json"
        path.write_text("previous report")

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.utils.store.os.replace", full_disk)
        out = io.StringIO()
        code = main(["serve-bench", "--sessions", "2",
                     "--duration", "0.2", "--out", str(path)], out=out)
        assert code == 2
        assert f"serve-bench: cannot write {path}" in out.getvalue()
        assert path.read_text() == "previous report"
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_arguments_rejected(self):
        out = io.StringIO()
        assert main(["serve-bench", "--sessions", "0"], out=out) == 2
        assert main(["serve-bench", "--duration", "-1"], out=out) == 2
        # Shorter than one block: rejected at submit, nothing reported.
        out = io.StringIO()
        assert main(["serve-bench", "--sessions", "2", "--duration",
                     "0.01", "--check"], out=out) == 2
        assert out.getvalue() == ("serve-bench: workload 'user0' has 80 "
                                  "samples, fewer than one 256-sample "
                                  "block\n")
