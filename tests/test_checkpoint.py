"""Session checkpoint/restore (repro.serving.checkpoint).

The crash-safety contract under test: a snapshot taken mid-convergence
and applied to a fresh session must resume **bit-identically** — the
replayed blocks produce exactly the residual an uncrashed run would
have produced, on the product kernel and on the oracle's reference walk.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import kernels
from repro.errors import CheckpointError
from repro.serving import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    checkpoint_payload,
)
from repro.serving.session import (
    ACTIVE,
    DeviceSession,
    SessionConfig,
    SessionWorkload,
)
from repro.utils.store import entry_digest
from tests import oracle

BLOCK = 64

#: The arithmetic a snapshot must survive: the oracle's per-sample
#: ``loop`` walk and the product (``vector``) kernel.
PATHS = {"loop": oracle.reference_paths, "vector": contextlib.nullcontext}
DURATION_S = 0.2        # 1600 samples -> 25 blocks of 64


def _session(seed=0, session_id=0, duration_s=DURATION_S):
    workload = SessionWorkload.synthetic(
        f"user{seed}", duration_s=duration_s, seed=seed)
    session = DeviceSession(session_id, workload, SessionConfig(), BLOCK)
    session.status = ACTIVE
    return session


def _advance(session, blocks):
    """Serve ``blocks`` lock-step blocks, exactly like the serial server."""
    config = session.config
    for __ in range(blocks):
        if session.done:
            break
        adapt, active = session.gates()
        taps = np.stack([session.filter.taps])
        d = np.stack([session.next_block()[1]])
        mu = np.array([session.filter.mu])
        errors, diverged = kernels.fxlms_block_batch(
            [session.stream.state], taps, d, mu,
            normalized=config.normalized, leak=config.leak,
            adapt=np.array([adapt]), active=np.array([active]),
        )
        assert not diverged[0]
        session.filter.taps[:] = taps[0]
        session.record_block(errors[0])


def _drain(session):
    _advance(session, session.n_blocks)
    return session.result()


def _digest(payload):
    """The store's entry digest of one payload."""
    return entry_digest(payload["meta"], payload["arrays"])


class TestRestoreBitIdentity:
    """save -> restore -> replay must equal the uninterrupted run."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           checkpoint_block=st.integers(min_value=1, max_value=24))
    def test_mid_convergence_restore_is_bit_identical(
            self, seed, checkpoint_block):
        baseline = _drain(_session(seed=seed))

        victim = _session(seed=seed)
        _advance(victim, checkpoint_block)
        payload = checkpoint_payload(victim)

        restored = _session(seed=seed)
        restored.apply_checkpoint(payload)
        assert restored.block_index == checkpoint_block
        resumed = _drain(restored)

        assert resumed.digest() == baseline.digest()
        assert np.array_equal(resumed.residual, baseline.residual)

    @pytest.mark.parametrize("backend", sorted(PATHS))
    def test_kernel_state_snapshot_round_trip(self, backend):
        """KernelState.snapshot/restore is exact on both arithmetics."""
        config = SessionConfig()
        rng = np.random.default_rng(42)
        x = rng.normal(size=6 * BLOCK + config.n_future)
        d = rng.normal(size=6 * BLOCK)
        taps_a = np.zeros(config.n_future + config.n_past)
        taps_b = taps_a.copy()

        def fresh_state():
            state = kernels.KernelState(
                config.n_future, config.n_past, config.secondary())
            state.extend(x)
            return state

        def blocks(state, taps, indices):
            with PATHS[backend]():
                return [kernels.fxlms_block(
                    state, taps, d[i * BLOCK:(i + 1) * BLOCK], config.mu,
                    normalized=config.normalized,
                )[0] for i in indices]

        outputs_a = blocks(fresh_state(), taps_a, range(6))

        split = fresh_state()
        outputs_b = blocks(split, taps_b, range(3))
        handoff = fresh_state()
        handoff.restore(split.snapshot())
        outputs_b += blocks(handoff, taps_b, range(3, 6))

        assert np.array_equal(taps_a, taps_b)
        for block_a, block_b in zip(outputs_a, outputs_b):
            assert np.array_equal(np.asarray(block_a), np.asarray(block_b))


class TestPayloadDigest:
    def test_deterministic(self):
        session = _session()
        _advance(session, 3)
        payload = checkpoint_payload(session)
        assert payload["meta"]["schema"] == CHECKPOINT_SCHEMA
        assert _digest(payload) == _digest(payload)

    def test_sensitive_to_state(self):
        session = _session()
        _advance(session, 3)
        payload = checkpoint_payload(session)
        tampered = checkpoint_payload(session)
        tampered["arrays"]["taps"] = tampered["arrays"]["taps"] + 1e-12
        assert _digest(tampered) != _digest(payload)

    def test_payload_is_frozen_copy(self):
        """The session keeps mutating; the payload must not follow."""
        session = _session()
        _advance(session, 3)
        payload = checkpoint_payload(session)
        digest = _digest(payload)
        _advance(session, 3)
        assert _digest(payload) == digest


class TestMemoryStore:
    def test_save_latest_round_trip(self):
        store = CheckpointStore()
        session = _session()
        _advance(session, 4)
        digest = store.save(session)
        payload = store.latest(session.session_id)
        assert _digest(payload) == digest
        assert payload["meta"]["block_index"] == 4

    def test_keep_prunes_oldest(self):
        store = CheckpointStore(keep=2)
        session = _session()
        for __ in range(4):
            _advance(session, 1)
            store.save(session)
        assert store.entries.names() == ["session-00000-block-0000003",
                                         "session-00000-block-0000004"]

    def test_corrupt_snapshot_skipped_not_fatal(self):
        store = CheckpointStore()
        session = _session()
        _advance(session, 2)
        store.save(session)
        _advance(session, 2)
        store.save(session)
        # Bit-rot the newest in-memory entry: verification must skip
        # it and fall back to the older intact snapshot.
        newest = store.entries.names()[-1]
        blob = bytearray(store.entries._blobs[newest])
        blob[len(blob) // 2] ^= 0xFF
        store.entries._blobs[newest] = bytes(blob)
        payload = store.latest(session.session_id)
        assert payload["meta"]["block_index"] == 2
        assert store.corrupt_skipped == 1
        assert store.stats() == {"saved": 2, "corrupt_skipped": 1}

    def test_restore_session_warm_and_cold(self):
        store = CheckpointStore()
        session = _session()
        _advance(session, 4)
        store.save(session)
        warm_session, warm = store.restore_session(session)
        assert warm
        assert warm_session.block_index == 4

        stranger = _session(seed=9, session_id=7)
        cold_session, warm = store.restore_session(stranger)
        assert not warm
        assert cold_session.block_index == 0

    def test_rejects_bad_keep(self):
        with pytest.raises(CheckpointError):
            CheckpointStore(keep=0)


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        writer = CheckpointStore(tmp_path)
        session = _session()
        _advance(session, 4)
        digest = writer.save(session)
        assert list(tmp_path.glob("session-*.npz"))

        reader = CheckpointStore(tmp_path)       # fresh "process"
        payload = reader.latest(session.session_id)
        assert _digest(payload) == digest

        restored, warm = reader.restore_session(_session())
        assert warm
        assert restored.block_index == 4

    def test_disk_restore_is_bit_identical(self, tmp_path):
        baseline = _drain(_session())

        store = CheckpointStore(tmp_path)
        victim = _session()
        _advance(victim, 5)
        store.save(victim)
        restored, warm = CheckpointStore(tmp_path).restore_session(
            _session())
        assert warm
        assert _drain(restored).digest() == baseline.digest()

    def test_corrupt_file_falls_back_to_older_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path)
        session = _session()
        _advance(session, 2)
        store.save(session)
        _advance(session, 2)
        store.save(session)
        newest = max(tmp_path.glob("session-*.npz"))
        newest.write_bytes(b"not an npz archive")

        reader = CheckpointStore(tmp_path)
        payload = reader.latest(session.session_id)
        assert payload["meta"]["block_index"] == 2
        assert reader.corrupt_skipped == 1

    def test_truncated_file_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        session = _session()
        _advance(session, 3)
        store.save(session)
        (path,) = tmp_path.glob("session-*.npz")
        path.write_bytes(path.read_bytes()[:40])
        assert CheckpointStore(tmp_path).latest(session.session_id) is None

    def test_keep_prunes_disk(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        session = _session()
        for __ in range(5):
            _advance(session, 1)
            store.save(session)
        assert len(list(tmp_path.glob("session-*.npz"))) == 2


class TestApplyCheckpointValidation:
    def _payload(self):
        session = _session()
        _advance(session, 3)
        return checkpoint_payload(session)

    def test_wrong_session_id(self):
        payload = self._payload()
        payload["meta"]["session_id"] = 99
        with pytest.raises(CheckpointError):
            _session().apply_checkpoint(payload)

    def test_wrong_workload_name(self):
        payload = self._payload()
        payload["meta"]["name"] = "somebody-else"
        with pytest.raises(CheckpointError):
            _session().apply_checkpoint(payload)

    def test_wrong_block_size(self):
        payload = self._payload()
        payload["meta"]["block_size"] = BLOCK * 2
        with pytest.raises(CheckpointError):
            _session().apply_checkpoint(payload)

    def test_wrong_taps_geometry(self):
        payload = self._payload()
        payload["arrays"]["taps"] = np.zeros(3)
        with pytest.raises(CheckpointError):
            _session().apply_checkpoint(payload)
