"""Session checkpointing: digest-verified snapshots with warm restore.

Adaptive-filter state is expensive to re-converge (Friot's stability
analyses and the DeepANC line both make this point): a LANC session
that crashes and restarts *cold* re-pays the whole convergence
transient, audibly.  This module makes serving crashes cheap instead:

* :func:`checkpoint_payload` captures everything mutable about a
  :class:`~repro.serving.session.DeviceSession` mid-run — the filter
  taps, the :class:`~repro.core.adaptive.kernels.KernelState`
  (via its ``snapshot()``), the
  :class:`~repro.faults.DegradationController` mode machine (via its
  ``snapshot()``), the workload cursor, and the residual produced so
  far;
* :class:`CheckpointStore` persists those payloads as entries of one
  :class:`~repro.utils.store.Store` — in memory, or on disk as
  atomically written ``.npz`` files — whose entry digest is the
  integrity check every read re-verifies;
* :meth:`CheckpointStore.restore_session` rebuilds a live session from
  the newest intact snapshot, so a supervised restart resumes
  convergence from the pre-crash taps — **bit-identically**: replaying
  the blocks after the checkpoint reproduces exactly the residual an
  uncrashed run would have produced (property-tested in
  ``tests/test_checkpoint.py``).

A corrupt or truncated snapshot is never fatal on the read path: it
fails verification, the store quarantines it, and the next-newest
intact snapshot (or a cold rebuild) is used instead — a checkpoint
store can lose history, never corrupt a restore.  Format details in
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from .. import obs
from ..errors import CheckpointError
from ..utils.store import Store

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "checkpoint_payload",
]

#: Schema identifier carried in every checkpoint's metadata.
CHECKPOINT_SCHEMA = "repro.serving.checkpoint/v2"


def checkpoint_payload(session):
    """Snapshot one live session into a plain ``{"meta", "arrays"}`` dict.

    ``meta`` is JSON-able bookkeeping (cursor, lifecycle, degradation
    state machine); ``arrays`` holds the float state (taps, kernel
    snapshot, banked residual, and the controller's pre-fault taps if
    it holds any).  Every array is a private copy — the session keeps
    running, the payload stays frozen.
    """
    state = session.stream.state.snapshot()
    controller = session.controller.snapshot()
    snapshot_taps = controller.pop("snapshot_taps")
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "session_id": int(session.session_id),
        "name": session.workload.name,
        "block_index": int(session.block_index),
        "block_size": int(session.block_size),
        "status": session.status,
        "error": session.error,
        "kernel_time": int(state["time"]),
        "controller": controller,
    }
    arrays = {
        "taps": session.filter.taps.copy(),
        "residuals": session.stream.residual().copy(),
        "x": state["x"],
        "xf": state["xf"],
        "y_recent": state["y_recent"],
        "zi": state["zi"],
    }
    if snapshot_taps is not None:
        arrays["snapshot_taps"] = snapshot_taps
    return {"meta": meta, "arrays": arrays}


class CheckpointStore:
    """Per-session snapshot history over one :class:`~repro.utils.store.Store`.

    Parameters
    ----------
    directory:
        Where to persist snapshots, or ``None`` for a memory-only
        store (the supervisor's default — crash *injection* does not
        kill the process, so in-process payloads survive; a real
        deployment points this at durable storage).
    keep:
        Snapshots retained per session; older ones are pruned so a
        long soak cannot fill the disk.

    Notes
    -----
    Snapshots are store entries named
    ``session-<id:05d>-block-<block:07d>`` (``.npz`` files on disk);
    re-saving a block replaces its entry.  Reads fall under the store's
    one corruption policy: an entry that fails verification is
    quarantined and the next-newest one is tried.
    """

    def __init__(self, directory=None, keep=4):
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        self.entries = Store(directory or None, "checkpoints")
        self.saved = 0

    @property
    def corrupt_skipped(self):
        """Snapshots quarantined because they failed verification."""
        return self.entries.corrupt

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, session):
        """Snapshot ``session`` now; returns the entry digest."""
        payload = checkpoint_payload(session)
        meta = payload["meta"]
        prefix = f"session-{meta['session_id']:05d}-"
        digest = self.entries.put(
            f"{prefix}block-{meta['block_index']:07d}", meta,
            payload["arrays"])
        for name in self.entries.names(prefix)[:-self.keep]:
            self.entries.delete(name)
        self.saved += 1
        if obs.enabled():
            obs.get_registry().counter(
                "serving.recovery.checkpoints").inc()
        return digest

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def latest(self, session_id):
        """The newest intact payload for ``session_id``, or ``None``.

        Snapshots are tried newest-first; one that fails verification
        or carries another schema is quarantined (counted in
        :attr:`corrupt_skipped` and the
        ``store.corruption_total{store=checkpoints}`` obs counter), so
        one damaged file degrades recovery to an older snapshot, never
        to an exception.
        """
        for name in reversed(self.entries.names(
                f"session-{int(session_id):05d}-")):
            found = self.entries.get(name)
            if found is None:
                continue
            meta, arrays = found
            if meta.get("schema") == CHECKPOINT_SCHEMA:
                return {"meta": meta, "arrays": arrays}
            self.entries.quarantine(name)
        return None

    def restore_session(self, session):
        """A fresh :class:`DeviceSession` resumed from the newest snapshot.

        Parameters
        ----------
        session:
            The crashed session (source of the workload, config, block
            size, and identity).  It is not touched.

        Returns
        -------
        (DeviceSession, bool)
            The replacement session and whether it was warm-restored
            (``True``) or cold-rebuilt because no intact snapshot
            existed (``False``).  Either way the replacement carries
            the original's chaos injector and circuit breaker by
            reference, so one-shot crash schedules and breaker state
            survive the restart.
        """
        from .session import DeviceSession

        replacement = DeviceSession(
            session.session_id, session.workload, session.config,
            session.block_size,
        )
        replacement.chaos = session.chaos
        replacement.breaker = session.breaker
        payload = self.latest(session.session_id)
        if payload is None:
            return replacement, False
        replacement.apply_checkpoint(payload)
        return replacement, True

    def stats(self):
        """Save/verify counters as a plain dict (for soak reports)."""
        return {"saved": self.saved,
                "corrupt_skipped": self.corrupt_skipped}
