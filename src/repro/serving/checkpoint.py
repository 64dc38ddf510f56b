"""Session checkpointing: content-addressed snapshots with warm restore.

Adaptive-filter state is expensive to re-converge (Friot's stability
analyses and the DeepANC line both make this point): a LANC session
that crashes and restarts *cold* re-pays the whole convergence
transient, audibly.  This module makes serving crashes cheap instead:

* :func:`checkpoint_payload` captures everything mutable about a
  :class:`~repro.serving.session.DeviceSession` mid-run — the filter
  taps, the :class:`~repro.core.adaptive.kernels.KernelState`
  (via its ``snapshot()``), the
  :class:`~repro.faults.DegradationController` mode machine, the
  workload cursor, and the residual produced so far;
* :class:`CheckpointStore` persists those payloads — in memory, or on
  disk as **atomically written** (temp file + ``os.replace``),
  **content-addressed** ``.npz`` snapshots whose SHA-256 digest is both
  the integrity check and part of the file name;
* :meth:`CheckpointStore.restore_session` rebuilds a live session from
  the newest intact snapshot, so a supervised restart resumes
  convergence from the pre-crash taps — **bit-identically**: replaying
  the blocks after the checkpoint reproduces exactly the residual an
  uncrashed run would have produced (property-tested in
  ``tests/test_checkpoint.py``).

A corrupt or truncated snapshot is never fatal on the read path: its
digest fails verification, it is skipped, and the next-newest intact
snapshot (or a cold rebuild) is used instead — a checkpoint store can
lose history, never corrupt a restore.  Format details in
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .. import obs
from ..errors import CheckpointError
from ..faults.monitor import ModeTransition

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "checkpoint_payload",
    "payload_digest",
]

#: Schema identifier carried in every checkpoint's metadata.
CHECKPOINT_SCHEMA = "repro.serving.checkpoint/v1"

#: Array fields of a payload, in canonical (digest) order.
_ARRAY_FIELDS = ("taps", "snapshot_taps", "residuals", "x", "xf",
                 "y_recent", "zi")

_FILE_RE = re.compile(
    r"^session-(?P<sid>\d+)-block-(?P<block>\d+)-(?P<digest>[0-9a-f]{12})"
    r"\.npz$"
)


def checkpoint_payload(session):
    """Snapshot one live session into a plain ``{"meta", "arrays"}`` dict.

    ``meta`` is JSON-able bookkeeping (cursor, lifecycle, degradation
    state machine); ``arrays`` holds the float state (taps, kernel
    snapshot, banked residual).  Every array is a private copy — the
    session keeps running, the payload stays frozen.
    """
    state = session.state.snapshot()
    controller = session.controller
    monitor = controller.monitor
    snapshot_taps = controller._snapshot
    residuals = session.banked_residual().copy()
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "session_id": int(session.session_id),
        "name": session.workload.name,
        "block_index": int(session.block_index),
        "block_size": int(session.block_size),
        "status": session.status,
        "error": session.error,
        "kernel_time": int(state["time"]),
        "has_snapshot_taps": snapshot_taps is not None,
        "controller": {
            "mode": controller.mode,
            "blocks": int(controller._blocks),
            "modes": list(controller.modes),
            "transitions": [{
                "block_index": t.block_index,
                "sample_index": t.sample_index,
                "time_s": t.time_s,
                "from_mode": t.from_mode,
                "to_mode": t.to_mode,
                "state": t.state,
            } for t in controller.transitions],
        },
        "monitor": {
            "baseline_rms": monitor.baseline_rms,
            "state": monitor.state,
            "better_streak": int(monitor._better_streak),
        },
    }
    arrays = {
        "taps": session.filter.taps.copy(),
        "snapshot_taps": (snapshot_taps.copy() if snapshot_taps is not None
                          else np.zeros(0)),
        "residuals": residuals,
        "x": state["x"],
        "xf": state["xf"],
        "y_recent": state["y_recent"],
        "zi": state["zi"],
    }
    return {"meta": meta, "arrays": arrays}


def payload_digest(payload):
    """Deterministic SHA-256 content key of one payload.

    Computed over the canonical JSON of ``meta`` plus the raw bytes of
    every array in fixed order — never over the ``.npz`` container,
    whose zip framing is not byte-stable.  The digest is the content
    address *and* the integrity check the load path verifies.
    """
    hasher = hashlib.sha256()
    hasher.update(json.dumps(payload["meta"], sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))
    for field in _ARRAY_FIELDS:
        arr = np.ascontiguousarray(payload["arrays"][field],
                                   dtype=np.float64)
        hasher.update(b"|" + field.encode("ascii") + b":")
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def _copy_payload(payload):
    return {
        "meta": json.loads(json.dumps(payload["meta"])),
        "arrays": {k: np.array(v, copy=True)
                   for k, v in payload["arrays"].items()},
    }


class CheckpointStore:
    """Content-addressed snapshot store, in memory or on disk.

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
    Disk snapshots are written atomically (full temp file +
    ``os.replace``) and named
    ``session-<id>-block-<block>-<digest12>.npz``; the full digest is
    stored inside and re-verified against the recomputed content hash
    on load, so truncation, bit rot, and partial writes are all caught.
    """

    def __init__(self, directory=None, keep=4):
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory) if directory else None
        self.keep = int(keep)
        self._memory = {}       #: session_id -> [(block, digest, payload)]
        self.saved = 0
        self.corrupt_skipped = 0

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, session):
        """Snapshot ``session`` now; returns the payload's digest."""
        payload = checkpoint_payload(session)
        digest = payload_digest(payload)
        sid = payload["meta"]["session_id"]
        block = payload["meta"]["block_index"]
        if self.directory is None:
            entries = self._memory.setdefault(sid, [])
            entries[:] = [e for e in entries if e[0] != block]
            entries.append((block, digest, _copy_payload(payload)))
            entries.sort(key=lambda e: e[0])
            del entries[:-self.keep]
        else:
            self._disk_store(sid, block, digest, payload)
            self._prune_disk(sid)
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

        Snapshots are tried newest-first; any that fail digest
        verification are skipped (and counted in
        :attr:`corrupt_skipped` plus the
        ``serving.recovery.corrupt_checkpoints`` obs counter) so one
        damaged file degrades recovery to an older snapshot, never to
        an exception.
        """
        if self.directory is None:
            entries = self._memory.get(int(session_id), [])
            for __, digest, payload in reversed(entries):
                if payload_digest(payload) == digest:
                    return _copy_payload(payload)
                self._count_corrupt()
            return None
        for path, digest in self._disk_candidates(int(session_id)):
            payload = self._disk_load(path, digest)
            if payload is not None:
                return payload
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

    # ------------------------------------------------------------------
    # Disk internals
    # ------------------------------------------------------------------
    def _count_corrupt(self):
        self.corrupt_skipped += 1
        if obs.enabled():
            obs.get_registry().counter(
                "serving.recovery.corrupt_checkpoints").inc()

    def _path(self, sid, block, digest):
        return self.directory / (
            f"session-{sid:05d}-block-{block:07d}-{digest[:12]}.npz"
        )

    def _disk_store(self, sid, block, digest, payload):
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = {
            "meta": np.frombuffer(
                json.dumps(payload["meta"], sort_keys=True).encode("utf-8"),
                dtype=np.uint8).copy(),
            "digest": np.frombuffer(digest.encode("ascii"),
                                    dtype=np.uint8).copy(),
        }
        for field in _ARRAY_FIELDS:
            blob[field] = np.ascontiguousarray(payload["arrays"][field],
                                               dtype=np.float64)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **blob)
            os.replace(tmp, self._path(sid, block, digest))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _disk_candidates(self, sid):
        """``(path, digest)`` for ``sid``, newest block first."""
        if not self.directory or not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.glob(f"session-{sid:05d}-block-*.npz"):
            match = _FILE_RE.match(path.name)
            if match and int(match.group("sid")) == sid:
                found.append((int(match.group("block")),
                              match.group("digest"), path))
        found.sort(reverse=True)
        return [(path, digest) for __, digest, path in found]

    def _disk_load(self, path, name_digest):
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                stored = bytes(data["digest"]).decode("ascii")
                arrays = {field: np.array(data[field])
                          for field in _ARRAY_FIELDS}
            payload = {"meta": meta, "arrays": arrays}
            if meta.get("schema") != CHECKPOINT_SCHEMA:
                raise ValueError(f"schema {meta.get('schema')!r}")
            if payload_digest(payload) != stored \
                    or not stored.startswith(name_digest):
                raise ValueError("digest mismatch")
            return payload
        except Exception:
            # Corrupt, truncated, or stale snapshot: skip it; recovery
            # falls back to the next-newest intact one.
            self._count_corrupt()
            return None

    def _prune_disk(self, sid):
        candidates = self._disk_candidates(sid)
        for path, __ in candidates[self.keep:]:
            try:
                path.unlink()
            except OSError:
                pass
