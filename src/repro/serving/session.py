"""Device sessions: the per-user unit the serving runtime advances.

One :class:`DeviceSession` is one MUTE ear-device being served: its
workload (the aligned reference the relay delivers and the disturbance
at the error mic), its adaptive state (a :class:`LancFilter` walked by
one :class:`~repro.core.adaptive.lanc.StreamingLanc` session), and its own
:class:`~repro.faults.DegradationController` watching the reference it
actually received — faults are injected per session through a
:class:`~repro.faults.FaultyRelay`, so one user behind a failing relay
degrades (mute → feedback → passive) without the server treating the
whole batch as sick.

Sessions are deliberately *passive* here: all scheduling (admission,
lock-step blocks, batching) lives in
:class:`~repro.serving.server.SessionServer`.  What a session owns is
exactly the state that must survive between blocks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.adaptive.lanc import LancFilter, StreamingLanc
from ..errors import CheckpointError, ConfigurationError
from ..faults import DegradationController, FaultyRelay
from ..faults.monitor import MODE_LEVEL
from ..signals import WhiteNoise
from ..utils.store import content_key
from ..utils.validation import check_positive, check_positive_int, \
    check_waveform

__all__ = [
    "PENDING",
    "ACTIVE",
    "DONE",
    "FAILED",
    "SHED",
    "SessionConfig",
    "SessionWorkload",
    "SessionResult",
    "DeviceSession",
]

#: Session lifecycle states.
PENDING = "pending"    #: submitted, waiting for admission
ACTIVE = "active"      #: admitted, advancing block by block
DONE = "done"          #: workload fully processed
FAILED = "failed"      #: isolated after kernel divergence
SHED = "shed"          #: deliberately evicted — admission overload, or
#: escalation after exhausting the supervisor's crash-restart budget


def _default_secondary_path():
    """A short speaker→error-mic impulse response (2-sample bulk delay)."""
    s = np.zeros(8)
    s[2] = 1.0
    s[3] = 0.25
    return s


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Adaptive-filter geometry shared by the sessions of one server.

    The batched kernel requires homogeneous geometry
    (``n_future``/``n_past``/secondary-path length) across a batch;
    ``mu``/``normalized``/``leak`` ride along per session.
    """

    n_future: int = 32
    n_past: int = 192
    mu: float = 0.3
    normalized: bool = True
    leak: float = 0.0
    secondary_path: tuple = tuple(_default_secondary_path())
    sample_rate: float = 8000.0

    def secondary(self):
        """The secondary path as an ndarray."""
        return np.asarray(self.secondary_path, dtype=np.float64)

    def geometry_key(self):
        """Hashable batch-compatibility key (what must match to stack)."""
        return (self.n_future, self.n_past, len(self.secondary_path),
                bool(self.normalized), float(self.leak))


@dataclasses.dataclass
class SessionWorkload:
    """One user's signals: the relay reference and the ear disturbance.

    ``reference`` must be aligned to the error-mic time base (the usual
    LANC contract).  The server serves a whole number of blocks —
    lock-step batches never process ragged tails — but the last block's
    anti-causal taps still read the reference samples past it.
    """

    name: str
    reference: np.ndarray
    disturbance: np.ndarray
    fault_plan: object | None = None
    chaos: object | None = None    #: per-session chaos events (repro.chaos)

    def __post_init__(self):
        self.reference = check_waveform("reference", self.reference)
        self.disturbance = check_waveform("disturbance", self.disturbance)
        if self.reference.size != self.disturbance.size:
            raise ConfigurationError(
                "reference and disturbance must have equal length; got "
                f"{self.reference.size} vs {self.disturbance.size}"
            )

    @classmethod
    def synthetic(cls, name, duration_s=1.0, seed=0, sample_rate=8000.0,
                  level_rms=0.2, fault_plan=None, chaos=None):
        """A deterministic per-user workload for benchmarks and tests.

        White noise through a small primary path — each session gets an
        independent stream (seeded by ``seed``), so a batch is N
        *different* users, not N copies of one.
        """
        check_positive("duration_s", duration_s)
        x = WhiteNoise(sample_rate=sample_rate, seed=seed,
                       level_rms=level_rms).generate(duration_s)
        primary = np.array([0.0] * 12 + [0.5])
        d = np.convolve(x, primary)[:x.size]
        return cls(name=name, reference=x, disturbance=d,
                   fault_plan=fault_plan, chaos=chaos)


@dataclasses.dataclass
class SessionResult:
    """What one finished (or isolated) session produced."""

    session_id: int
    name: str
    status: str
    blocks: int                    #: blocks actually processed
    residual: np.ndarray           #: error-mic samples, processed blocks
    disturbance: np.ndarray        #: matching disturbance samples
    mode_fractions: dict           #: degradation-mode occupancy
    transitions: int               #: degradation mode changes
    error: str | None = None      #: isolation reason for FAILED sessions
    breaker: dict | None = None   #: deadline-breaker summary, if attached

    def digest(self):
        """Content key of the residual — the bit-identity fingerprint."""
        return content_key(self.residual)

    def cancellation_db(self):
        """Mean cancellation over the processed samples (dB, >0 = good)."""
        if self.residual.size == 0:
            return 0.0
        p_res = float(np.mean(np.square(self.residual)))
        p_dist = float(np.mean(np.square(self.disturbance)))
        if p_res <= 0.0 or p_dist <= 0.0:
            return 0.0
        return 10.0 * float(np.log10(p_dist / p_res))


class _PassthroughRelay:
    """Identity relay — lets :class:`FaultyRelay` own every fault branch."""

    def forward(self, audio):
        return audio


class DeviceSession:
    """One admitted MUTE device: adaptive state + health watchdog.

    Parameters
    ----------
    session_id:
        Server-assigned ordinal (stable across serial/batched runs).
    workload:
        The user's :class:`SessionWorkload`; its ``fault_plan`` (if
        any) is applied to the *reference* on construction — the
        reference the session adapts on is what the faulty relay
        delivered, exactly like a real degraded link.
    config:
        The server's :class:`SessionConfig`.
    block_size:
        The server's lock-step block length (disturbance and residual
        truncated to a whole number of blocks).
    """

    def __init__(self, session_id, workload, config, block_size):
        self.session_id = int(session_id)
        self.workload = workload
        self.config = config
        self.block_size = check_positive_int("block_size", block_size)
        self.status = PENDING
        self.error = None

        reference = workload.reference
        if workload.fault_plan is not None \
                and not workload.fault_plan.empty:
            relay = FaultyRelay(_PassthroughRelay(), workload.fault_plan,
                                sample_rate=config.sample_rate)
            reference = relay.forward(reference)
        self.n_blocks = reference.size // self.block_size
        span = self.n_blocks * self.block_size
        self.reference = reference[:span]
        self.disturbance = workload.disturbance[:span]

        self.filter = LancFilter(
            n_future=config.n_future, n_past=config.n_past,
            secondary_path=config.secondary(), mu=config.mu,
            normalized=config.normalized, leak=config.leak,
        )
        self.controller = DegradationController(
            self.filter, sample_rate=config.sample_rate)
        # The session is built over the whole delivered reference, also
        # the ragged tail past the last whole block: the final block's
        # anti-causal taps read it.  The server advances its kernel
        # state in batches and banks each block through `record_block`.
        self.stream = StreamingLanc(self.filter, reference)
        self.block_index = 0
        # Resilience attachments, wired by the server at admission:
        # a chaos injector (repro.chaos) carrying this session's
        # scheduled crash/stall events, and a deadline circuit breaker
        # (repro.serving.breaker).  Both survive a supervised restart
        # by reference — CheckpointStore.restore_session carries them
        # onto the replacement, so one-shot crash schedules fire once.
        self.chaos = workload.chaos
        self.breaker = None

    @property
    def done(self):
        """No more whole blocks to process?"""
        return self.block_index >= self.n_blocks

    def next_block(self):
        """``(reference_block, disturbance_block)`` for the next block."""
        lo = self.block_index * self.block_size
        hi = lo + self.block_size
        return self.reference[lo:hi], self.disturbance[lo:hi]

    def gates(self):
        """Observe the upcoming reference block; return ``(adapt, active)``.

        This is the fault-isolation hook: the controller sees what the
        (possibly faulty) relay delivered for *this* session and gates
        only this session's row of the batch.  When a deadline circuit
        breaker is attached, its :meth:`mode_floor` is combined
        worst-wins with the health-driven mode — a session can be
        clamped to ``feedback`` by latency even while its reference is
        perfectly healthy, and vice versa.
        """
        ref_block, __ = self.next_block()
        mode = self.controller.observe(
            ref_block, self.block_index * self.block_size)
        if self.breaker is not None:
            floor = self.breaker.mode_floor()
            if MODE_LEVEL[floor] < MODE_LEVEL[mode]:
                mode = floor
        return self.controller.gates(mode)

    def record_block(self, errors):
        """Bank one processed block of residual and advance the cursor.

        ``errors`` may be a borrowed view into the server's kernel
        arena; the session's bank copies it before the arena is reused
        next tick.
        """
        self.stream.record(errors)
        self.block_index += 1
        if self.done and self.status == ACTIVE:
            self.status = DONE

    def fail(self, reason):
        """Isolate the session after divergence; the batch moves on."""
        self.status = FAILED
        self.error = str(reason)

    def result(self):
        """The session's :class:`SessionResult` (any status)."""
        residual = self.stream.residual().copy()
        return SessionResult(
            session_id=self.session_id,
            name=self.workload.name,
            status=self.status,
            blocks=self.block_index,
            residual=residual,
            disturbance=self.disturbance[:residual.size],
            mode_fractions=self.controller.mode_fractions(),
            transitions=len(self.controller.transitions),
            error=self.error,
            breaker=(self.breaker.summary() if self.breaker is not None
                     else None),
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def apply_checkpoint(self, payload):
        """Overwrite this session's mutable state from a checkpoint payload.

        The payload must come from
        :func:`repro.serving.checkpoint.checkpoint_payload` on a session
        with the same identity and geometry; anything else raises
        :class:`~repro.errors.CheckpointError`.  After application the
        session resumes at the checkpointed block cursor and replays the
        remaining blocks bit-identically to a run that never crashed.
        """
        meta = payload["meta"]
        arrays = payload["arrays"]
        if meta["session_id"] != self.session_id:
            raise CheckpointError(
                f"checkpoint belongs to session {meta['session_id']}, "
                f"not {self.session_id}")
        if meta["name"] != self.workload.name:
            raise CheckpointError(
                f"checkpoint is for workload {meta['name']!r}, "
                f"not {self.workload.name!r}")
        if meta["block_size"] != self.block_size:
            raise CheckpointError(
                f"checkpoint block_size {meta['block_size']} != "
                f"{self.block_size}")
        taps = np.asarray(arrays["taps"], dtype=np.float64)
        if taps.shape != self.filter.taps.shape:
            raise CheckpointError(
                f"checkpoint taps have shape {taps.shape}; this session "
                f"expects {self.filter.taps.shape} (geometry mismatch)")

        self.stream.state.restore({
            "x": arrays["x"],
            "xf": arrays["xf"],
            "time": meta["kernel_time"],
            "y_recent": arrays["y_recent"],
            "zi": arrays["zi"],
        })
        self.filter.set_taps(taps)

        self.controller.restore({**meta["controller"],
                                 "snapshot_taps": arrays.get("snapshot_taps")})

        self.block_index = int(meta["block_index"])
        self.status = meta["status"]
        self.error = meta["error"]
        # The banked residual ends at the restored kernel time.
        self.stream.record(arrays["residuals"])
