"""The four workloads, each a closed loop of requests on the product defaults.

A workload is built once per process (``__init__``), then driven one
request at a time: ``make_input(i)`` generates request ``i``'s input from
the seed (outside every timer), ``call(input)`` is the timed request, and
``check(i, input, output)`` is its correctness probe (outside the timer),
returning an error string or ``None``.  ``repro`` is imported only inside
``__init__`` and the methods, so the caller can time the import.

Why these four: ``fig12`` is the paper's headline path; ``outage`` runs
the same layers streamed block-wise under a fault; ``relay_scan`` is
relay-dominated with no adaptive kernel; ``serve`` is the batched kernel
with no relay and no room acoustics.  A change to one layer should move
the workloads that call it and leave the others unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import TracedRelay

SAMPLE_RATE = 8000.0
LEVEL_RMS = 0.1

#: The request index ``check`` receives for the untimed warm-up request.
WARMUP = -1


def _relay(relay, tracer):
    return relay if tracer is None else TracedRelay(relay, tracer)


def _noise(key, duration_s):
    from repro.signals import WhiteNoise

    return WhiteNoise(sample_rate=SAMPLE_RATE, level_rms=LEVEL_RMS,
                      seed=key).generate(duration_s)


def _samples(position):
    """Span size: the samples in the call's positional argument."""
    return lambda *args: np.size(args[position])


def layer_hooks():
    """Class and module attributes timed in every traced run.

    ``(owner, attribute, span name, size)``; a workload that never calls
    one of them reads 0 for that layer.
    """
    from repro.acoustics.channels import AcousticChannel
    from repro.core.adaptive import kernels
    from repro.core.adaptive.lanc import LancFilter, StreamingLanc
    from repro.core.scenario import Scenario
    from repro.faults.monitor import DegradationController

    return [
        (AcousticChannel, "apply", "acoustics.apply", None),
        (Scenario, "build_channels", "acoustics.build_channels", None),
        (LancFilter, "run", "adaptive.run", _samples(1)),
        (StreamingLanc, "process", "adaptive.stream", _samples(1)),
        # fxlms_block_batch(states, taps, d, mu): d is sessions x block.
        (kernels, "fxlms_block_batch", "adaptive.batch", _samples(2)),
        (DegradationController, "observe", "faults.observe", None),
    ]


class Workload:
    """Shared defaults; subclasses define the request."""

    name = ""
    #: Highest percentile the tail latency is reported at.
    tail = 50
    #: ``quality_db`` averages this many leading results, so it does not
    #: depend on how many requests fit in the run.
    quality_count = 16
    #: Can a request be re-run on its input with the same output?
    repeatable = True
    #: Request index whose input the untimed warm-up request uses.
    warmup_index = 0

    def __init__(self, seed):
        self.seed = int(seed)
        self.quality = []

    def key(self, i):
        """Random-stream key of request ``i`` under this seed."""
        return [self.seed, i % 2 ** 32]

    def instance_hooks(self):
        """Hooks on this workload's own objects (see :func:`layer_hooks`)."""
        return []

    def gauges(self):
        """Counts read after each traced request, or ``None``."""
        return None

    def final_checks(self):
        """Errors (or ``None``) of the probes run once after the loop."""
        return []

    def same(self, a, b):
        """Are two outputs of one input identical?"""
        raise NotImplementedError


class Fig12(Workload):
    """``MuteSystem.run`` on a fresh 4 s white-noise clip (Figure 12)."""

    name = "fig12"
    clip_s = 4.0

    def __init__(self, seed, tracer=None):
        super().__init__(seed)
        from repro.core.system import MuteSystem
        from repro.eval.experiments.common import bench_scenario, \
            default_config
        from repro.wireless.relay import AnalogRelay

        scenario = bench_scenario()
        relay = AnalogRelay(audio_rate=scenario.sample_rate, seed=self.seed)
        self.system = MuteSystem(scenario, default_config(
            relay=_relay(relay, tracer), seed=self.seed))
        self._warm = None

    def make_input(self, i):
        return _noise(self.key(i), self.clip_s)

    def call(self, noise):
        return self.system.run(noise)

    def audio_s(self, noise, out):
        return noise.size / SAMPLE_RATE

    def check(self, i, noise, out):
        if not np.all(np.isfinite(out.residual)):
            return "residual is not finite"
        if i == WARMUP:
            self._warm = out.residual
        elif i == self.warmup_index and self._warm is not None \
                and not np.array_equal(out.residual, self._warm):
            return "a repeat of request 0 is not bit-identical"
        cancel_db = out.mean_cancellation_db(f_high=1000.0)
        error = self._verdict(out, cancel_db)
        if error is None and 0 <= i < self.quality_count:
            self.quality.append(-cancel_db)
        return error

    def _verdict(self, out, cancel_db):
        if not cancel_db < -10.0:
            return f"cancellation {cancel_db:.2f} dB is not below -10 dB"
        return None

    def same(self, a, b):
        return np.array_equal(a.residual, b.residual)

    def instance_hooks(self):
        return [(self.system, "prepare", "core.prepare", None)]


class Outage(Fig12):
    """``run_resilient`` on a 6 s clip with a mid-run relay outage."""

    name = "outage"
    clip_s = 6.0

    def make_input(self, i):
        from repro.faults.events import outage_plan

        return (_noise(self.key(i), self.clip_s),
                outage_plan(self.clip_s, 0.25, seed=i % 2 ** 32))

    def call(self, inp):
        noise, plan = inp
        return self.system.run_resilient(noise, plan, block_size=256)

    def audio_s(self, inp, out):
        return inp[0].size / SAMPLE_RATE

    def _verdict(self, out, cancel_db):
        return None if out.recovered else "the run did not recover"


class RelayScan(Workload):
    """One relay-association decision in the Figure 19 room (§4.2).

    The source cycles through Figure 19's eight positions, jittered so
    that no request reuses a room geometry: every request misses the
    channel cache and builds its room impulse responses.
    """

    name = "relay_scan"
    tail = 90
    quality_count = 64
    clip_s = 1.0
    jitter_m = 0.1
    warmup_index = -1   # not a request's geometry, so none hits the cache

    def __init__(self, seed, tracer=None):
        super().__init__(seed)
        from repro.core.relay_selection import RelaySelector
        from repro.eval.experiments.fig19_relay_map import \
            default_source_positions, relay_map_scenario
        from repro.wireless.relay import AnalogRelay

        self.scenario = relay_map_scenario(SAMPLE_RATE)
        self.positions = list(default_source_positions().values())
        self.relay = _relay(AnalogRelay(audio_rate=SAMPLE_RATE,
                                        seed=self.seed), tracer)
        self.selector = RelaySelector(sample_rate=SAMPLE_RATE,
                                      min_confidence=3.0)

    def make_input(self, i):
        from repro.acoustics.geometry import Point

        base = self.positions[i % len(self.positions)]
        dx, dy, dz = np.random.default_rng(self.key(i)).uniform(
            -self.jitter_m, self.jitter_m, 3)
        source = Point(base.x + dx, base.y + dy, base.z + dz)
        return source, _noise(self.key(i), self.clip_s)

    def call(self, inp):
        from repro.core.system import MuteConfig, MuteSystem

        source, noise = inp
        system = MuteSystem(self.scenario.with_source(source),
                            MuteConfig(probe_secondary=False,
                                       relay=self.relay))
        forwarded, ear = system.forwarded_and_ear_signals(noise)
        return self.selector.select(forwarded, ear, max_lag_s=0.02)

    def audio_s(self, inp, out):
        return inp[1].size / SAMPLE_RATE

    def expected(self, source):
        """The relay geometry says should win: the largest positive lead."""
        d_client = source.distance_to(self.scenario.client)
        best, best_lead = None, 0.0
        for index, relay in enumerate(self.scenario.relays):
            lead = d_client - source.distance_to(relay)
            if lead > best_lead:
                best, best_lead = index, lead
        return best

    def check(self, i, inp, out):
        best, measured = out
        want = self.expected(inp[0])
        if best != want:
            return f"selected relay {best}, geometry says {want}"
        if 0 <= i < self.quality_count:
            peak = max(m.confidence for m in measured.values())
            self.quality.append(20.0 * math.log10(peak))
        return None

    def same(self, a, b):
        return a[0] == b[0] and a[1] == b[1]

    def instance_hooks(self):
        return [(self.selector, "select", "core.select", None)]


class Serve(Workload):
    """One ``SessionServer.tick`` serving 64 users.

    Each user runs 2 s sessions of synthetic audio back to back, a closed
    population: the server starts with 64 sessions whose remaining
    lengths are spread evenly over one session lifetime, as in the steady
    state, and each session that ends is replaced by a fresh one,
    submitted at the start of the next request.  Every tick therefore
    advances 64 sessions, and about one session starts and one ends.
    """

    name = "serve"
    tail = 99
    quality_count = 64
    repeatable = False
    concurrency = 64
    session_s = 2.0
    block = 256

    def __init__(self, seed, tracer=None):
        super().__init__(seed)
        from repro.serving import ServerConfig, SessionServer

        self.server = SessionServer(ServerConfig(max_sessions=96,
                                                 queue_depth=256))
        self.blocks = int(self.session_s * SAMPLE_RATE) // self.block
        self._sessions = 0
        self._due = 0
        for k in range(self.concurrency):
            self.server.submit(self._workload(
                math.ceil(self.blocks * (k + 1) / self.concurrency)))

    def _workload(self, blocks):
        from repro.serving import SessionWorkload

        self._sessions += 1
        return SessionWorkload.synthetic(
            f"user{self._sessions}", seed=self.key(self._sessions),
            duration_s=blocks * self.block / SAMPLE_RATE,
            sample_rate=SAMPLE_RATE)

    def make_input(self, i):
        return [self._workload(self.blocks) for __ in range(self._due)]

    def call(self, arrivals):
        before = self.server.session_blocks
        for workload in arrivals:
            self.server.submit(workload)
        self.server.tick()
        return self.server.session_blocks - before

    def audio_s(self, arrivals, blocks):
        return blocks * self.block / SAMPLE_RATE

    def check(self, i, arrivals, blocks):
        from repro.serving import DONE

        finished = list(self.server.finished)
        self.server.finished.clear()
        self._due = len(finished)
        if self.server.manager.shed_count:
            return f"{self.server.manager.shed_count} session(s) shed"
        for session in finished:
            if session.status != DONE:
                return f"session {session.workload.name} {session.status}"
            if len(self.quality) < self.quality_count:
                self.quality.append(session.result().cancellation_db())
        return None

    def gauges(self):
        return {"active": len(self.server.active),
                "queue": len(self.server.manager.pending)}

    def instance_hooks(self):
        return [(self.server, "submit", "serving.submit", None),
                (self.server, "tick", "serving.tick", None)]

    def final_checks(self):
        """Serial and batched schedules give bit-identical sessions."""
        from repro.serving import ServerConfig, SessionServer, \
            SessionWorkload

        digests = []
        for batched in (False, True):
            server = SessionServer(ServerConfig(batched=batched))
            for k in range(4):
                server.submit(SessionWorkload.synthetic(
                    f"probe{k}", duration_s=0.5, seed=self.key(-2 - k),
                    sample_rate=SAMPLE_RATE))
            digests.append(server.run_until_drained().digests())
        return [None if digests[0] == digests[1]
                else "serial and batched session digests differ"]


WORKLOADS = {w.name: w for w in (Fig12, Serve, RelayScan, Outage)}
