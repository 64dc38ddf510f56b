"""Extension experiment — the public edge service (paper §4.3).

One backend DSP server serves several MUTE users, each with a relay near
their own noise source.  The server can fully adapt ``capacity`` clients;
past that it time-shares adaptation round-robin.  The experiment sweeps
the subscriber count and reports per-client cancellation — the
"computation becomes the bottleneck with multiple users" sentence as a
curve.
"""

from __future__ import annotations

import dataclasses

from ...acoustics.geometry import Point, Room
from ...acoustics.rir import RirSettings
from ...core.edge import EdgeAncService, EdgeClient
from ...core.lookahead import align
from ...core.scenario import Scenario
from ...core.secondary_path import estimate_secondary_path
from ...errors import ConfigurationError
from ...hardware.dsp_board import tms320c6713
from ...signals import MaleVoice
from ..reporting import format_table
from .registry import experiment_result

__all__ = ["EdgeResult", "run_edge", "edge_hall_layout"]


def edge_hall_layout(n_clients, sample_rate=8000.0):
    """A hall with ``n_clients`` user/noise/relay triples along its length.

    Every user sits across the hall from their own noise source, with a
    ceiling relay near that source (Figure 10b's relays-on-the-ceiling).
    """
    if not 1 <= n_clients <= 6:
        raise ConfigurationError(
            f"layout supports 1..6 clients, got {n_clients!r}")
    room = Room(14.0, 6.0, 3.5, absorption=0.35)
    triples = []
    for i in range(n_clients):
        x = 1.5 + i * 2.2
        source = Point(x, 0.8, 1.4)
        relay = Point(x + 0.2, 0.6, 2.8)
        client = Point(x + 0.4, 5.0, 1.2)
        triples.append((source, relay, client))
    return room, triples


def _prepare_client(room, source, relay, client, name, waveform,
                    sample_rate, seed):
    scenario = Scenario(
        room=room, source=source, client=client, relays=(relay,),
        sample_rate=sample_rate, rir_settings=RirSettings(max_order=1),
    )
    channels = scenario.build_channels()
    reference, n_future = align(
        channels.h_nr[0].apply(waveform), channels.acoustic_lead_samples[0],
        tms320c6713().total_latency_s, sample_rate, 48)
    s_true = channels.h_se.ir
    estimate = estimate_secondary_path(
        s_true, n_taps=min(s_true.size, 96), probe_duration_s=1.0,
        sample_rate=sample_rate, ambient_noise_rms=0.002, seed=seed)
    return EdgeClient(
        name=name,
        reference=reference,
        disturbance=channels.h_ne.apply(waveform),
        secondary_true=s_true,
        secondary_estimate=estimate.impulse_response,
        n_future=n_future,
    )


@dataclasses.dataclass
class EdgeResult:
    """Per-client cancellation for each subscriber count."""

    by_count: dict        # n_clients -> EdgeServiceResult
    capacity: int

    def report(self):
        rows = []
        for n, service in sorted(self.by_count.items()):
            rows.append((
                n,
                f"{service.adaptation_duty:.2f}",
                f"{service.mean_cancellation_db():.1f}",
                f"{min(service.cancellation_db.values()):.1f}",
            ))
        return format_table(
            ["subscribers", "adaptation duty", "mean dB", "worst client dB"],
            rows,
            title=(f"Extension — edge service with adaptation capacity "
                   f"{self.capacity}"),
        )

    def degradation_db(self):
        """Mean-cancellation change from the smallest to largest count."""
        counts = sorted(self.by_count)
        return (self.by_count[counts[-1]].mean_cancellation_db()
                - self.by_count[counts[0]].mean_cancellation_db())


def run_edge(duration_s=6.0, *, seed=9, scenario=None, capacity=2,
             client_counts=(2, 4, 6)):
    """Sweep the subscriber count at a fixed server capacity.

    The workload is continuous speech (one talker per user's noise
    source): non-stationary, so the time-shared adaptation duty matters
    *persistently*, not just during initial convergence.  (With
    stationary noise the filters converge once and duty barely shows —
    we verified that during development.)

    The hall layout is generated per subscriber count, so ``scenario``
    is accepted only for signature uniformity.
    """
    del scenario  # layout generated per client count
    service = EdgeAncService(capacity=capacity, n_past=256, mu=0.3)
    fs = 8000.0
    by_count = {}
    for n_clients in client_counts:
        room, triples = edge_hall_layout(n_clients, sample_rate=fs)
        clients = []
        for i, (source, relay, client) in enumerate(triples):
            waveform = MaleVoice(sample_rate=fs, level_rms=0.12,
                                 seed=seed + i, speech_fraction=1.0) \
                .generate(duration_s)
            clients.append(_prepare_client(
                room, source, relay, client, f"user{i + 1}", waveform,
                fs, seed + 100 + i))
        by_count[n_clients] = service.serve(clients)
    return experiment_result(
        "edge",
        dict(duration_s=duration_s, seed=seed, capacity=capacity,
             client_counts=tuple(client_counts)),
        EdgeResult(by_count=by_count, capacity=capacity),
    )
