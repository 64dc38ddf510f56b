"""Ablation — analog forwarding vs digital packet relays (paper §4.1).

"MUTE embraces an analog design to bypass delays from digitization and
processing."  This bench quantifies the claim: the same bench scene and
noise, forwarded by (a) the analog FM relay, which removes its ~0.1 ms
group delay and delivers an aligned stream, (b) an aggressive 2 ms-frame
digital link, and (c) a Bluetooth-class 10 ms-frame link.  The delay a
link leaves in its stream is charged once, against the acoustic lead:
the reference stays aligned and LANC loses anti-causal taps, not
cancellation — until the delay eats the lead and the system cannot run
at all.
"""

import numpy as np
from _bench_utils import run_once

from repro.core import MuteConfig, MuteSystem
from repro.errors import LookaheadError
from repro.eval.experiments import bench_scenario
from repro.eval.reporting import format_table
from repro.signals import WhiteNoise
from repro.wireless import AnalogRelay
from repro.wireless.digital import (
    bluetooth_like_relay,
    low_latency_digital_relay,
)


def run_ablation(duration_s=8.0, seed=7):
    scenario = bench_scenario()
    fs = scenario.sample_rate
    noise = WhiteNoise(sample_rate=fs, level_rms=0.1, seed=seed) \
        .generate(duration_s)

    relays = {
        "analog FM (the paper's)": AnalogRelay(seed=seed,
                                               mic_noise_rms=5e-4),
        "digital, 2 ms frames": low_latency_digital_relay(fs),
        "digital, 10 ms frames (BT-class)": bluetooth_like_relay(fs),
    }
    rows = []
    outcomes = {}
    for label, relay in relays.items():
        system = MuteSystem(scenario, MuteConfig(
            relay=relay, mu=0.1, n_past=512, n_future=64,
            probe_noise_rms=0.002))
        budget = system.lookahead_budget
        try:
            run = system.run(noise)
            mean_db = run.mean_cancellation_db(settle_fraction=0.5)
            rows.append((label,
                         f"{relay.latency_samples / fs * 1e3:.2f}",
                         f"{budget.usable_lookahead_s * 1e3:.2f}",
                         run.n_future_used,
                         f"{mean_db:.1f}"))
            outcomes[label] = (run.n_future_used, mean_db)
        except LookaheadError:
            rows.append((label,
                         f"{relay.latency_samples / fs * 1e3:.2f}",
                         f"{budget.usable_lookahead_s * 1e3:.2f}",
                         "-", "cannot run"))
            outcomes[label] = (0, np.inf)
    table = format_table(
        ["relay", "delivered delay (ms)", "usable lookahead (ms)",
         "N future taps", "cancellation (dB)"],
        rows,
        title="Ablation — analog vs digital forwarding",
    )
    return table, outcomes


def test_analog_vs_digital(benchmark, report):
    table, outcomes = run_once(benchmark, run_ablation)
    report(table)

    analog_n, analog_db = outcomes["analog FM (the paper's)"]
    fast_n, fast_db = outcomes["digital, 2 ms frames"]
    bt_n, bt_db = outcomes["digital, 10 ms frames (BT-class)"]
    # Latency strictly eats anti-causal taps...
    assert analog_n > fast_n > bt_n
    # ...and the Bluetooth-class link is clearly worse than analog.
    assert bt_db > analog_db + 2.0 or not np.isfinite(bt_db)
