"""Microbenchmarks of the hot computational kernels.

Unlike the figure benches these are true repeated-timing benchmarks:
the LANC sample loop (the per-sample cost a real DSP must sustain), the
image-source RIR builder, GCC-PHAT, and the FM chain.

``test_kernel_backend_sweep`` times every adaptation engine on the
product kernels against the test oracle's per-sample reference walks
(``tests/oracle.py``, see ``docs/KERNELS.md``) and writes the speedup
table to ``BENCH_kernels.json``; the LANC row must clear the 3x
contract.  ``test_resample_sweep`` times the relay's two rate changes
against ``resample_poly``, and ``test_demod_sweep`` the receivers'
zero-phase filter and decimation against ``sosfiltfilt`` then
``resample_poly``; each adds its rows to the same file.
"""

import contextlib
import json

import numpy as np
import pytest

from _bench_utils import BENCH_DIR, time_call, write_bench_json
from repro.acoustics import Point, Room, room_impulse_response
from repro.core import (ApaFilter, LancFilter, LmsFilter,
                        MultiRefLancFilter, RlsFilter, StreamingLanc,
                        gcc_phat)
from repro.signals import WhiteNoise
from repro.wireless import (FmDemodulator, FmModulator, ZeroPhaseDecimator,
                            resample)
from tests import oracle

#: The product kernel must beat the oracle's per-sample walk by at
#: least this much on the LANC sample loop (docs/KERNELS.md).
LANC_SPEEDUP_FLOOR = 3.0

#: And on the RLS walk, whose kernel rides BLAS ``dsymv`` / ``dsyr``
#: symmetric rank-1 updates (see docs/PERFORMANCE.md).
RLS_SPEEDUP_FLOOR = 2.0

#: And the relay's rate changes (8 <-> 96 kHz, 4 s of audio) on the
#: chunked BLAS products must beat ``resample_poly`` by this much.
RESAMPLE_SPEEDUP_FLOOR = 2.0

#: And the receivers' zero-phase low-pass and decimation by 12 (1 s and
#: 4 s at 96 kHz) must beat ``sosfiltfilt`` then ``resample_poly`` by
#: this much.
DEMOD_SPEEDUP_FLOOR = 1.5

#: The two arithmetics a sweep row times: the oracle's reference walks
#: (the "before" leg, labeled ``loop``) and the product (``vector``).
PATHS = {"loop": oracle.reference_paths, "vector": contextlib.nullcontext}


@pytest.fixture(scope="module")
def white_second():
    return WhiteNoise(seed=0, level_rms=0.2).generate(1.0)


@pytest.mark.parametrize("backend", ["loop", "vector"])
def test_lanc_loop_one_second(benchmark, white_second, backend):
    """One second of 8 kHz audio through a 64+512-tap LANC filter."""
    s = np.zeros(8)
    s[2] = 1.0
    d = np.convolve(white_second, np.array([0.0] * 12 + [0.5]))[:8000]

    def run():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        return f.run(white_second, d)

    with PATHS[backend]():
        result = benchmark(run)
    assert np.all(np.isfinite(result.error))


def _sweep_workloads(x, d, s):
    """(name, run) per engine; run() is the timed callable.

    Fresh filter per call — taps mutate, so a shared instance would
    time convergence from different starting points.
    """

    def lanc():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        return f.run(x, d).error

    def streaming():
        f = LancFilter(n_future=64, n_past=512, secondary_path=s, mu=0.1)
        session = StreamingLanc(f, x)
        for i in range(0, d.size, 160):
            session.process(d[i:i + 160])
        return session.residual()

    def lms():
        return LmsFilter(n_taps=128, mu=0.1).run(x, d).error

    def rls():
        return RlsFilter(n_taps=48).run(x, d).error

    def apa():
        return ApaFilter(n_taps=128, order=4, mu=0.2).run(x, d).error

    def multiref():
        f = MultiRefLancFilter(n_futures=[32, 32], n_past=192,
                               secondary_path=s, mu=0.1)
        return f.run([x, np.roll(x, 3)], d).error

    return [("lanc", lanc), ("streaminglanc", streaming), ("lms", lms),
            ("rls", rls), ("apa", apa), ("multiref", multiref)]


def test_kernel_backend_sweep(white_second, report):
    """Every engine, oracle vs product: wall times + speedups -> JSON."""
    s = np.zeros(8)
    s[2] = 1.0
    d = np.convolve(white_second, np.array([0.0] * 12 + [0.5]))[:8000]

    rows = []
    for name, run in _sweep_workloads(white_second, d, s):
        timings = {}
        outputs = {}
        for label, path in PATHS.items():
            with path():
                timing = time_call(run, repeats=3)
            outputs[label] = timing.result
            timings[label] = timing.best_s
        max_dev = float(np.max(np.abs(outputs["vector"] - outputs["loop"])))
        rows.append({
            "engine": name,
            "loop_s": timings["loop"],
            "vector_s": timings["vector"],
            "speedup": timings["loop"] / timings["vector"],
            "max_abs_deviation": max_dev,
        })
        assert max_dev <= 1e-10, f"{name}: kernel vs oracle ({max_dev})"

    path = _update_kernels_json({
        "schema": "repro.bench.kernels/v1",
        "workload": "1 s of white noise at 8 kHz",
        "loop": "tests/oracle.py per-sample reference walk",
        "vector": "repro.core.adaptive.kernels",
        "lanc_speedup_floor": LANC_SPEEDUP_FLOOR,
        "rls_speedup_floor": RLS_SPEEDUP_FLOOR,
        "rows": rows,
    })

    lines = [f"{'engine':<14} {'loop':>9} {'vector':>9} {'speedup':>8}"]
    for row in rows:
        lines.append(f"{row['engine']:<14} {row['loop_s']:>8.3f}s "
                     f"{row['vector_s']:>8.3f}s {row['speedup']:>7.2f}x")
    report("\n".join(lines) + f"\n[written to {path}]")

    by_engine = {row["engine"]: row for row in rows}
    assert by_engine["lanc"]["speedup"] >= LANC_SPEEDUP_FLOOR, \
        f"LANC kernel speedup {by_engine['lanc']['speedup']:.2f}x < " \
        f"{LANC_SPEEDUP_FLOOR}x"
    assert by_engine["rls"]["speedup"] >= RLS_SPEEDUP_FLOOR, \
        f"RLS kernel speedup {by_engine['rls']['speedup']:.2f}x < " \
        f"{RLS_SPEEDUP_FLOOR}x"


def _update_kernels_json(fields):
    """Write ``fields`` over the keys of ``BENCH_kernels.json``.

    The engine sweep and the resample sweep each own their keys of the
    one file, so either can run alone without dropping the other's.
    """
    try:
        document = json.loads((BENCH_DIR / "BENCH_kernels.json").read_text())
    except (OSError, ValueError):
        document = {}
    document.pop("stamp", None)
    return write_bench_json("kernels", dict(document, **fields))


def test_resample_sweep(report):
    """``resample`` vs the oracle's ``resample_poly``, both directions."""
    audio = WhiteNoise(seed=0, level_rms=0.2).generate(4.0)
    rf = resample(audio, 8000, 96000)
    rows = []
    for rate_in, rate_out, x in ((8000, 96000, audio), (96000, 8000, rf)):
        timings = {
            label: time_call(lambda f=f: f(x, rate_in, rate_out),
                             repeats=7, warmup=1)
            for label, f in (("oracle", oracle.resample),
                             ("product", resample))
        }
        scale = max(1.0, float(np.max(np.abs(x))))
        max_dev = float(np.max(np.abs(timings["product"].result
                                      - timings["oracle"].result))) / scale
        rows.append({
            "rates": f"{rate_in} -> {rate_out}",
            "oracle_s": timings["oracle"].best_s,
            "product_s": timings["product"].best_s,
            "speedup": (timings["oracle"].best_s
                        / timings["product"].best_s),
            "max_rel_deviation": max_dev,
        })

    path = _update_kernels_json({"resample": {
        "workload": "4 s of white noise at 8 kHz, and its 96 kHz upsample",
        "oracle": "tests/oracle.py resample (scipy resample_poly)",
        "product": "repro.wireless.fm.resample",
        "speedup_floor": RESAMPLE_SPEEDUP_FLOOR,
        "rows": rows,
    }})
    lines = [f"{'rates':<16} {'oracle':>9} {'product':>9} {'speedup':>8}"]
    for row in rows:
        lines.append(f"{row['rates']:<16} {row['oracle_s'] * 1e3:>7.2f}ms "
                     f"{row['product_s'] * 1e3:>7.2f}ms "
                     f"{row['speedup']:>7.2f}x")
    report("\n".join(lines) + f"\n[written to {path}]")

    for row in rows:
        assert row["max_rel_deviation"] <= 1e-12, \
            f"{row['rates']}: resample vs oracle ({row['max_rel_deviation']})"
        assert row["speedup"] >= RESAMPLE_SPEEDUP_FLOOR, \
            f"{row['rates']}: resample speedup {row['speedup']:.2f}x < " \
            f"{RESAMPLE_SPEEDUP_FLOOR}x"


def test_demod_sweep(report):
    """``ZeroPhaseDecimator`` vs the oracle's ``resample_poly(sosfiltfilt)``."""
    demodulator = FmDemodulator()
    decimator = ZeroPhaseDecimator(demodulator.rf_rate,
                                   demodulator.audio_rate)
    sos = oracle.receiver_sos(demodulator)
    rows = []
    for seconds in (1.0, 4.0):
        x = np.random.default_rng(0).standard_normal(int(96000 * seconds))
        timings = {
            label: time_call(f, repeats=7, warmup=1)
            for label, f in (
                ("oracle", lambda: oracle.zero_phase_decimate(
                    sos, x, 96000.0, 8000.0)),
                ("product", lambda: decimator(x)))
        }
        scale = max(1.0, float(np.max(np.abs(x))))
        max_dev = float(np.max(np.abs(timings["product"].result
                                      - timings["oracle"].result))) / scale
        rows.append({
            "seconds": seconds,
            "oracle_s": timings["oracle"].best_s,
            "product_s": timings["product"].best_s,
            "speedup": (timings["oracle"].best_s
                        / timings["product"].best_s),
            "max_rel_deviation": max_dev,
        })

    path = _update_kernels_json({"demod": {
        "workload": "white noise at 96 kHz, decimated to 8 kHz",
        "oracle": "tests/oracle.py zero_phase_decimate "
                  "(scipy sosfiltfilt, then resample_poly)",
        "product": "repro.wireless.fm.ZeroPhaseDecimator",
        "speedup_floor": DEMOD_SPEEDUP_FLOOR,
        "rows": rows,
    }})
    lines = [f"{'input':<8} {'oracle':>9} {'product':>9} {'speedup':>8}"]
    for row in rows:
        lines.append(f"{row['seconds']:>6.0f} s {row['oracle_s'] * 1e3:>7.2f}ms "
                     f"{row['product_s'] * 1e3:>7.2f}ms "
                     f"{row['speedup']:>7.2f}x")
    report("\n".join(lines) + f"\n[written to {path}]")

    for row in rows:
        assert row["max_rel_deviation"] <= 1e-12, \
            f"{row['seconds']} s: decimator vs oracle " \
            f"({row['max_rel_deviation']})"
        assert row["speedup"] >= DEMOD_SPEEDUP_FLOOR, \
            f"{row['seconds']} s: decimator speedup {row['speedup']:.2f}x " \
            f"< {DEMOD_SPEEDUP_FLOOR}x"


def test_rir_build(benchmark):
    """Third-order image-source RIR for the bench room."""
    room = Room(6.0, 5.0, 3.0, absorption=0.3)

    ir = benchmark(room_impulse_response, room, Point(1.0, 0.8, 1.2),
                   Point(4.5, 2.5, 1.2), 8000.0)
    assert ir.size > 100


def test_gcc_phat_one_second(benchmark, white_second):
    """Relay-selection correlation over 1 s of audio."""
    ear = np.zeros_like(white_second)
    ear[40:] = white_second[:-40]

    lags, corr = benchmark(gcc_phat, white_second, ear, 8000.0)
    assert lags[np.argmax(corr)] > 0


def test_fm_roundtrip_one_second(benchmark, white_second):
    """Modulate + demodulate 1 s of audio at 96 kHz baseband."""
    mod = FmModulator()
    dem = FmDemodulator()

    def roundtrip():
        return dem.demodulate(mod.modulate(white_second))

    out = benchmark(roundtrip)
    assert out.size == white_second.size

