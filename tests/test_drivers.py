"""The LANC drivers agree: one workload through every driver.

Algorithm 1 has one kernel walk (``kernels.fxlms_block``) but several
drivers around it.  On one bench workload they must produce the same
residual:

* ``MuteSystem.run`` (the whole signal as one block) and
  ``MuteSystem.run_resilient`` with no faults (256-sample blocks behind
  the degradation controller) agree bit for bit;
* a ``SessionServer``, serial or batched, fed the prepared reference and
  disturbance, agrees with ``run`` to ≤ 1e-10 over the samples it
  serves (the batched kernel sums in a different order).

The clip is 0.77 s, not a whole number of 256-sample blocks, so the
signal's end — where the anti-causal taps read past the data — is
exercised by every driver.

Differences kept on purpose:

* serving truncates a workload to whole blocks, and ``SessionConfig``
  carries one secondary path for both the estimate and the physical
  path, so the system here uses the exact path (``probe_secondary=False``);
* ``run_resilient`` reports the antinoise as heard at the error mic
  (``residual − disturbance``), not the speaker drive ``run`` returns;
* ``OnlineMuteDevice`` aligns the reference by the lag it measures with
  GCC-PHAT rather than the known acoustic lead, so it does not see this
  workload's reference; it walks the same ``StreamingLanc`` session
  that ``run_resilient`` covers here, one session per relay assignment.
"""

import numpy as np
import pytest

from repro.core.system import MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.serving import (
    ServerConfig,
    SessionConfig,
    SessionServer,
    SessionWorkload,
)
from repro.signals import WhiteNoise

BLOCK = 256
CLIP_S = 0.77           # 6160 samples: 24 whole blocks plus a 16-sample tail
TOL = 1e-10


@pytest.fixture(scope="module")
def system():
    return MuteSystem(bench_scenario(),
                      default_config(probe_secondary=False))


@pytest.fixture(scope="module")
def noise():
    return WhiteNoise(level_rms=0.1, seed=5).generate(CLIP_S)


def test_whole_signal_run_equals_resilient_blocks(system, noise):
    assert noise.size % BLOCK != 0
    whole = system.run(noise)
    blocks = system.run_resilient(noise, None, block_size=BLOCK)
    assert set(blocks.modes) == {"mute"}
    assert np.array_equal(whole.residual, blocks.residual)


@pytest.mark.parametrize("batched", [False, True])
def test_session_server_matches_whole_signal_run(system, noise, batched):
    prepared = system.prepare(noise)
    cfg = system.config
    server = SessionServer(ServerConfig(
        block_size=BLOCK, batched=batched, max_sessions=2,
        session=SessionConfig(
            n_future=prepared.n_future, n_past=cfg.n_past, mu=cfg.mu,
            leak=cfg.leak,
            secondary_path=tuple(prepared.secondary_path_true),
            sample_rate=system.sample_rate)))
    # Two sessions, so the batched server stacks a real batch.
    for name in ("a", "b"):
        server.submit(SessionWorkload(name, prepared.reference,
                                      prepared.disturbance_at_ear))
    report = server.run_until_drained()

    expected = system.run(noise).residual
    served = (noise.size // BLOCK) * BLOCK
    for result in report.results:
        assert result.residual.size == served
        np.testing.assert_allclose(result.residual, expected[:served],
                                   atol=TOL, rtol=0)
