"""Cold start: ``import repro`` loads NumPy only, never SciPy.

SciPy is imported inside the functions that call it, so a process pays
for it only when it runs the room, relay, spectral or kernel code.  Each
check runs in a fresh interpreter with ``PYTHONPATH=src`` and a
meta-path finder that notes the ``repro`` frame behind every SciPy (or
``scipy.signal``) import; on failure the message names that file and
line.

* ``import repro``, ``repro list`` and ``repro --help`` load no SciPy.
* The serving runtime (sessions, checkpoints, chaos) calls no SciPy
  function: with the finder refusing SciPy, ``serve-bench --check`` and
  ``chaos-soak`` still pass.  Nor does a relay decision in the Figure
  19 room: the relay chain's FFTs are ``np.fft``.
* ``MuteSystem.run`` with an ``AnalogRelay`` loads no SciPy package:
  the kernels' BLAS walks load SciPy's ``_fblas`` extension alone,
  without the ``scipy`` and ``scipy.linalg`` package init.  A LANC run
  and ``scipy.linalg.blas`` share that one module, whichever loads it
  first.
* Only the three IIR noise generators load ``scipy.signal``: with the
  finder refusing it alone, a relay decision in the Figure 19 room, a
  ``MuteSystem.run`` with an ``AnalogRelay`` and its per-request probe
  (``mean_cancellation_db``), the spectra, the relay's coherence SNR,
  the earcup, ear and Bose designs, the Wiener bound and the
  resampler's refusal of a two-factor rate pair still pass.
* ``import repro.eval.experiments`` loads none of the serving, chaos and
  fault layers, nor :mod:`multiprocessing`: each runner imports its
  layer when it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The child: ``python -c CHILD watch|refuse|refuse-signal
#: import|exec <code>|<cli args>``.  ``watch`` and ``refuse`` watch every
#: SciPy module, ``refuse-signal`` only ``scipy.signal``.  It prints
#: ``scipy-importer: <file:line>`` (or ``none``) to stderr last.
CHILD = """
import os, runpy, sys, traceback

mode, command = sys.argv[1], sys.argv[2:]
watched = "scipy.signal" if mode == "refuse-signal" else "scipy"
importers = []


class ScipyWatch:
    def find_spec(self, name, path=None, target=None):
        if name != watched and not name.startswith(watched + "."):
            return None
        frames = [f"{f.filename}:{f.lineno}"
                  for f in traceback.extract_stack()
                  if f"{os.sep}repro{os.sep}" in f.filename]
        importers.append(frames[-1] if frames else name)
        if mode != "watch":
            raise ImportError(f"{watched} refused: {name} from "
                              f"{importers[-1]}")
        return None


sys.meta_path.insert(0, ScipyWatch())
code = 0
try:
    if command == ["import"]:
        import repro
    elif command[0] == "exec":
        exec(command[1], {})
    else:
        sys.argv = ["repro", *command]
        runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    code = exc.code
except Exception:
    traceback.print_exc()
    code = 1
print("scipy-importer:", importers[0] if importers else "none",
      file=sys.stderr)
sys.exit(code)
"""

#: One relay-association decision in the Figure 19 room (§4.2).
RELAY_DECISION = """
from repro.core.relay_selection import RelaySelector
from repro.core.system import MuteConfig, MuteSystem
from repro.eval.experiments.fig19_relay_map import relay_map_scenario
from repro.signals import WhiteNoise
from repro.wireless import AnalogRelay

relay = AnalogRelay(audio_rate=8000.0, seed=1)
system = MuteSystem(relay_map_scenario(8000.0),
                    MuteConfig(probe_secondary=False, relay=relay))
noise = WhiteNoise(sample_rate=8000.0, level_rms=0.1, seed=1).generate(0.5)
forwarded, ear = system.forwarded_and_ear_signals(noise)
best, measured = RelaySelector(sample_rate=8000.0).select(
    forwarded, ear, max_lag_s=0.02)
assert measured, "no relay measured"
"""

#: The headline path: ``MuteSystem.run`` on the bench with the FM relay.
HEADLINE_RUN = """
import numpy as np

from repro.core.system import MuteSystem
from repro.eval.experiments.common import bench_scenario, default_config
from repro.signals import WhiteNoise
from repro.wireless import AnalogRelay

scenario = bench_scenario()
relay = AnalogRelay(audio_rate=scenario.sample_rate, seed=1)
system = MuteSystem(scenario, default_config(relay=relay, seed=1))
noise = WhiteNoise(sample_rate=scenario.sample_rate, level_rms=0.1,
                   seed=1).generate(1.0)
result = system.run(noise)
assert np.all(np.isfinite(result.residual))
assert result.mean_cancellation_db(f_high=1000.0) < -5.0
"""

#: The spectra, designs, responses and convolutions off ``scipy.signal``.
SPECTRA_AND_DESIGNS = """
from repro.core.baselines import BoseHeadphone
from repro.core.optimal import wiener_lanc
from repro.errors import ConfigurationError
from repro.hardware.ear import EarCanalCoupling
from repro.signals import WhiteNoise
from repro.utils.spectral import band_energy_signature, spectrogram, welch_psd
from repro.wireless import AnalogRelay, resample

x = WhiteNoise(sample_rate=8000.0, level_rms=0.1, seed=1).generate(1.0)
welch_psd(x, 8000.0)
band_energy_signature(x, 8000.0)
spectrogram(x, 8000.0)
assert AnalogRelay(seed=1).audio_snr_db(x) > 20.0
ear = EarCanalCoupling()
ear.drum_pressure(x, -x)
ear.mismatch_residual_db([100.0, 1000.0])
BoseHeadphone().residual_waveform(x)
wiener_lanc(x, x, [1.0, 0.5], 4, 16)
try:
    resample(x, 44100, 8000)
except ConfigurationError as exc:
    assert "(80)" in str(exc) and "(441)" in str(exc), exc
else:
    raise AssertionError("resample ran a two-factor rate pair")
"""

#: The extension layers ``import repro.eval.experiments`` must not load.
EXTENSION_LAYERS = ("repro.chaos", "repro.serving", "repro.faults",
                    "multiprocessing")


def _importer(proc):
    """The ``file:line`` (or ``none``) the child printed last."""
    return proc.stderr.strip().splitlines()[-1].split(": ", 1)[1]


def _child(mode, *command):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", CHILD, mode, *command],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)


@pytest.mark.parametrize("command", [["import"], ["list"], ["--help"]],
                         ids=["import", "list", "help"])
def test_cold_start_loads_no_scipy(command):
    proc = _child("watch", *command)
    assert proc.returncode == 0, proc.stderr
    importer = proc.stderr.strip().splitlines()[-1]
    what = "import repro" if command == ["import"] else \
        "repro " + " ".join(command)
    assert importer == "scipy-importer: none", (
        f"{what} loaded SciPy; the first import came from "
        f"{importer.split(': ', 1)[1]}")


def test_serving_runs_without_scipy():
    serve = _child("refuse", "serve-bench", "--sessions", "4",
                   "--duration", "0.2", "--check")
    assert serve.returncode == 0, serve.stderr
    assert "serial == batched digests: OK" in serve.stdout

    soak = _child("refuse", "chaos-soak", "--sessions", "4",
                  "--duration", "0.3", "--crash-prob", "1.0")
    assert soak.returncode == 0, soak.stderr
    assert " 0 mismatch(es)" in soak.stdout


def test_relay_decision_runs_without_scipy():
    proc = _child("refuse", "exec", RELAY_DECISION)
    assert _importer(proc) == "none", (
        f"a relay decision imported SciPy from {_importer(proc)}:\n"
        f"{proc.stderr}")
    assert proc.returncode == 0, proc.stderr


def test_headline_run_loads_only_scipy_linalg():
    proc = _child("watch", "exec",
                  HEADLINE_RUN + "import sys\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith(('scipy.fft', 'scipy.special'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", (
        f"MuteSystem.run loaded {proc.stdout.strip()}")
    assert f"kernels{os.sep}vector.py:" in _importer(proc), (
        f"the first SciPy import came from {_importer(proc)}, not the "
        f"kernels")


def test_headline_run_loads_no_scipy_package():
    proc = _child("watch", "exec",
                  HEADLINE_RUN + "import sys\n"
                  "print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._fblas']", (
        f"MuteSystem.run loaded {proc.stdout.strip()}")


#: A LANC walk, then SciPy's own BLAS module: both use one ``_fblas``,
#: and the Wiener bound's ``scipy.linalg`` still runs.
LANC_THEN_SCIPY = """
import sys

import numpy as np

from repro.core import LancFilter
from repro.core.adaptive.kernels import vector
from repro.core.optimal import wiener_lanc

x = np.random.default_rng(1).standard_normal(4000)
d = np.roll(x, 3)
LancFilter(2, 16, [0.0, 1.0], mu=0.1).run(x, d)
assert "scipy.linalg" not in sys.modules
fblas = sys.modules["scipy.linalg._fblas"]
import scipy.linalg.blas

assert scipy.linalg.blas.ddot is fblas.ddot
assert vector._fblas() is fblas
wiener_lanc(x, d, [0.0, 1.0], 2, 16)
"""

#: SciPy's BLAS module first: the walks reuse its ``_fblas``.
SCIPY_THEN_LANC = """
import sys

import numpy as np
import scipy.linalg.blas

from repro.core import LancFilter
from repro.core.adaptive.kernels import vector

fblas = sys.modules["scipy.linalg._fblas"]
x = np.random.default_rng(1).standard_normal(4000)
LancFilter(2, 16, [0.0, 1.0], mu=0.1).run(x, np.roll(x, 3))
assert vector._fblas() is fblas
assert sys.modules["scipy.linalg._fblas"] is fblas
"""


@pytest.mark.parametrize("flow", [LANC_THEN_SCIPY, SCIPY_THEN_LANC],
                         ids=["lanc-first", "scipy-first"])
def test_walks_and_scipy_linalg_share_one_fblas(flow):
    proc = _child("watch", "exec", flow)
    assert proc.returncode == 0, proc.stderr


def _run_refusing_signal(flow, what):
    proc = _child("refuse-signal", "exec", flow)
    assert _importer(proc) == "none", (
        f"{what} imported scipy.signal from {_importer(proc)}:\n"
        f"{proc.stderr}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flow", [RELAY_DECISION, HEADLINE_RUN],
                         ids=["relay-decision", "headline-run"])
def test_relay_paths_run_without_scipy_signal(flow):
    _run_refusing_signal(flow, "the relay path")


def test_spectra_and_designs_run_without_scipy_signal():
    _run_refusing_signal(SPECTRA_AND_DESIGNS, "a spectrum or design")


def test_experiments_package_loads_no_extension_layer():
    proc = _child("watch", "exec",
                  "import sys, repro.eval.experiments\n"
                  f"print([m for m in {EXTENSION_LAYERS!r} "
                  "if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", (
        f"import repro.eval.experiments loaded {proc.stdout.strip()}")
