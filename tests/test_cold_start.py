"""Cold start: ``import repro`` loads NumPy only, never SciPy.

SciPy is imported inside the functions that call it, so a process pays
for it only when it runs the relay, room or spectral code.  Each check
runs in a fresh interpreter with ``PYTHONPATH=src`` and a meta-path
finder that notes the ``repro`` frame behind every SciPy import; on
failure the message names that file and line.

* ``import repro``, ``repro list`` and ``repro --help`` load no SciPy.
* The serving runtime (sessions, checkpoints, chaos) calls no SciPy
  function: with the finder refusing SciPy, ``serve-bench --check`` and
  ``chaos-soak`` still pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The child: ``python -c CHILD watch|refuse import|<cli args>``.  It
#: prints ``scipy-importer: <file:line>`` (or ``none``) to stderr last.
CHILD = """
import os, runpy, sys, traceback

mode, command = sys.argv[1], sys.argv[2:]
importers = []


class ScipyWatch:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] != "scipy":
            return None
        frames = [f"{f.filename}:{f.lineno}"
                  for f in traceback.extract_stack()
                  if f"{os.sep}repro{os.sep}" in f.filename]
        importers.append(frames[-1] if frames else name)
        if mode == "refuse":
            raise ImportError(f"SciPy refused: {name} from {importers[-1]}")
        return None


sys.meta_path.insert(0, ScipyWatch())
code = 0
if command == ["import"]:
    import repro
else:
    sys.argv = ["repro", *command]
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print("scipy-importer:", importers[0] if importers else "none",
      file=sys.stderr)
sys.exit(code)
"""


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
