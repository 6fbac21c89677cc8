"""radartag runs on numpy alone: neither import nor use loads scipy.

Nor does a serial run load the process-pool machinery, which only
``workers > 1`` needs.  The check runs in a fresh interpreter, because other
test modules import scipy and the pool into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, sys

POOL_MODULES = ("concurrent.futures.process", "multiprocessing", "socket", "subprocess")

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_modules():
    return [m for m in POOL_MODULES if m in sys.modules]

import radartag, radartag.cli
after_import = scipy_modules()
pool_after_import = pool_modules()

from radartag import ExperimentConfig, SnrConfig, run_trials
from radartag.harness import PILOT_AIDED_SCHEMES, SCHEMES
for scheme in sorted(SCHEMES):
    layout = {}
    if scheme in PILOT_AIDED_SCHEMES:
        layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                      l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
    cfg = ExperimentConfig(scheme=scheme, snr_grid=[SnrConfig(5.0, 10.0)],
                           trials=1, seed=3, **layout)
    run_trials(cfg, workers=1)
pool_after_runs = pool_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = radartag.cli.main(["codebook", "check", "--q", "2"])
print(json.dumps({"after_import": after_import, "check_exit": code,
                  "after_use": scipy_modules(), "pool_after_import": pool_after_import,
                  "pool_after_runs": pool_after_runs}))
"""


def test_import_and_use_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["check_exit"] == 0
    assert report["after_use"] == []
    assert report["pool_after_import"] == []
    assert report["pool_after_runs"] == []
