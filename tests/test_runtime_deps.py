"""radartag runs on numpy alone: neither import nor use loads scipy.

The check runs in a fresh interpreter, because other test modules import
scipy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import radartag, radartag.cli
after_import = scipy_modules()

from radartag import ExperimentConfig, SnrConfig, run_trials
from radartag.harness import PILOT_AIDED_SCHEMES, SCHEMES
for scheme in sorted(SCHEMES):
    layout = {}
    if scheme in PILOT_AIDED_SCHEMES:
        layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                      l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
    cfg = ExperimentConfig(scheme=scheme, snr_grid=[SnrConfig(5.0, 10.0)],
                           trials=1, seed=3, **layout)
    run_trials(cfg)
with contextlib.redirect_stdout(io.StringIO()):
    code = radartag.cli.main(["codebook", "check", "--q", "2"])
print(json.dumps({"after_import": after_import, "check_exit": code,
                  "after_use": scipy_modules()}))
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
