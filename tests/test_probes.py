"""Every target that the traced benchmark run wraps exists in the package.

`bench/probes.py` skips a target that is gone and reports the metrics behind
it as absent, so a traced run's result line would lack a declared per-layer
metric.  This installs the tracer in a fresh process (it rebinds module
attributes) and reads `bench/` without changing it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bdsweyl

ROOT = Path(__file__).parents[1]

INSTALL = """
import json
from probes import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps({"absent": tracer.metrics()[1], "missing": tracer.missing}))
"""


def test_every_probe_target_exists():
    path = os.pathsep.join([str(Path(bdsweyl.__file__).parents[1]), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", INSTALL], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"absent": [], "missing": []}
