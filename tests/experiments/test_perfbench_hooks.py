"""The repository benchmark's hooks into ``src/`` still resolve.

``perfbench/`` is frozen: its tracer wraps a fixed list of functions and
methods (``FUNCTIONS``/``METHODS``) and its iteration records
``resolve_engine(None)``. A deletion in ``src/`` that drops any of those
names breaks every traced benchmark run, so this test installs the tracer in
a fresh interpreter and fails on the first missing target. It only reads
``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """\
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]

import numpy as np
from tracer import Tracer

tracer = Tracer()
tracer.install()  # raises if any FUNCTIONS/METHODS target is gone

from repro.ipu.engine import KernelPoint, pack_operands, resolve_engine
assert resolve_engine(None) == "numpy", resolve_engine(None)

# a run_points call wrapped under two class names still records one span
from repro.api.executor import make_executor
rng = np.random.default_rng(0)
pa = pack_operands(rng.normal(0, 1, (9000, 8)))
pb = pack_operands(rng.normal(0, 1, (9000, 8)))
executor = make_executor("thread", 2)
tracer.recording = True
executor.run_points(pa, pb, [KernelPoint(16)], (9000, 8))
tracer.recording = False
executor.close()
spans = [s for s in tracer.spans if s[0] == "executor.run_points"]
assert len(spans) == 1, spans
print("ok")
"""


def test_tracer_installs_against_src():
    script = _SCRIPT.format(perfbench=str(REPO_ROOT / "perfbench"),
                            src=str(REPO_ROOT / "src"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=REPO_ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
