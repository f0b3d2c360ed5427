"""The traced benchmark run rebinds names in monofilt's modules by attribute.

A refactor that deletes or renames one of them makes the tracer fail at
install; this test turns that into a tier-1 failure.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

SCRIPT = """
import io
from contextlib import redirect_stdout

from tracer import Tracer
from monofilt import cli

tracer = Tracer()
tracer.install()
tracer.check_bindings()
with redirect_stdout(io.StringIO()):
    code = cli.main(["powers", "--mode", "both", "--ideal", "vars: x,y ; ideal: x^2, x*y", "--nmax", "3"])
assert code == 0, code
assert tracer.counts["decomposition.cells_scanned"] > 0
"""


@pytest.mark.skipif(not (BENCH / "tracer.py").exists(), reason="bench/ is absent")
def test_tracer_installs_and_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
