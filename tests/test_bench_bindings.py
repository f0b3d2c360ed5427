"""The traced benchmark run rebinds names in monofilt's modules by attribute.

A refactor that deletes or renames one of them makes the tracer fail at
install; this test turns that into a tier-1 failure.  It also pins that the
sweeps of ``cm`` and ``epsilon`` run inside traced spans: one report, one
``validate`` per level, no digest and one check per command; and that a
``powers`` report in the ``human`` format computes no digest and no Ass.
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
assert tracer.counts["powers.engine.glue_nodes"] > 0, tracer.counts
with redirect_stdout(io.StringIO()):
    code = cli.main(["powers", "--ideal", "vars: x,y ; ideal: x^2*y, x*y^2", "--nmax", "2"])
assert code == 0, code
assert tracer.counts["powers.engine.fallback_nodes"] > 0, tracer.counts
with redirect_stdout(io.StringIO()):
    code = cli.main(["powers", "--mode", "naive", "--ideal", "vars: x,y ; ideal: x^3, y^3", "--nmax", "3"])
assert code == 0, code
assert tracer.counts["filtration.cells_scanned"] > 0, tracer.counts
with redirect_stdout(io.StringIO()):
    code = cli.main(["closure", "--ideal", "vars: x,y ; ideal: x^3, y^3", "--nmax", "3"])
assert code == 0, code
assert tracer.calls["closure.integral_closure_power"] > 0, tracer.calls
assert tracer.counts["closure.cells_scanned"] > 0, tracer.counts
# cm and epsilon run their sweep and their check inside traced spans.
for command, nmax, check in (
    ("cm", 3, "filtration.cm_certificate"),
    ("epsilon", 4, "epsilon.filtration_bound_check"),
):
    before = tracer.calls.copy()
    with redirect_stdout(io.StringIO()):
        code = cli.main([command, "--ideal", "vars: x,y ; ideal: x^2, x*y", "--nmax", str(nmax)])
    assert code == 0, code
    calls = tracer.calls - before
    assert calls["powers.powers_report"] == 1, (command, calls)
    assert calls["filtration.validate"] == nmax, (command, calls)
    assert calls["powers.filtration_digest"] == 0, (command, calls)
    assert calls[check] == 1, (command, calls)
# A powers report printed for people computes no per-level Ass or digest.
before = tracer.calls.copy()
with redirect_stdout(io.StringIO()):
    code = cli.main(["powers", "--ideal", "vars: x,y ; ideal: x^2, x*y", "--nmax", "3", "--format", "human"])
assert code == 0, code
calls = tracer.calls - before
assert calls["powers.powers_report"] == 1, calls
assert calls["powers.filtration_digest"] == 0, calls
assert calls["decomposition.associated_primes"] == 0, calls
"""


@pytest.mark.skipif(not (BENCH / "tracer.py").exists(), reason="bench/ is absent")
def test_tracer_installs_and_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
