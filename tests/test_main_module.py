"""``python -m monofilt`` runs the same command line as ``cli.main``."""

import os
import subprocess
import sys
from pathlib import Path

from monofilt import cli

SRC = Path(__file__).resolve().parent.parent / "src"
IDEAL = "vars: x,y ; ideal: x^2, x*y"


def _module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "monofilt", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_module_prints_what_main_prints(capsys):
    argv = ["powers", "--ideal", IDEAL, "--nmax", "2", "--format", "csv"]
    done = _module(*argv)
    assert done.returncode == 0, done.stderr
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_module_exits_1_on_bad_input():
    done = _module("powers", "--ideal", IDEAL.replace("x*y", "q"), "--nmax", "2", "--format", "csv")
    assert done.returncode == 1
    assert "unknown variable name 'q' (at position 24)" in done.stderr


def test_module_prints_its_version():
    done = _module("--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "monofilt 0.1.0\n"
