"""Check that two source trees of monofilt print the same reports.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [--seeds N]

PARENT_SRC and CHANGE_SRC are directories that hold a ``monofilt`` package,
such as the ``src`` directories of two checkouts.  The command lines are
every fixed job of the benchmark workloads (``bench/jobs.py``), their seeded
jobs for seeds 1..N (default 10), a 3-variable ``closure`` at ``--nmax`` 1
and 3, a 4-variable ``closure`` at ``--nmax`` 1 and 2, and deeper theorem
``powers`` sweeps, of (x) to ``--nmax`` 300, (x^2, x*y) to 40, (x^2, y^2,
z^2, w^2) to 5, the 3-variable ideal of ``closure`` to 6, where the
certificate search asks for the most colons, and (x^3, y^3) to 24, whose
witness chains are the longest that ``validate`` reads, the commands that
read only the filtrations and ledgers of their sweep: ``epsilon`` of (x^2,
x*y) to 60, of (x*y, y*z, x*z) to 8, whose every level falls back to
the greedy filtration, of (x^2*y, y^2*z, z^2*w, w^2*x) to 4 and of (x^3,
y^3, z^3, x*y*z) to 6, whose torsion lengths walk staircases over two and
three leading variables, and ``cm`` of (x*z, y*z) to 12 and of (x*y, y*z,
x*z) to 6, which exits 1, and ``powers --mode both``, whose two sweeps
share one term system, of (x^3, y^3) to 12 and (x^2, x*y) to 8, each in
the ``json``, ``human`` and ``csv`` formats; then, in
``json``, each command with ``--nmax`` and one of ``--window`` and
``--order-max`` set away from its default, followed by the same command at
every default.  Each side runs all of them through ``monofilt.cli.main`` in
one subprocess, with ``PYTHONHASHSEED=0``.  The change side runs them a second
time in reverse order, in another subprocess, so that output which depends on
the calls made before it in the same process shows.  The script prints the
number of command lines compared, each one whose stdout, stderr or exit code
differs between the two sides, and each one whose output on the change side
differs between the two orders; it exits 1 on any difference.  It uses the
standard library only and writes nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_FORMATS = ("json", "human", "csv")

# Runs in the subprocess: reads a JSON list of argv lists on stdin and
# writes a JSON list of [stdout, stderr, exit code], one per argv.
_RUNNER = """
import contextlib, io, json, sys
from monofilt.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""


def _load_jobs():
    # bench/jobs.py is read, never written: no bytecode cache is left there.
    spec = importlib.util.spec_from_file_location("_bench_jobs", os.path.join(_ROOT, "bench", "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


# No benchmark job sets --window or --order-max, runs closure in three or
# four variables, or sweeps powers past n = 16.  A set line followed by the
# same command at the defaults shows a parser that carries a parsed value
# into a later call.
_SMALL = "vars: x,y ; ideal: x^2, x*y"
_THREE_VARIABLES = "vars: w,z,y ; ideal: z^3*w^2, y^5, z^5, w^4*y^2"
_FOUR_VARIABLES = "vars: w,x,y,z ; ideal: w^2*x, x^3, y^2*z, z^2, w*y"
_DEEP_POWERS = (
    ("vars: x,y ; ideal: x", "300"),
    ("vars: x,y ; ideal: x^2, x*y", "40"),
    ("vars: w,x,y,z ; ideal: x^2, y^2, z^2, w^2", "5"),
    (_THREE_VARIABLES, "6"),
    ("vars: x,y ; ideal: x^3, y^3", "24"),
)
# epsilon and cm read only the filtrations and ledgers of their sweep, never
# a level's Ass or digest.
_TRIANGLE = "vars: x,y,z ; ideal: x*y, y*z, x*z"
_FILTRATIONS_ONLY = (
    ("epsilon", _SMALL, "60"),
    ("epsilon", _TRIANGLE, "8"),
    ("epsilon", "vars: x,y,z,w ; ideal: x^2*y, y^2*z, z^2*w, w^2*x", "4"),
    ("epsilon", "vars: x,y,z ; ideal: x^3, y^3, z^3, x*y*z", "6"),
    ("cm", "vars: x,y,z ; ideal: x*z, y*z", "12"),
    ("cm", _TRIANGLE, "6"),
)
# The naive and theorem sweeps of one command share the per-level Ass.
_BOTH_MODES = (("vars: x,y ; ideal: x^3, y^3", "12"), (_SMALL, "8"))
_SET_AWAY = (
    ("powers", "--window", "2"),
    ("powers", "--order-max", "1"),
    ("ass", "--window", "2"),
    ("superficial", "--order-max", "1"),
    ("closure", "--window", "2"),
    ("closure", "--order-max", "1"),
    ("epsilon", "--order-max", "1"),
    ("cm", "--order-max", "1"),
)


def command_lines(seeds: int) -> list:
    """Each job of every workload, fixed ones first, once, in every format; then the option pairs."""
    jobs = _load_jobs()
    argvs = []
    for workload in jobs.WORKLOADS:
        argvs += jobs.FIXED[workload]
        for seed in range(1, seeds + 1):
            argvs += jobs.seeded_jobs(workload, seed)
    argvs += [["closure", "--ideal", _THREE_VARIABLES, "--nmax", n, "--format", "json"] for n in "13"]
    argvs += [["closure", "--ideal", _FOUR_VARIABLES, "--nmax", n, "--format", "json"] for n in "12"]
    argvs += [["powers", "--mode", "theorem", "--ideal", text, "--nmax", n, "--format", "json"]
              for text, n in _DEEP_POWERS]
    argvs += [[command, "--ideal", text, "--nmax", n, "--format", "json"]
              for command, text, n in _FILTRATIONS_ONLY]
    argvs += [["powers", "--mode", "both", "--ideal", text, "--nmax", n, "--format", "json"]
              for text, n in _BOTH_MODES]
    lines = []
    for argv in argvs:
        at = argv.index("--format") + 1
        for fmt in _FORMATS:
            line = argv[:at] + [fmt] + argv[at + 1 :]
            if line not in lines:
                lines.append(line)
    for command, option, value in _SET_AWAY:
        at_defaults = [command, "--ideal", _SMALL, "--format", "json"]
        lines += [at_defaults + ["--nmax", "3", option, value], at_defaults]
    return lines


def run_side(src: str, lines: list) -> list:
    """[stdout, stderr, exit code] of each command line, run from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("MONOFILT_JOBS", None)
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER], input=json.dumps(lines), env=env,
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"compare_reports: the run from {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _differences(lines: list, ours: list, theirs: list, verb: str) -> list:
    """One text per command line whose stdout, stderr or exit code is not the same in both runs."""
    texts = []
    for line, a, b in zip(lines, ours, theirs):
        parts = [name for name, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
        if parts:
            texts.append(f"{', '.join(parts)} {verb}: monofilt {' '.join(line)}")
    return texts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="directory holding the parent's monofilt package")
    parser.add_argument("change_src", help="directory holding the change's monofilt package")
    parser.add_argument("--seeds", type=int, default=10, help="seeded jobs for seeds 1..N")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isfile(os.path.join(src, "monofilt", "cli.py")):
            parser.error(f"{src} holds no monofilt package")
    lines = command_lines(args.seeds)
    parent = run_side(args.parent_src, lines)
    change = run_side(args.change_src, lines)
    reversed_change = run_side(args.change_src, lines[::-1])[::-1]
    differing = _differences(lines, parent, change, "differ")
    order_dependent = _differences(lines, change, reversed_change, "differ between the two orders")
    print(f"{len(lines)} command lines compared, {len(differing)} differ, "
          f"{len(order_dependent)} depend on the order of the calls")
    for text in differing + order_dependent:
        print(text)
    return 1 if differing or order_dependent else 0


if __name__ == "__main__":
    sys.exit(main())
