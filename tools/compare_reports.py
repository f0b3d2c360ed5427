"""Check that two source trees of monofilt print the same reports.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [--seeds N]

PARENT_SRC and CHANGE_SRC are directories that hold a ``monofilt`` package,
such as the ``src`` directories of two checkouts.  The command lines are
every fixed job of the benchmark workloads (``bench/jobs.py``) and their
seeded jobs for seeds 1..N (default 10), each in the ``json``, ``human`` and
``csv`` formats.  Each side runs all of them through ``monofilt.cli.main`` in
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


def command_lines(seeds: int) -> list:
    """Each job of every workload, fixed ones first, once, in every format."""
    jobs = _load_jobs()
    argvs = []
    for workload in jobs.WORKLOADS:
        argvs += jobs.FIXED[workload]
        for seed in range(1, seeds + 1):
            argvs += jobs.seeded_jobs(workload, seed)
    lines = []
    for argv in argvs:
        at = argv.index("--format") + 1
        for fmt in _FORMATS:
            line = argv[:at] + [fmt] + argv[at + 1 :]
            if line not in lines:
                lines.append(line)
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
