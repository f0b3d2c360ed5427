"""Compare the peak RSS of two source trees of monofilt under several directory names.

    python3 tools/peak_probe.py PARENT_ROOT CHANGE_ROOT [--runs N] [--workload W ...]

PARENT_ROOT and CHANGE_ROOT are checkouts, each holding ``src/`` and
``bench/``.  The benchmark's ``peak_rss_mb`` is the ``ru_maxrss`` of a
runner that imports monofilt from source, and the heap layout left by that
import moves it in steps of about 0.1 MB that depend on the source text and
on the name of the checkout's directory, not on memory the program keeps.
This probe tells the two apart.

It copies ``src/`` and ``bench/`` of each tree into a temporary directory
under each of several pairs of directory names.  For each workload it runs
each copy's ``bench/runner.py`` N times (default 5) on the workload's job
list at the benchmark's default seed, alternating which side runs first,
and prints the median ``peak_rss_kb`` of each side for each name pair.  A
second process per copy and workload repeats the runner's set-up (importing
monofilt and parsing every job's input) and prints the peak RSS at its end,
then runs the jobs under ``tracemalloc`` and prints the largest Python heap
peak of one job; that peak does not depend on the heap layout.  Every run
uses ``PYTHONHASHSEED=0`` and ``PYTHONDONTWRITEBYTECODE=1``.  The probe uses
the standard library only and writes nothing in either tree; the temporary
directory is removed at exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# Directory-name pairs (parent, change): equal and unequal lengths, short
# and long, one nested.
NAME_PAIRS = (("base", "vard"), ("pa", "ch"), ("parent_tree", "change_tree"), ("a/repo", "b/repo"))

# Runs in the second process, from the copy's root: the runner's set-up, the
# peak RSS after it, then each job under tracemalloc.  Reads the job list on
# stdin and writes [set-up peak KB, largest job peak KB, exit codes].
_PROBE = """
import contextlib, io, json, os, resource, sys, tracemalloc
jobs = json.load(sys.stdin)
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import runner
import monofilt
from monofilt import cli
for argv in jobs:
    monofilt.parse_problem(argv[argv.index("--ideal") + 1])
runner.calibrate()
setup_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracemalloc.start()
largest, codes = 0, []
for argv in jobs:
    tracemalloc.reset_peak()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
    largest = max(largest, tracemalloc.get_traced_memory()[1])
json.dump([setup_kb, largest / 1024, codes], sys.stdout)
"""


def _environment() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MONOFILT_JOBS"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _job_lists(root: str) -> dict:
    """{workload: [argv, ...]} at the default seed, from the tree's bench/jobs.py."""
    spec = importlib.util.spec_from_file_location("_probe_jobs", os.path.join(root, "bench", "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return {
        workload: [argv for argv, _ in module.workload_jobs(workload, module.DEFAULT_SEED)]
        for workload in module.WORKLOADS
    }


def _run(copy: str, args: list, stdin: str) -> str:
    done = subprocess.run(
        [sys.executable, *args], input=stdin, cwd=copy, env=_environment(),
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"peak_probe: a run in {copy} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def runner_peak_kb(copy: str, jobs: list) -> int:
    """peak_rss_kb of one repetition of the copy's bench/runner.py in time mode."""
    request = {"root": copy, "jobs": jobs, "mode": "time"}
    result = json.loads(_run(copy, [os.path.join(copy, "bench", "runner.py")], json.dumps(request)))
    if any(job["code"] != 0 for job in result["jobs"]):
        raise SystemExit(f"peak_probe: a job failed in {copy}")
    return result["peak_rss_kb"]


def probe(copy: str, jobs: list) -> tuple:
    """(peak RSS KB after set-up, largest traced Python peak KB of one job)."""
    setup_kb, largest_kb, codes = json.loads(_run(copy, ["-c", _PROBE], json.dumps(jobs)))
    if any(code != 0 for code in codes):
        raise SystemExit(f"peak_probe: a job failed in {copy}")
    return setup_kb, largest_kb


def _copy_tree(root: str, copy: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".bench_out")
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(root, part), os.path.join(copy, part), ignore=ignore)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", help="checkout of the parent, holding src/ and bench/")
    parser.add_argument("change_root", help="checkout of the change, holding src/ and bench/")
    parser.add_argument("--runs", type=int, default=5, help="runner repetitions per side and name pair")
    parser.add_argument("--workload", action="append", help="workload to probe (default: every one)")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_root), "change": os.path.abspath(args.change_root)}
    for root in roots.values():
        for part in ("src/monofilt/cli.py", "bench/runner.py", "bench/jobs.py"):
            if not os.path.isfile(os.path.join(root, part)):
                parser.error(f"{root} has no {part}")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    jobs = {side: _job_lists(root) for side, root in roots.items()}
    workloads = args.workload or list(jobs["parent"])
    for workload in workloads:
        if workload not in jobs["parent"] or workload not in jobs["change"]:
            parser.error(f"unknown workload {workload!r}")

    with tempfile.TemporaryDirectory(prefix="peak_probe_") as tmp:
        copies = []
        for index, names in enumerate(NAME_PAIRS):
            pair = {}
            for side, name in zip(roots, names):
                pair[side] = os.path.join(tmp, str(index), name)
                _copy_tree(roots[side], pair[side])
            copies.append(pair)
        print(f"KB; parent and change: median peak_rss_kb of {args.runs} runner runs; set-up: "
              "peak RSS after set-up; traced: largest Python heap peak of one job")
        for workload in workloads:
            print(f"\n{workload}")
            print(f"  {'names':<26}{'parent':>8}{'change':>8}{'diff':>7}"
                  f"{'set-up p':>10}{'set-up c':>10}{'traced p':>10}{'traced c':>10}")
            for names, pair in zip(NAME_PAIRS, copies):
                peaks = {side: [] for side in roots}
                for run in range(args.runs):
                    order = list(roots) if run % 2 == 0 else list(roots)[::-1]
                    for side in order:
                        peaks[side].append(runner_peak_kb(pair[side], jobs[side][workload]))
                median = {side: statistics.median(values) for side, values in peaks.items()}
                setup, traced = zip(*(probe(pair[side], jobs[side][workload]) for side in roots))
                print(f"  {', '.join(names):<26}{median['parent']:>8.0f}{median['change']:>8.0f}"
                      f"{median['change'] - median['parent']:>+7.0f}"
                      f"{setup[0]:>10}{setup[1]:>10}{traced[0]:>10.1f}{traced[1]:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
