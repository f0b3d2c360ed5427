"""One repetition of a workload, in a fresh interpreter.

Reads a request from stdin: the checkout root, the job command lines and the
mode (``setup``, ``time`` or ``trace``).  Set-up is importing monofilt and
parsing every job's input.  The jobs then run one after another through
``monofilt.cli.main``, each starting when the last returns.  Writes one JSON
object to stdout: when set-up ended, peak RSS, each job's exit code, wall and
CPU time and report text, and the calibration loop's wall and CPU times.

The machine's speed drifts: a shared core runs the same code up to twice as
slow for seconds to minutes at a time.  So the runner times a fixed
calibration loop right after set-up and after every job.  A job's time
divided by the mean of the calibrations on either side of it is nearly free
of that drift; run.py scales it back to seconds.  Wall time is divided by the
loop's wall time and CPU time by its CPU time, since time the hypervisor
steals from the machine counts in the one but not in the other.
"""

import io
import json
import math
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def calibrate() -> list:
    """Least wall and CPU seconds of three runs of a fixed loop of tuple, generator and dict work.

    The least of three drops a run slowed by an interruption.
    """
    best = [math.inf, math.inf]
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.process_time()
        counts = {}
        for i in range(15000):
            key = (i % 7, i % 11, i % 13)
            if all(a <= b for a, b in zip(key, (5, 9, 12))):
                counts[key] = counts.get(key, 0) + 1
        best = [min(best[0], time.perf_counter() - wall), min(best[1], time.process_time() - cpu)]
    return best


def _run(jobs, call, calibrations):
    """Run the jobs, timing the calibration loop after each one."""
    results = []
    for index, argv in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = call(index, argv)
        except Exception as exc:  # a crashed job is a failed job; the loop goes on
            code = f"uncaught {type(exc).__name__}: {exc}"
        results.append(
            {
                "code": code,
                "wall_s": time.perf_counter() - wall,
                "cpu_s": time.process_time() - cpu,
                "out": out.getvalue(),
                "err": err.getvalue(),
            }
        )
        calibrations.append(calibrate())
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }


def main():
    request = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(request["root"], "src"))
    import monofilt
    from monofilt import cli

    for argv in request["jobs"]:
        monofilt.parse_problem(argv[argv.index("--ideal") + 1])
    result = {"ready": time.monotonic(), "calibration_s": [calibrate()]}

    mode = request["mode"]
    if mode == "time":
        result.update(_run(request["jobs"], lambda index, argv: cli.main(argv), result["calibration_s"]))
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.check_bindings()
        traced_main = tracer.timed("cli.main", cli.main)

        def call(index, argv):
            tracer.job = index
            return traced_main(argv)

        result.update(_run(request["jobs"], call, result["calibration_s"]))
        result["trace"] = tracer.summary()
        tracer.write_spans(request["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
