"""Benchmark of the monofilt command line on fixed workloads.

    python3 bench/run.py --workload theorem-sweep --seed 7 --seconds 30 --trace 0

Each repetition runs the workload's job list through ``monofilt.cli.main`` in
a fresh interpreter, single-threaded, as a closed loop: a job starts when the
last one returns.  Repetitions run until ``--seconds`` have passed.  Every
timing is scaled to a reference machine speed by the calibration loop timed
beside each job (see runner.py).  A job list's time is the sum of each job's
median over the repetitions.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the job list twice more with every public function wrapped
and reports the per-layer metrics.  Every report is
checked (see check.py).  The last line of stdout is the result as JSON.

``--freeze`` rewrites reference.json from the current code; run it only on a
build whose reports are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from check import check_job, digest, facts
from jobs import DEFAULT_SEED, FIXED, WORKLOADS, job_id, workload_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"

COMMANDS = ("powers", "ass", "superficial", "closure", "epsilon", "cm")
LAYERS = ("ring", "decomposition", "filtration", "superficial", "powers", "closure", "epsilon", "cli")
SETUP_ONLY_SPAWNS = 3  # set-up samples taken before the timed repetitions; one more before each
RUN_LIMIT_S = 150  # no repetition starts that would likely end past this
EXIT_LIMIT_S = 175  # a repetition still running then is killed and the run fails
# Times are scaled to the speed at which runner.calibrate() takes this long,
# about its time on an idle core of the 2-vCPU machine the benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.015
MIN_COVERAGE = 0.95  # share of traced wall time inside spans below cli.main; 0.998 or more observed

# Functions reported with calls and self time, and those with self time only.
CALLS_AND_SELF = (
    "ring.minimal_generators",
    "ring.intersect",
    "ring.mul",
    "ring.saturation",
    "decomposition.associated_primes",
    "decomposition.irreducible_decomposition",
    "filtration.naive_prime_filtration",
    "filtration.validate",
    "filtration.glue",
    "superficial.search_certificate",
    "powers.powers_report",
    "powers.ass_stability",
    "closure.integral_closure_power",
    "epsilon.h0_length",
)
SELF_ONLY = (
    "powers.filtration_digest",
    "closure.newton_polyhedron",
    "closure.noetherian_exponent",
    "closure.rees_cofinality_constant",
    "epsilon.filtration_bound_check",
    "cli.parse",
    "cli.render",
    "cli.main",
)
COUNTS = (
    "ring.colon_monomial.calls",
    "ring.saturation.colon_rounds",
    "decomposition.cells_scanned",
    "filtration.cells_scanned",
    "filtration.validate.steps",
    "superficial.term_plus.calls",
    "powers.engine.glue_nodes",
    "powers.engine.fallback_nodes",
    "powers.engine.fallback_nodes.no_certificate",
    "powers.engine.fallback_nodes.below_threshold",
    "powers.engine.fallback_nodes.recheck_failed",
    "closure.cells_scanned",
    "epsilon.cells_scanned",
)


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monofilt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def _spawn(request: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; set-up seconds go in 'setup_s'."""
    env = {k: v for k, v in os.environ.items() if k != "MONOFILT_JOBS"}
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "runner.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"a repetition ran past the time limit ({err.timeout:.0f} s)") from err
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - started
    _scale(result)
    return result


def _scale(rep: dict):
    """Add times scaled to the reference speed, each by the calibrations beside it.

    Set-up is scaled by the calibration right after it, and each job by the
    mean of the calibrations before and after it: wall time by their wall
    time, CPU time by their CPU time.
    """
    cal = rep["calibration_s"]  # [wall, cpu] pairs
    rep["setup_ref_s"] = rep["setup_s"] * REFERENCE_CALIBRATION_S / cal[0][0]
    jobs = rep.get("jobs")
    if not jobs or len(cal) != len(jobs) + 1:
        return  # set-up only
    for job, (wall0, cpu0), (wall1, cpu1) in zip(jobs, cal, cal[1:]):
        job["wall_ref_s"] = job["wall_s"] * REFERENCE_CALIBRATION_S / ((wall0 + wall1) / 2)
        job["cpu_ref_s"] = job["cpu_s"] * REFERENCE_CALIBRATION_S / ((cpu0 + cpu1) / 2)
    rep["wall_ref_s"] = sum(job["wall_ref_s"] for job in jobs)


class Gate:
    """Applies check.py to every repetition and keeps the tallies."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference = json.loads(REFERENCE.read_text())
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reports_changed = 0

    def check(self, rep: dict):
        changed = 0
        for (argv, fixed), result in zip(self.jobs, rep["jobs"]):
            self.attempted += 1
            failure, drifted = check_job(argv, fixed, result, self.reference)
            changed += drifted
            if failure is not None:
                self.failed += 1
                self.messages.append(f"{job_id(argv)}: {failure}")
        self.reports_changed = max(self.reports_changed, changed)


def _job_medians(reps, key: str) -> list:
    """Each job's median over the repetitions of its time under ``key``.

    Summing these medians, rather than taking the median of the repetitions'
    sums, keeps a speed change during one job of one repetition from moving
    the total.
    """
    return [statistics.median(rep["jobs"][j][key] for rep in reps) for j in range(len(reps[0]["jobs"]))]


def _per_command(reps, jobs) -> dict:
    """Summed job medians of scaled wall time per command, with the job count."""
    totals, counts = defaultdict(float), defaultdict(int)
    for (argv, _), value in zip(jobs, _job_medians(reps, "wall_ref_s")):
        totals[argv[0]] += value
        counts[argv[0]] += 1
    return {c: (totals[c], counts[c]) for c in COMMANDS}


def end_to_end(setups, reps) -> dict:
    return {
        "wall_ref_s": (sum(_job_medians(reps, "wall_ref_s")), "s"),
        "cpu_ref_s": (sum(_job_medians(reps, "cpu_ref_s")), "s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in reps), "MB"),
    }


def _self_check(traces):
    """Two traced runs of one seed must count exactly the same work."""
    keys = ("calls", "counts", "max_gens", "newton_cache")
    first, second = ({k: t[k] for k in keys} for t in traces)
    if first != second:
        diff = sorted(
            name
            for k in ("calls", "counts")
            for name in set(first[k]) | set(second[k])
            if first[k].get(name) != second[k].get(name)
        )
        raise BenchError(f"two traced runs of one seed counted different work: {diff[:10]}")


def per_layer(traced_reps, untraced_reps, jobs, reports_changed) -> dict:
    traces = [rep["trace"] for rep in traced_reps]
    _self_check(traces)
    t = traces[0]
    calls, counts = t["calls"], t["counts"]
    self_s = {
        name: statistics.median(tr["self_s"].get(name, 0.0) for tr in traces)
        for name in set().union(*(tr["self_s"] for tr in traces))
    }
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    m["ring.antichain.max_gens"] = (t["max_gens"], "count")
    m["ring.antichain.kept_ratio"] = (
        _ratio(counts.get("ring.antichain.out", 0), counts.get("ring.antichain.in", 0)),
        "ratio",
    )
    m["decomposition.witness_hit_ratio"] = (
        _ratio(counts.get("decomposition.witnesses", 0), counts.get("decomposition.cells_scanned", 0)),
        "ratio",
    )
    m["superficial.found_ratio"] = (
        _ratio(counts.get("superficial.search_certificate.found", 0), calls.get("superficial.search_certificate", 0)),
        "ratio",
    )
    cache = t["newton_cache"]
    m["closure.newton_polyhedron.hit_ratio"] = (_ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    m["cli.reports_changed"] = (reports_changed, "count")
    for command, (value, _) in _per_command(untraced_reps, jobs).items():
        m[f"cli.{command}_s"] = (value, "s")

    layer_self = {layer: sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0) for layer in LAYERS}
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = (value, "s")
    traced_wall = statistics.median(rep["wall_s"] for rep in traced_reps)
    overhead = sum(_job_medians(traced_reps, "wall_ref_s")) - sum(_job_medians(untraced_reps, "wall_ref_s"))
    # cli.main's own self time is whatever no other span claims, so it is left
    # out: coverage is the share of traced wall time spent below the command
    # line, inside the layers' spans or the parse and render spans.
    coverage = (sum(layer_self.values()) - self_s.get("cli.main", 0.0)) / traced_wall
    if coverage < MIN_COVERAGE:
        raise BenchError(
            f"layer spans below cli.main cover {coverage:.1%} of traced wall time; need {MIN_COVERAGE:.0%}"
        )
    m["trace.coverage"] = (coverage, "ratio")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.spans"] = (t["spans"], "count")
    return m


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    jobs: list
    gate: Gate
    setups: list = field(default_factory=list)  # (raw, scaled) set-up seconds of every spawn
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    started = time.monotonic()
    deadline = started + EXIT_LIMIT_S
    jobs = workload_jobs(workload, seed)
    run = Run(workload, seed, trace, jobs, Gate(jobs))
    request = {"root": str(ROOT), "jobs": [argv for argv, _ in jobs]}

    def setup_only():
        spawn = _spawn({**request, "mode": "setup"}, deadline)
        run.setups.append((spawn["setup_s"], spawn["setup_ref_s"]))

    for _ in range(SETUP_ONLY_SPAWNS):
        setup_only()
    durations = []
    budget = min(seconds / 2 if trace else seconds, RUN_LIMIT_S)
    while True:
        rep_start = time.monotonic()
        setup_only()  # spreads the set-up samples over the run
        rep = _spawn({**request, "mode": "time"}, deadline)
        durations.append(time.monotonic() - rep_start)
        run.setups.append((rep["setup_s"], rep["setup_ref_s"]))
        run.gate.check(rep)
        run.untraced.append(rep)
        # Stop when one more typical repetition would end past the budget.
        if time.monotonic() - started + statistics.median(durations) > budget:
            break
    if not trace:
        run.metrics = end_to_end(run.setups, run.untraced)
        return run
    SPANS_DIR.mkdir(exist_ok=True)
    for k in range(2):
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}-{k}.json"
        rep = _spawn({**request, "mode": "trace", "spans_path": str(spans)}, deadline)
        run.gate.check(rep)
        run.traced.append(rep)
    run.metrics = per_layer(run.traced, run.untraced, jobs, run.gate.reports_changed)
    return run


def _summary(run: Run, env: dict):
    gate = run.gate
    fixed = sum(1 for _, f in run.jobs if f)
    print(f"monofilt benchmark: workload {run.workload}, seed {run.seed}, trace {int(run.trace)}")
    print(f"python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, source {env['source_sha256']}")
    print(
        f"{len(run.jobs)} jobs per repetition ({fixed} fixed, {len(run.jobs) - fixed} seeded); "
        f"{len(run.untraced)} timed repetitions, {len(run.traced)} traced, {len(run.setups)} set-up samples"
    )
    for key in ("wall_s", "wall_ref_s"):
        values = " ".join(f"{rep[key]:.3f}" for rep in run.untraced)
        print(f"  {key} of each timed repetition: {values}")
    calibrations = [wall for rep in run.untraced for wall, _ in rep["calibration_s"]]
    print(
        f"  unscaled medians: wall_s {statistics.median(rep['wall_s'] for rep in run.untraced):.4f} s, "
        f"setup_s {statistics.median(raw for raw, _ in run.setups):.4f} s; calibration loop "
        f"{statistics.median(calibrations):.4f} s (min {min(calibrations):.4f}, max {max(calibrations):.4f}, "
        f"reference {REFERENCE_CALIBRATION_S})"
    )
    for name, (value, count) in _per_command(run.untraced, run.jobs).items():
        print(f"  {name}_s {value:.4f} s ({count} jobs)")
    print(f"  failed_frac {gate.failed}/{gate.attempted} = {_ratio(gate.failed, gate.attempted):.4f}")
    print(f"  reports changed from the frozen digests: {gate.reports_changed} of {fixed}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name} {value} {unit}")
    for message in gate.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)


def freeze():
    """Write reference.json from the current code, running each fixed job once.

    The jobs run through runner.py, the same path the gate checks.
    """
    reference = {}
    for workload in WORKLOADS:
        jobs = FIXED[workload]
        request = {"root": str(ROOT), "jobs": jobs, "mode": "time"}
        rep = _spawn(request, time.monotonic() + EXIT_LIMIT_S)
        for argv, result in zip(jobs, rep["jobs"]):
            if result["code"] != 0:
                raise BenchError(f"{job_id(argv)} exited with {result['code']}")
            doc = json.loads(result["out"])
            reference[job_id(argv)] = {"digest": digest(result["out"]), "facts": facts(argv, doc)}
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}" for key in sorted(reference)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monofilt" / "__init__.py").is_file():
        print(f"bench: no monofilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.freeze:
            freeze()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        trace = bool(args.trace)
        env = _environment()
        run = measure(args.workload, args.seed, args.seconds, trace)
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        units = {name: unit for name, (_, unit) in run.metrics.items()}
        if units != declared:
            raise BenchError(
                f"printed metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(declared))} "
                f"or units {sorted(k for k in units if declared.get(k, units[k]) != units[k])}"
            )
        _summary(run, env)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 3
    result = {
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
