"""Workload definitions: the fixed CLI job lists plus seeded random ideals.

A job is one ``monofilt`` command line.  Every job asks for ``--format json``
so its report can be checked; ``--jobs`` is never passed.  Fixed jobs carry
reference values frozen in ``reference.json``; seeded jobs are checked only
against the report invariants.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 20141407

# Curated suite of the test battery (tests/conftest.py), as ideal text.
CURATED_SUITE = (
    ("x,y", "x"),
    ("x,y", "x, y"),
    ("x,y", "x^2, x*y"),
    ("x,y,z", "x*z, y*z"),
    ("x,y", "x^3, y^3"),
    ("x,y", "x^4, x*y, y^4"),
    ("x,y", "x^2"),
    ("x,y", "x^2, y^2"),
    ("x,y", "x^2, x*y, y^2"),
    ("x,y", "x^3, x^2*y"),
    ("x,y,z", "x*y, y*z"),
)


def _job(command, variables, gens, nmax, mode=None):
    argv = [command]
    if mode is not None:
        argv += ["--mode", mode]
    argv += ["--ideal", f"vars: {variables} ; ideal: {gens}", "--nmax", str(nmax), "--format", "json"]
    return argv


def job_id(argv) -> str:
    """Stable key of a job: its command line without the fixed format flag."""
    return " ".join(argv[:-2])


# Sizes are scaled down from single-run probes so that one repetition of each
# workload takes a few seconds and a run holds several repetitions.
FIXED = {
    # Certified splice path: certificate search, engine glue, validate and
    # per-level Ass.  The greedy scan runs only at the (x^4, x*y, y^4)
    # fallback nodes.
    "theorem-sweep": (
        [_job("powers", v, g, 9, "theorem") for v, g in CURATED_SUITE]
        + [
            _job("powers", "x,y", "x^3, y^3", 16, "theorem"),
            _job("powers", "x,y,z", "x^2, y^2, z^2", 6, "theorem"),
            _job("cm", "x,y,z", "x*z, y*z", 8),
            _job("superficial", "x,y,z", "x^2, y^2, z^2", 16),
            # Finds no certificate, so every candidate is tried.
            _job("superficial", "x,y", "x^2*y, x*y^2", 24),
        ]
    ),
    # Box-scan witness search and irreducible decomposition; neither the
    # certificate search nor the powers engine runs.
    "greedy-ass": [
        _job("powers", "x,y", "x^2, x*y", 10, "naive"),
        _job("powers", "x,y", "x^3, y^3", 6, "naive"),
        _job("powers", "x,y,z", "x*y, y*z", 5, "naive"),
        _job("powers", "x,y", "x^20, x*y, y^20", 2, "naive"),
        _job("ass", "x,y", "x^2, x*y", 16),
        _job("ass", "x,y", "x^4, x*y, y^4", 12),
        _job("ass", "x,y,z", "x*y, y*z, x*z", 5),
    ],
    # Saturation and closure lattice scans: ring colons and intersections
    # that shrink ideals, with only a light filtration bound check.
    "torsion-closure": [
        _job("epsilon", "x,y", "x^2, x*y", 28),
        _job("epsilon", "x,y", "x, y", 24),
        _job("epsilon", "x,y,z", "x*z, y*z", 8),
        _job("closure", "x,y", "x^3, y^3", 7),
        _job("closure", "x,y", "x^2, x*y", 8),
        _job("closure", "x,y", "x^3, x*y^2", 6),
    ],
}

WORKLOADS = tuple(FIXED)

# Shape family of each workload's seeded jobs: (command, mode, variable
# count, generator counts, exponent cap, nmax).  Exponent cap and nmax keep
# the worst case of a seeded job near a tenth of a second.
FAMILIES = {
    "theorem-sweep": [
        ("powers", "theorem", 2, (2, 3), 3, 5),
        ("powers", "theorem", 2, (2, 3), 3, 5),
        ("powers", "theorem", 2, (2, 3), 3, 5),
    ],
    "greedy-ass": [
        ("ass", None, 2, (3,), 3, 6),
        ("ass", None, 3, (3,), 2, 2),
        ("powers", "naive", 2, (2, 3), 3, 4),
    ],
    "torsion-closure": [
        ("epsilon", None, 2, (2, 3), 3, 4),
        ("epsilon", None, 2, (2, 3), 3, 4),
        ("closure", None, 2, (2, 3), 3, 4),
    ],
}

_NAMES = "xyz"


def _random_gens(rng: random.Random, nvars: int, count: int, cap: int) -> str:
    gens = set()
    while len(gens) < count:
        e = tuple(rng.randint(0, cap) for _ in range(nvars))
        if any(e):
            gens.add(e)
    words = []
    for e in sorted(gens):
        factors = [_NAMES[i] if v == 1 else f"{_NAMES[i]}^{v}" for i, v in enumerate(e) if v]
        words.append("*".join(factors))
    return ", ".join(words)


def seeded_jobs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for command, mode, nvars, counts, cap, nmax in FAMILIES[workload]:
        gens = _random_gens(rng, nvars, rng.choice(counts), cap)
        jobs.append(_job(command, ",".join(_NAMES[:nvars]), gens, nmax, mode))
    return jobs


def workload_jobs(workload: str, seed: int) -> list:
    """(argv, fixed) pairs: the fixed list, then the seeded jobs."""
    return [(argv, True) for argv in FIXED[workload]] + [
        (argv, False) for argv in seeded_jobs(workload, seed)
    ]
