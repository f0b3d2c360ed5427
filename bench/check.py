"""Correctness gate for the reports of one repetition.

A job fails when it exits non-zero, when its JSON report breaks an invariant
that holds for every input, or, for fixed jobs, when a field that any correct
build must reproduce differs from the value frozen in ``reference.json``.
Byte drift of a whole report from the frozen digest is counted apart and is
not a failure: a different but valid filtration changes the bytes.
"""

from __future__ import annotations

import hashlib
import json

from jobs import job_id


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def facts(argv, doc) -> dict:
    """Fields of a report fixed by the mathematics, not by the construction."""
    command, report = argv[0], doc["report"]
    if command in ("powers", "ass"):
        return {"ass": [row["ass"] for row in report["per_n"]]}
    if command == "epsilon":
        return {"lengths": [row["length"] for row in report["per_n"]]}
    if command == "closure":
        return {
            "ass": [row["ass"] for row in report["powers"]["per_n"]],
            "closures": report["closures"],
            "polyhedron": report["polyhedron"],
            "noetherian_exponent": report["noetherian_exponent"],
            "rees_cofinality_constant": report["rees_cofinality_constant"],
        }
    if command == "cm":
        return {"minh": report["minh"], "dim": report["dim"]}
    if command == "superficial":
        found = {"found": report["found"]}
        if report["found"]:
            found["order"] = report["certificate"]["order"]
        return found
    return {}


def _filtration_rows(rows) -> list:
    """Sanity checks of the powers rows.

    The report writes ``validated`` only after validation passed (a failed
    validation raises, and the exit-code check catches it), and ledger and
    steps come from one filtration.  These checks catch a report that is
    assembled wrongly, not a wrong filtration.
    """
    problems = []
    for row in rows:
        n = row["n"]
        if row["validated"] is not True:
            problems.append(f"level {n} not validated")
        factors = {tuple(p) for p in row["primes"]}
        if not {tuple(p) for p in row["ass"]} <= factors:
            problems.append(f"level {n}: Ass is not inside the factor primes")
        if sum(entry["multiplicity"] for entry in row["ledger"]) != row["steps"]:
            problems.append(f"level {n}: ledger total differs from the step count")
    return problems


def invariants(argv, doc) -> list:
    command, report = argv[0], doc["report"]
    if command == "powers":
        return _filtration_rows(report["per_n"])
    if command == "closure":
        return _filtration_rows(report["powers"]["per_n"])
    if command == "epsilon":
        return [f"bound check fails at level {row['n']}" for row in report["bound_check"] if not row["ok"]]
    if command == "cm":
        problems = [f"CM certificate fails at level {row['n']}" for row in report["per_n"] if not row["ok"]]
        if report["all_pass"] is not True:
            problems.append("CM certificate does not pass at all levels")
        return problems
    return []


def check_job(argv, fixed: bool, result: dict, reference: dict):
    """Return (failure message or None, whether the report bytes drifted)."""
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['err'].strip()[:200]}", False
    try:
        doc = json.loads(result["out"])
        problems = invariants(argv, doc)
        found = facts(argv, doc)
    except (ValueError, KeyError, TypeError) as err:
        return f"malformed report: {err!r}", False
    if problems:
        return "; ".join(problems), False
    if not fixed:
        return None, False
    expected = reference.get(job_id(argv))
    if expected is None:
        return "no reference values for this fixed job", False
    wrong = sorted(key for key, value in expected["facts"].items() if found.get(key) != value)
    if wrong:
        return "differs from the reference in " + ", ".join(wrong), False
    return None, digest(result["out"]) != expected["digest"]
