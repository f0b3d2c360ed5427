import json
from pathlib import Path

from monofilt import cli, closure, epsilon, powers
from monofilt.filtration import ValidationResult
from monofilt.superficial import TermSystem


def run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


IDEAL = "vars: x,y ; ideal: x^2, x*y"


def test_powers_json_document(tmp_path):
    code, text = run(
        tmp_path, "powers", "--ideal", IDEAL, "--nmax", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["tool"] == {"name": "monofilt", "version": "0.1.0"}
    assert doc["command"] == "powers"
    assert doc["config"]["ideal"] == ["x^2", "x*y"]
    assert "jobs" not in doc["config"]
    rows = doc["report"]["per_n"]
    assert [row["n"] for row in rows] == list(range(1, 7))
    assert all(row["validated"] for row in rows)
    assert doc["report"]["primes_union"] == [["x"], ["x", "y"]]


def test_powers_both_modes(tmp_path):
    code, text = run(
        tmp_path, "powers", "--ideal", "vars: x,y ; ideal: x", "--nmax", "6",
        "--mode", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc["report"]) == {"naive", "theorem"}
    for mode in ("naive", "theorem"):
        assert doc["report"][mode]["primes_union"] == [["x"]]


def test_powers_csv_table(tmp_path):
    code, text = run(
        tmp_path, "powers", "--ideal", IDEAL, "--nmax", "3", "--format", "csv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,prime,multiplicity"
    assert lines[1] == "1,x,1"
    assert '"x,y"' in lines[2]


def test_syntax_error_exit_code(tmp_path):
    code, _ = run(tmp_path, "powers", "--ideal", "vars: x,y ; ideal: x^2*y? ")
    assert code == 1


def test_empty_generator_list_is_a_syntax_error(tmp_path, capsys):
    # The grammar needs a generator, so no input reads as the zero or unit ideal.
    code, _ = run(tmp_path, "powers", "--ideal", "vars: x,y ; ideal:")
    assert code == 1
    assert "expected an identifier (at position 18)" in capsys.readouterr().err


def test_missing_ideal_flag(tmp_path):
    assert cli.main(["powers", "--nmax", "3"]) == 1


def test_ideal_file_input(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(IDEAL, encoding="utf-8")
    code, text = run(
        tmp_path, "ass", "--ideal-file", str(path), "--nmax", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["onset"] == 1
    assert doc["report"]["union"] == [["x"], ["x", "y"]]


def test_superficial_command(tmp_path):
    code, text = run(
        tmp_path, "superficial", "--ideal", "vars: x,y ; ideal: x, y",
        "--nmax", "24", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["found"]
    cert = doc["report"]["certificate"]
    assert (cert["element"], cert["order"], cert["c"]) == ("x", 1, 0)


def test_superficial_command_not_found(tmp_path):
    code, text = run(
        tmp_path, "superficial", "--ideal", "vars: x,y ; ideal: x^2*y, x*y^2",
        "--nmax", "16", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["found"] is False
    assert doc["report"]["search"]["order_max"] == 3


def test_closure_command(tmp_path):
    code, text = run(
        tmp_path, "closure", "--ideal", "vars: x,y ; ideal: x^3, y^3",
        "--nmax", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    body = doc["report"]
    assert body["noetherian_exponent"]["exponent"] == 1
    assert body["rees_cofinality_constant"] == 1
    assert body["closures"][0]["generators"] == ["x^3", "x^2*y", "x*y^2", "y^3"]


def test_epsilon_command(tmp_path):
    code, text = run(
        tmp_path, "epsilon", "--ideal", IDEAL, "--nmax", "12", "--format", "json"
    )
    assert code == 0
    doc = json.loads(text)
    assert [row["length"] for row in doc["report"]["per_n"]] == [
        n * (n + 1) // 2 for n in range(1, 13)
    ]
    assert all(row["ok"] for row in doc["report"]["bound_check"])


def test_cm_command(tmp_path):
    code, text = run(
        tmp_path, "cm", "--ideal", "vars: x,y,z ; ideal: x*z, y*z",
        "--nmax", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["element"] == "x"
    assert doc["report"]["minh"] == [["z"]]
    assert doc["report"]["all_pass"]


def test_certificate_failure_exit_code(tmp_path, monkeypatch, capsys):
    import monofilt.powers as powers_module

    monkeypatch.setattr(
        powers_module, "validate", lambda f: ValidationResult(False, 0, "forced")
    )
    for argv in (
        ("powers",),
        ("powers", "--mode", "naive"),
        ("closure",),
        ("epsilon",),
        ("cm",),
    ):
        code, _ = run(tmp_path, *argv, "--ideal", IDEAL, "--nmax", "2")
        assert code == 2, argv
        assert "certificate failure" in capsys.readouterr().err, argv


def test_jobs_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MONOFILT_JOBS", "2")
    code, text = run(
        tmp_path, "powers", "--ideal", IDEAL, "--nmax", "4", "--format", "json"
    )
    assert code == 0
    monkeypatch.setenv("MONOFILT_JOBS", "1")
    code2, text2 = run(
        tmp_path, "powers", "--ideal", IDEAL, "--nmax", "4", "--format", "json"
    )
    assert code2 == 0
    assert text == text2


def test_nmax_below_one_rejected(tmp_path, capsys):
    for command, extra in (("ass", ["--window", "1"]), ("superficial", [])):
        for nmax in ("0", "-3"):
            code, text = run(tmp_path, command, "--ideal", IDEAL, "--nmax", nmax, *extra)
            assert code == 1, (command, nmax)
            assert text == ""
            assert "n_max must be at least 1" in capsys.readouterr().err


def test_options_a_command_does_not_read_are_rejected(capsys):
    # Each of these options shaped nothing in its command's report.
    for command, option, value in (
        ("ass", "--order-max", "3"),
        ("superficial", "--window", "4"),
        ("epsilon", "--window", "4"),
        ("cm", "--window", "4"),
    ):
        code = cli.main([command, "--ideal", IDEAL, "--nmax", "2", option, value])
        assert code == 1, (command, option)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err


def test_window_and_order_max_below_one_rejected(tmp_path, capsys):
    cases = (
        ("ass", "--window", "-2"),
        ("ass", "--window", "0"),
        ("powers", "--window", "0"),
        ("powers", "--order-max", "0"),
        ("superficial", "--order-max", "-1"),
    )
    for command, option, value in cases:
        code, text = run(tmp_path, command, "--ideal", IDEAL, "--nmax", "3", option, value)
        assert code == 1, (command, option, value)
        assert text == ""
        name = option[2:].replace("-", "_")
        assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err


def test_resource_errors_exit_one(tmp_path, monkeypatch, capsys):
    import monofilt.powers as powers_module

    for error, words in (
        (RecursionError, "recursion limit"),
        (MemoryError, "memory limit"),
        (OverflowError, "too large"),
    ):
        def exhausted(*args, **kwargs):
            raise error()

        monkeypatch.setattr(powers_module, "associated_primes", exhausted)
        code, _ = run(tmp_path, "ass", "--ideal", IDEAL, "--nmax", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert words in err
        assert "Traceback" not in err


def test_closure_of_an_exponent_at_the_parser_limit_exits_one(tmp_path, capsys):
    # The closure head would scan a box as wide as the exponent, past what
    # range() can size; the cell limit refuses it first.
    for text in (
        "vars: x ; ideal: x^9223372036854775807",
        "vars: x,y ; ideal: x^9223372036854775807, x*y",
    ):
        code, _ = run(tmp_path, "closure", "--ideal", text, "--nmax", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("monofilt: error: closure head scan of ")
        assert "cells exceeds the limit 1000000" in err
        assert "Traceback" not in err


def test_closure_head_scan_over_the_cell_limit_builds_no_cell(tmp_path, capsys, monkeypatch):
    # The head of (x^99999999, y) at n = 1 is a box of 2 * 10^8 cells, which
    # exhausted memory when built and sorted.  The limit refuses it before
    # any cell exists, so a regression fails here instead of allocating.
    def build(bounds):
        raise AssertionError(f"the head box {bounds} was built")

    monkeypatch.setattr(closure, "box_monomials", build)
    code, _ = run(tmp_path, "closure", "--ideal", "vars: x,y ; ideal: x^99999999, y", "--nmax", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err == "monofilt: error: closure head scan of 200000000 cells exceeds the limit 1000000\n"


def test_human_format_runs(tmp_path):
    for command, extra in (
        ("powers", []),
        ("ass", []),
        ("superficial", []),
        ("closure", []),
        ("epsilon", []),
        ("cm", []),
    ):
        code, text = run(tmp_path, command, "--ideal", IDEAL, "--nmax", "4", *extra)
        assert code == 0
        assert text.startswith("monofilt 0.1.0")


# Exact csv and human texts on (x^2, x*y) at n_max 4, pinned so that any
# change to the renderers shows up as a diff.
_POWERS_HUMAN_THEOREM = """\
mode: theorem  n_max: 4
  n  steps  fallback  primes
  1      2  False     (x) (x,y)
  2      6  False     (x) (x,y)
  3     12  False     (x) (x,y)
  4     20  False     (x) (x,y)
prime factors across the sweep: (x) (x,y)
stabilization: {"kind": "stable", "onset": 1, "window": 4}
growth (x): insufficient data [2 points]
growth (x,y): insufficient data [2 points]
superficial: {"c": 0, "colon_threshold": 1, "element": "x*y", "order": 1, "verified_to": 8}
"""

_POWERS_HUMAN_NAIVE = """\
mode: naive  n_max: 4
  n  steps  fallback  primes
  1      2  False     (x) (x,y)
  2      5  False     (x) (x,y)
  3      9  False     (x) (x,y)
  4     14  False     (x) (x,y)
prime factors across the sweep: (x) (x,y)
stabilization: {"kind": "stable", "onset": 1, "window": 4}
growth (x): insufficient data [2 points]
growth (x,y): insufficient data [2 points]
"""

_LEDGER_CSV = """\
n,prime,multiplicity
1,x,1
1,"x,y",1
2,x,2
2,"x,y",4
3,x,3
3,"x,y",9
4,x,4
4,"x,y",16
"""

GOLDEN = {
    ("powers", "csv"): _LEDGER_CSV,
    ("powers", "human"): "monofilt 0.1.0 powers\n" + _POWERS_HUMAN_THEOREM,
    ("ass", "csv"): 'n,prime\n1,x\n1,"x,y"\n2,x\n2,"x,y"\n3,x\n3,"x,y"\n4,x\n4,"x,y"\n',
    ("ass", "human"): """\
monofilt 0.1.0 ass  n_max: 4
  1  (x) (x,y)
  2  (x) (x,y)
  3  (x) (x,y)
  4  (x) (x,y)
union: (x) (x,y)
stability onset: 1
""",
    ("superficial", "csv"): "element,order,c,colon_threshold,verified_to\nx*y,1,0,1,4\n",
    ("superficial", "human"): """\
monofilt 0.1.0 superficial
{
  "certificate": {
    "c": 0,
    "colon_threshold": 1,
    "element": "x*y",
    "order": 1,
    "verified_to": 4
  },
  "found": true
}
""",
    ("closure", "csv"): _LEDGER_CSV,
    ("closure", "human"): """\
monofilt 0.1.0 closure  n_max: 4
polyhedron: {"inequalities": [{"bound": 0, "coefficients": [0, 1]}, \
{"bound": 1, "coefficients": [1, 0]}, {"bound": 2, "coefficients": [1, 1]}], \
"vertices": [[1, 1], [2, 0]]}
closure(I^1): (x^2, x*y)
closure(I^2): (x^4, x^3*y, x^2*y^2)
closure(I^3): (x^6, x^5*y, x^4*y^2, x^3*y^3)
closure(I^4): (x^8, x^7*y, x^6*y^2, x^5*y^3, x^4*y^4)
noetherian exponent: 1
rees cofinality constant: 0
""" + _POWERS_HUMAN_THEOREM,
    ("epsilon", "csv"): "n,length,normalized\n1,1,2.0\n2,3,1.5\n3,6,1.333333333\n4,10,1.25\n",
    ("epsilon", "human"): """\
monofilt 0.1.0 epsilon  n_max: 4
  n  length  normalized
  1       1  2.000000
  2       3  1.500000
  3       6  1.333333
  4      10  1.250000
estimate (window 1): 1.250000
filtration bound check: pass
""",
    ("cm", "csv"): "n,pass\n1,true\n2,true\n3,true\n4,true\n",
    ("cm", "human"): """\
monofilt 0.1.0 cm  n_max: 4
inverted element: y
minh: (x)
  1  pass
  2  pass
  3  pass
  4  pass
all levels: pass
""",
}


def test_golden_csv_and_human_texts(tmp_path):
    for (command, fmt), expected in GOLDEN.items():
        code, text = run(tmp_path, command, "--ideal", IDEAL, "--nmax", "4", "--format", fmt)
        assert code == 0
        assert text == expected, (command, fmt)


def test_golden_powers_both_modes(tmp_path):
    args = ("powers", "--mode", "both", "--ideal", IDEAL, "--nmax", "4", "--format")
    code, text = run(tmp_path, *args, "csv")
    assert code == 0
    assert text == _LEDGER_CSV  # the CSV keeps the theorem table
    code, text = run(tmp_path, *args, "human")
    assert code == 0
    assert text == "monofilt 0.1.0 powers\n" + _POWERS_HUMAN_NAIVE + _POWERS_HUMAN_THEOREM


def test_golden_powers_both_modes_json(tmp_path):
    # The per-level digests of both sweeps appear only in the JSON report.
    golden = Path(__file__).parent / "golden" / "powers_both_nmax4.json"
    args = ("powers", "--mode", "both", "--ideal", IDEAL, "--nmax", "4", "--format", "json")
    code, text = run(tmp_path, *args)
    assert code == 0
    assert text == golden.read_text(encoding="utf-8")


def test_golden_closure_three_variables_json(tmp_path):
    # closure(I^2) is not I * closure(I) here: the chain's head holds two scanned closures.
    golden = Path(__file__).parent / "golden" / "closure_xyz_nmax4.json"
    args = ("closure", "--ideal", "vars: x,y,z ; ideal: x^3, y^3, z^3", "--nmax", "4")
    code, text = run(tmp_path, *args, "--format", "json")
    assert code == 0
    assert text == golden.read_text(encoding="utf-8")


def test_powers_both_modes_share_one_term_system(tmp_path, monkeypatch):
    made = []
    init = TermSystem.__init__

    def counted(self, I):
        made.append(I)
        init(self, I)

    monkeypatch.setattr(TermSystem, "__init__", counted)
    code, _ = run(tmp_path, "powers", "--mode", "both", "--ideal", IDEAL, "--nmax", "4")
    assert code == 0
    assert len(made) == 1


def test_powers_both_modes_compute_ass_once_per_level(tmp_path, monkeypatch):
    calls = []
    original = powers.associated_primes
    monkeypatch.setattr(powers, "associated_primes", lambda J: calls.append(J) or original(J))
    args = ("powers", "--mode", "both", "--ideal", "vars: x,y ; ideal: x^3, y^3", "--nmax", "6")
    code, _ = run(tmp_path, *args, "--format", "json")
    assert code == 0
    assert len(calls) == len(set(calls)) == 6


def test_reports_that_print_no_ass_or_digest_compute_none(tmp_path, monkeypatch):
    # Only the JSON powers document prints the per-level Ass and digests:
    # epsilon and cm never do, powers and closure not in human or csv.
    calls = []
    for name in ("associated_primes", "filtration_digest"):
        monkeypatch.setattr(powers, name, lambda *a, name=name: calls.append(name))
    argvs = [("epsilon", "--nmax", "14"), ("cm", "--nmax", "6")]
    argvs += [(command, "--nmax", "6", "--format", fmt)
              for command in ("powers", "closure") for fmt in ("human", "csv")]
    argvs += [("powers", "--mode", "both", "--nmax", "6", "--format", fmt) for fmt in ("human", "csv")]
    for argv in argvs:
        code, _ = run(tmp_path, *argv, "--ideal", IDEAL)
        assert code == 0, argv
    assert calls == []


def test_epsilon_computes_each_torsion_length_once(tmp_path, monkeypatch):
    # The bound check reads the estimate's lengths for n <= min(n_max, 12).
    calls = []
    original = epsilon.h0_length
    monkeypatch.setattr(epsilon, "h0_length", lambda J: calls.append(J) or original(J))
    made = []
    init = TermSystem.__init__
    monkeypatch.setattr(TermSystem, "__init__", lambda self, I: made.append(I) or init(self, I))
    code, _ = run(tmp_path, "epsilon", "--ideal", IDEAL, "--nmax", "14")
    assert code == 0
    assert len(calls) == len(set(calls)) == 14
    assert len(made) == 1


def test_golden_superficial_not_found_csv(tmp_path):
    # At n_max 1 to 3, c = n_max would pass without checking any level above c.
    for n_max in ("1", "2", "3", "4"):
        code, text = run(
            tmp_path, "superficial", "--ideal", "vars: x,y ; ideal: x^2*y, x*y^2",
            "--nmax", n_max, "--format", "csv",
        )
        assert code == 0
        assert text == "found\nfalse\n", n_max


def test_ass_huge_exponents(tmp_path):
    # The generator box of the cube holds 81 million cells; its corner grid holds 100.
    code, text = run(
        tmp_path, "ass", "--ideal", "vars: x,y ; ideal: x^3000, x*y, y^3000",
        "--nmax", "3", "--format", "csv",
    )
    assert code == 0
    assert text == 'n,prime\n1,"x,y"\n2,"x,y"\n3,"x,y"\n'


def test_powers_both_modes_csv_sweeps_only_the_theorem_mode(tmp_path, monkeypatch):
    # The CSV of --mode both prints the theorem table alone.
    modes = []
    original = cli.powers_report
    monkeypatch.setattr(
        cli, "powers_report", lambda *a, **k: modes.append(a[2]) or original(*a, **k)
    )
    code, text = run(tmp_path, "powers", "--mode", "both", "--ideal", IDEAL, "--nmax", "4",
                     "--format", "csv")
    assert code == 0
    assert modes == ["theorem"]
    assert text.startswith("n,prime,multiplicity\n1,x,1\n")
