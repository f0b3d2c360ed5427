"""``cli.main`` builds its parser once per process, and the reused parser keeps no state.

One mixed sequence of command lines, with errors, ``--help`` and
``--version`` between the reports, runs through ``cli.main`` twice: once
with the parser that the first call builds and later calls reuse, and once
with a newly built parser for every call.  Each call must give the same
stdout, stderr, exit code and ``--out`` file both ways.
"""

import contextlib
import io

from monofilt import cli

IDEAL = "vars: x,y ; ideal: x^2, x*y"
_COMMANDS = ("powers", "ass", "superficial", "closure", "epsilon", "cm")


def _sequence(tmp_path):
    """Every command in every format at its defaults, with odd calls between them.

    Each odd call departs from the defaults or fails, and a last round of
    JSON reports, which echo every option, follows them all: a parser that
    kept anything from an odd call would show there.
    """
    reports = [[command, "--ideal", IDEAL, "--format", fmt]
               for fmt in ("json", "human", "csv") for command in _COMMANDS]
    odd = [
        ["powers", "--ideal", IDEAL, "--nmax", "3", "--mode", "both", "--format", "json"],
        ["powers", "--ideal", IDEAL, "--bogus"],
        ["ass", "--ideal", IDEAL, "--format", "xml"],
        [],
        ["--version"],
        ["powers", "--help"],
        ["ass", "--ideal-file", str(tmp_path / "missing.txt"), "--nmax", "2"],
        ["powers", "--ideal", IDEAL, "--nmax", "2", "--mode", "naive", "--window", "2",
         "--order-max", "2", "--out", str(tmp_path / "report.out")],
        ["closure", "--ideal", IDEAL, "--nmax", "3", "--window", "1", "--format", "csv",
         "--out", str(tmp_path / "report.out")],
    ] + [[command, "--ideal", IDEAL, "--nmax", "1", "--jobs", "3"] for command in _COMMANDS]
    mixed = []
    for at, argv in enumerate(reports):
        mixed.append(argv)
        if at < len(odd):
            mixed.append(odd[at])
    return mixed + reports[: len(_COMMANDS)]


def _call(argv, tmp_path):
    """stdout, stderr, exit code and ``--out`` text of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    path = tmp_path / "report.out"
    written = path.read_text() if path.exists() else None
    path.unlink(missing_ok=True)
    return out.getvalue(), err.getvalue(), code, written


def test_reused_parser_answers_as_a_new_one(tmp_path, monkeypatch):
    lines = _sequence(tmp_path)
    monkeypatch.setattr(cli, "_parser", None)
    reused = [_call(argv, tmp_path) for argv in lines]
    fresh = []
    for argv in lines:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_call(argv, tmp_path))
    for argv, a, b in zip(lines, reused, fresh):
        assert a == b, argv
    # Four calls fail: the unknown flag, the bad format, the missing command and file.
    codes = [result[2] for result in reused]
    assert codes.count(1) == 4 and codes.count(0) == len(lines) - 4
    assert sum(result[3] is not None for result in reused) == 2


def test_main_builds_the_parser_at_most_once(monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(["ass", "--ideal", IDEAL, "--nmax", "2"] if i % 2 else ["--version"])
                 for i in range(20)]
    assert codes == [0] * 20
    assert len(built) <= 1


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
