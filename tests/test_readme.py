"""The README's examples run as written.

The Python block under "Library use" runs, and each line it prints matches
the comment on its ``print`` line.  Every ``monofilt ...`` line of the block
under "Command line" runs through ``cli.main`` and exits 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from monofilt import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section, language):
    """The first ``language`` code block after the heading ``## section``."""
    match = re.search(rf"^## {section}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {language} block under '## {section}'"
    return match.group(1)


def test_library_example_prints_what_its_comments_say():
    code = _block("Library use", "python")
    expected = [line.split("  # ", 1)[1] for line in code.splitlines()
                if line.startswith("print(") and "  # " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_examples_exit_zero():
    lines = [line for line in _block("Command line", "sh").splitlines() if line.startswith("monofilt ")]
    assert len(lines) == 7
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(shlex.split(line)[1:]) == 0, line
