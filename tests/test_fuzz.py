"""No input text ends in an uncaught exception or parses to a zero or unit ideal: parser and CLI fuzz."""

import contextlib
import io

from hypothesis import given, strategies as st

from monofilt import IdealSyntaxError, cli, parse_problem

# Tokens of the input grammar plus a few strays; numbers stay single digits
# so that any ideal that parses is small.
_TOKENS = st.sampled_from(
    ["vars", "ideal", ":", ";", ",", "^", "*", "-", " ", "x", "y", "z", "x", "y", "0", "1", "2", "3", "7", "#", "é"]
)
_token_text = st.lists(_TOKENS, max_size=20).map("".join)


@st.composite
def _ideal_texts(draw):
    names = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=3, unique=True))
    words = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [
            f"{name}^{draw(st.integers(1, 5))}"
            for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        ]
        words.append("*".join(factors))
    return f"vars: {','.join(names)} ; ideal: {', '.join(words)}"


_inputs = st.one_of(_ideal_texts(), _token_text, st.text(max_size=40))


@given(_inputs)
def test_parse_problem_raises_only_input_errors(text):
    try:
        parse_problem(text)
    except (IdealSyntaxError, ValueError):
        pass


@given(_inputs)
def test_parsed_ideals_are_proper_and_nonzero(text):
    # Every generator names a variable with an exponent of at least 1, and
    # there is at least one, so the command line needs no check of its own.
    try:
        _, I = parse_problem(text)
    except (IdealSyntaxError, ValueError):
        return
    assert not I.is_zero() and not I.is_unit()


@given(_inputs)
def test_cli_exit_codes_without_traceback(text):
    for command in (
        ["ass"],
        ["powers", "--mode", "naive"],
        ["powers", "--mode", "both"],
        ["superficial"],
        ["closure"],
        ["epsilon"],
        ["cm"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command + ["--ideal", text, "--nmax", "1", "--format", "json"])
        assert code in (0, 1, 2), command
        assert "Traceback" not in err.getvalue()
