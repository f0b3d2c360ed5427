"""Every command declares exactly the options that its handler reads.

A subparser's options are read off ``cli.build_parser()``.  The fields a
function reads are the ``args.<name>`` attributes in its source, found with
``ast``, nested functions included.  The input and output flags are shared:
the runner reads them, not the handlers.  One flag is declared and never
read, with its reason in ``_UNREAD``.
"""

import ast
import inspect
import json
import textwrap

import pytest

from monofilt import cli

_UNREAD = {"jobs": "accepted and ignored; acceptance criterion 12 passes --jobs 8"}


def _args_uses(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    return [
        parents[node]
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "args"
    ]


def reads(fn) -> set:
    """Names of the ``args`` fields that ``fn`` reads as attributes."""
    return {use.attr for use in _args_uses(fn) if isinstance(use, ast.Attribute)}


def hides_reads(fn) -> bool:
    """Whether ``fn`` uses ``args`` other than by attribute (getattr, vars, passing it on)."""
    return not all(isinstance(use, ast.Attribute) for use in _args_uses(fn))


def _shared() -> set:
    return (reads(cli._run) | reads(cli._load_ideal) | reads(cli._emit)) - {"command"}


def _handler(command: str):
    return cli._COMMANDS[command][-1]


def _declared(command: str) -> set:
    return set(vars(cli.build_parser().parse_args([command]))) - {"command"}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_declares_exactly_what_it_reads(command):
    assert not hides_reads(_handler(command))
    assert _declared(command) == reads(_handler(command)) | _shared() | set(_UNREAD)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_config_echo_names_what_the_handler_reads(command, capsys):
    argv = [command, "--ideal", "vars: x,y ; ideal: x^2, x*y", "--nmax", "2", "--format", "json"]
    assert cli.main(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert set(config) == reads(_handler(command)) | {"vars", "ideal"}


def test_reads_sees_nested_functions_and_rejects_hidden_reads():
    def handler(args):
        def inner():
            return args.beta

        return args.alpha, inner

    def hidden(args):
        return getattr(args, "alpha")

    assert reads(handler) == {"alpha", "beta"}
    assert not hides_reads(handler)
    assert hides_reads(hidden)
