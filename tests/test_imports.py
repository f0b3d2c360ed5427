"""Every name a module of the package imports is used, and every helper it defines.

Each ``src/monofilt/*.py`` is parsed with ``ast``.  A name counts as used
when it is loaded anywhere in the module, including inside a string
annotation.  An import kept on purpose carries ``# noqa: F401`` and a reason
on its line.  The package ``__init__.py`` imports to re-export, so it is
left out, as are ``__future__`` imports.

A module-level ``def`` or ``class`` counts as used when ``__init__.py``
re-exports it or some module of the package loads its name, bare, as an
attribute, or inside a string annotation.

Each message of the analyses' check policy has one raiser: a zero or unit
ideal is refused by ``TermSystem``, a count below 1 by ``check_counts``, a
term system other than the powers of I by ``powers_of``, filtrations whose
bases are not the powers of I by ``check_filters_powers``, and the zero
module R/J by ``check_nonzero_module``.

Importing the command line, under ``python -S`` so that no site hook
preloads anything, loads none of ``fractions``, ``decimal``,
``dataclasses``, ``inspect`` or ``typing``.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "monofilt"
_NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*(\S.*)?$")


def _modules():
    return sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno


def _used(tree) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            inner = ast.parse(annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    """Imported names that the module never uses and no reasoned noqa keeps."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used(tree)
    unused = []
    for name, line in _imported(tree):
        if name in used:
            continue
        kept = _NOQA.search(lines[line - 1])
        if kept is None or not kept.group(1):
            unused.append((name, line))
    return unused


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Modules every command would pay for at start-up.  The package computes in
# integers, and fractions would also load decimal.  Its records are written by
# hand: dataclasses loads inspect, and building each class execs its methods.
# Its annotations are strings, so typing is not needed for them.
_NOT_AT_START = ("fractions", "decimal", "dataclasses", "inspect", "typing")


def test_cli_imports_no_rational_arithmetic():
    probe = f"import sys, monofilt.cli; print(sorted(set({_NOT_AT_START!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    command = [sys.executable, "-S", "-c", probe]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "[]", done.stdout + done.stderr


def test_check_catches_unused_and_bare_noqa():
    source = (
        "from __future__ import annotations\n"
        "from os import (\n"
        "    path,\n"
        "    sep,\n"
        ")\n"
        "import json  # noqa: F401\n"
        "import sys  # noqa: F401  kept for its side effect\n"
        "import re\n"
        "def f(a: \"re.Pattern\") -> None:\n"
        "    return path\n"
    )
    assert unused_imports(source) == [("sep", 4), ("json", 6)]


def _defined(tree):
    """(name, line) for each module-level function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def dead_helpers(sources: dict) -> list:
    """(file, name, line) for each top-level def or class nothing exports or loads.

    ``sources`` maps the file names of one package, ``__init__.py`` among
    them, to their text.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    kept = {name for name, _ in _imported(trees["__init__.py"])}
    for tree in trees.values():
        kept |= _used(tree)
        kept.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return [
        (file, name, line)
        for file, tree in sorted(trees.items())
        for name, line in _defined(tree)
        if name not in kept
    ]


def test_no_dead_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def test_check_catches_dead_helpers():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "def exported(): return local()\n"
            "def local(): pass\n"
            "def dead(): pass\n"
            "class Named: pass\n"
            "class Unnamed: pass\n"
            "def _annotated(x: \"Named\"): pass\n"
        ),
        "b.py": "from . import a\nhandler = a._annotated\n",
    }
    assert dead_helpers(sources) == [("a.py", "dead", 3), ("a.py", "Unnamed", 5)]


# Each phrase of the check policy and the (file, function) pairs allowed to raise it.
_POLICY = {
    "must be proper and nonzero": (("superficial.py", "TermSystem.__init__"),),
    "must be at least 1": (("superficial.py", "check_counts"),),
    "the powers of I, not a": (("superficial.py", "powers_of"),),
    "do not filter R/I^": (("superficial.py", "check_filters_powers"),),
    "R/J is the zero module": (("decomposition.py", "check_nonzero_module"),),
}


def policy_raisers(sources: dict) -> list:
    """(file, function, phrase) for each raise whose message holds a phrase of ``_POLICY``.

    Only ``ValueError``, ``MonofiltError`` and ``DegenerateIdealError``
    raises count: the parser's ``IdealSyntaxError`` messages describe the
    input text at a position, not a request.  ``function`` is the qualified name of the enclosing def.
    """
    found = []

    def visit(file, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(file, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                func = child.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("ValueError", "MonofiltError", "DegenerateIdealError"):
                    text = "".join(
                        n.value
                        for n in ast.walk(child.exc)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    )
                    found.extend(
                        (file, ".".join(scope), phrase) for phrase in _POLICY if phrase in text
                    )
            visit(file, child, scope)

    for file, source in sources.items():
        visit(file, ast.parse(source), ())
    return sorted(found)


def test_check_policy_has_one_raiser_per_message():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _PACKAGE.glob("*.py")}
    expected = sorted((file, fn, phrase) for phrase, sites in _POLICY.items() for file, fn in sites)
    assert policy_raisers(sources) == expected


def test_check_catches_a_copied_policy_check():
    sources = {
        "a.py": (
            "class TermSystem:\n"
            "    def __init__(self, I):\n"
            "        raise ValueError('the filtration ideal must be proper and nonzero')\n"
            "def check_counts(**counts):\n"
            "    raise ValueError(f'{name} must be at least 1, got {value}')\n"
            "def sweep(n_max):\n"
            "    if n_max < 1:\n"
            "        raise ValueError(f'n_max must be at least 1, got {n_max}')\n"
            "def parse(text):\n"
            "    raise IdealSyntaxError('exponents must be at least 1', 0)\n"
            "def h0_length(J):\n"
            "    raise DegenerateIdealError('R/J is the zero module')\n"
        ),
    }
    assert policy_raisers(sources) == [
        ("a.py", "TermSystem.__init__", "must be proper and nonzero"),
        ("a.py", "check_counts", "must be at least 1"),
        ("a.py", "h0_length", "R/J is the zero module"),
        ("a.py", "sweep", "must be at least 1"),
    ]
