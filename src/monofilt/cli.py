"""Command-line entry points for the pipelines.

Commands parse one ideal, run the requested analysis, and emit a report in
one of three formats: a human-readable table, a canonical JSON document, or
a flat CSV table for spreadsheets.  Each command returns its report body and
the tables for the other two formats; one renderer builds the requested
format.  Reports embed the tool version and an echo of the mathematical
configuration; execution details are deliberately left out so identical
inputs produce byte-identical reports.  Commands run serially: ``--jobs`` is
accepted for compatibility and ignored, and ``MONOFILT_JOBS`` is not read.

Beyond the input and output flags and ``--nmax``, each command declares only
the options its handler reads (``_COMMANDS``), and the echo holds just those.

Exit codes: 0 success, 1 bad input or an infeasible request, 2 internal
certificate failure (an emitted filtration failed re-validation).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .closure import (
    ClosureChain,
    closure_powers_report,
    newton_polyhedron,
    noetherian_exponent,
    rees_cofinality_constant,
)
from .epsilon import epsilon_estimate, filtration_bound_check
from .errors import CertificateError, MonofiltError
from .filtration import cm_certificate
from .powers import WINDOW, ass_stability, powers_report
from .ring import parse_problem, zero_ideal
from .superficial import C_MAX, ORDER_MAX, CyclicFilteredModule, TermSystem, find_superficial

_FORMATS = ("human", "json", "csv")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; spec reserves 2 for certificate
    # failures, so route usage problems to exit code 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# Namespace fields the configuration echo leaves out: the command and the I/O flags.
_UNECHOED = frozenset(("command", "ideal", "ideal_file", "out", "format", "jobs"))

_OPTIONS = {
    "--mode": dict(choices=("naive", "theorem", "both"), default="theorem",
                   help="construction mode; 'both' emits two reports (CSV keeps the theorem table)"),
    "--window": dict(type=int, default=WINDOW, help="trailing window for stabilization detection"),
    "--order-max": dict(type=int, default=ORDER_MAX, help="largest superficial order to try"),
}

# Each command: its --nmax default, its help, and the options its handler reads.
_COMMANDS = {
    "powers": (8, "prime filtrations of R/I^n with analyzers", ("--mode", "--window", "--order-max")),
    "ass": (10, "associated primes of R/I^n per power", ("--window",)),
    "superficial": (24, "search for a certified superficial element", ("--order-max",)),
    "closure": (8, "Newton polyhedron and integral closures of powers", ("--window", "--order-max")),
    "epsilon": (20, "torsion lengths and the epsilon-multiplicity estimate", ("--order-max",)),
    "cm": (6, "localization certificate for Cohen-Macaulay powers", ("--order-max",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="monofilt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"monofilt {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    # Flags every command takes: where the input comes from and where the report goes.
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--ideal", help="inline input, e.g. 'vars: x,y ; ideal: x^2, x*y'")
    io_flags.add_argument("--ideal-file", help="path to a file holding the same input form")
    io_flags.add_argument("--out", help="write the report to this path instead of stdout")
    io_flags.add_argument("--format", choices=_FORMATS, default="human")
    io_flags.add_argument("--jobs", type=int, default=None,
                          help="accepted for compatibility and ignored; commands run serially")
    for name, (nmax_default, help_text, options) in _COMMANDS.items():
        sub = commands.add_parser(name, parents=[io_flags], help=help_text)
        sub.add_argument("--nmax", type=int, default=nmax_default, help="largest power to sweep")
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser


def _load_ideal(args):
    if bool(args.ideal) == bool(args.ideal_file):
        raise MonofiltError("provide exactly one of --ideal or --ideal-file")
    text = args.ideal
    if args.ideal_file:
        with open(args.ideal_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    ctx, I = parse_problem(text)
    if I.is_unit() or I.is_zero():
        raise MonofiltError("the ideal must be proper and nonzero")
    return ctx, I


def _config_echo(args, ctx, I) -> dict:
    """The parsed options of the command, which are exactly those its handler reads."""
    echo = {name: value for name, value in vars(args).items() if name not in _UNECHOED}
    echo["vars"] = list(ctx.variable_names)
    echo["ideal"] = I.generator_strings()
    return echo


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _run(handler, args) -> int:
    """Run one command and emit its report in the requested format.

    ``handler(args, ctx, I)`` returns the report body, a thunk for the CSV
    ``(header, rows)`` and a thunk for the human-readable lines; only the
    requested format is built.
    """
    ctx, I = _load_ideal(args)
    body, table, human = handler(args, ctx, I)
    if args.format == "json":
        doc = {
            "tool": {"name": "monofilt", "version": __version__},
            "command": args.command,
            "config": _config_echo(args, ctx, I),
            "report": body,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _csv_text(*table())
    else:
        text = "\n".join(human()) + "\n"
    _emit(args, text)
    return 0


def _prime_label(names) -> str:
    return ",".join(names)


def _prime_list(primes) -> str:
    return " ".join("(" + _prime_label(p) + ")" for p in primes)


# -- powers ------------------------------------------------------------------


def _human_powers(doc: dict) -> list:
    lines = [f"mode: {doc['mode']}  n_max: {doc['n_max']}"]
    lines.append("  n  steps  fallback  primes")
    for row in doc["per_n"]:
        primes = _prime_list(row["primes"])
        lines.append(f"{row['n']:>3}  {row['steps']:>5}  {str(row['fallback']):<8}  {primes}")
    lines.append(f"prime factors across the sweep: {_prime_list(doc['primes_union'])}")
    lines.append(f"stabilization: {json.dumps(doc['stabilization'], sort_keys=True)}")
    for entry in doc["growth"]:
        exp = "insufficient data" if entry["exponent"] is None else f"{entry['exponent']:.3f}"
        lines.append(f"growth ({_prime_label(entry['prime'])}): {exp} [{entry['points']} points]")
    if doc["superficial"] is not None:
        lines.append(f"superficial: {json.dumps(doc['superficial'], sort_keys=True)}")
    return lines


def _ledger_table(doc: dict):
    rows = [
        (row["n"], _prime_label(entry["prime"]), entry["multiplicity"])
        for row in doc["per_n"]
        for entry in row["ledger"]
    ]
    return ("n", "prime", "multiplicity"), rows


def cmd_powers(args, ctx, I):
    modes = ("naive", "theorem") if args.mode == "both" else (args.mode,)
    # both sweeps of --mode both read the powers from one term system
    terms = TermSystem(I)
    docs = {
        mode: powers_report(
            terms, args.nmax, mode, window=args.window, order_max=args.order_max
        ).to_document()
        for mode in modes
    }
    body = docs if args.mode == "both" else docs[args.mode]

    def human():
        lines = [f"monofilt {__version__} powers"]
        for doc in docs.values():
            lines.extend(_human_powers(doc))
        return lines

    # the CSV keeps the theorem table when both modes run
    return body, lambda: _ledger_table(docs[modes[-1]]), human


# -- ass ----------------------------------------------------------------------


def cmd_ass(args, ctx, I):
    body = ass_stability(I, args.nmax, window=args.window).to_document()

    def human():
        lines = [f"monofilt {__version__} ass  n_max: {args.nmax}"]
        for row in body["per_n"]:
            lines.append(f"{row['n']:>3}  {_prime_list(row['ass'])}")
        lines.append(f"union: {_prime_list(body['union'])}")
        lines.append(f"stability onset: {body['onset']}")
        return lines

    def table():
        rows = [(row["n"], _prime_label(p)) for row in body["per_n"] for p in row["ass"]]
        return ("n", "prime"), rows

    return body, table, human


# -- superficial ---------------------------------------------------------------


def cmd_superficial(args, ctx, I):
    module = CyclicFilteredModule(zero_ideal(ctx), I)
    cert = find_superficial(module, order_max=args.order_max, n_max=args.nmax)
    if cert is None:
        body = {
            "found": False,
            "search": {"order_max": args.order_max, "c_max": C_MAX, "n_max": args.nmax},
        }
        table = (("found",), [("false",)])
    else:
        c = cert.serialize(ctx)
        body = {"found": True, "certificate": c}
        table = (
            ("element", "order", "c", "colon_threshold", "verified_to"),
            [(c["element"], c["order"], c["c"], c["colon_threshold"], c["verified_to"])],
        )

    def human():
        return [f"monofilt {__version__} superficial", json.dumps(body, indent=2, sort_keys=True)]

    return body, lambda: table, human


# -- closure -------------------------------------------------------------------


def cmd_closure(args, ctx, I):
    poly = newton_polyhedron(I)
    # The chain is the command's term system: every analysis reads its closures.
    closures = ClosureChain(I)
    exponent = noetherian_exponent(closures, l_max=4, n_max=min(args.nmax, 6))
    rees = rees_cofinality_constant(closures, m_max=args.nmax)
    report = closure_powers_report(closures, args.nmax, window=args.window, order_max=args.order_max)
    body = {
        "polyhedron": poly.serialize(),
        # each filtration of the closure sweep has closure(I^n) as its base
        "closures": [
            {"n": n, "generators": report.filtrations[n].base.generator_strings()}
            for n in range(1, args.nmax + 1)
        ],
        "noetherian_exponent": exponent.to_document(),
        "rees_cofinality_constant": rees,
        "powers": report.to_document(),
    }

    def human():
        lines = [f"monofilt {__version__} closure  n_max: {args.nmax}"]
        lines.append("polyhedron: " + json.dumps(body["polyhedron"], sort_keys=True))
        for row in body["closures"]:
            lines.append(f"closure(I^{row['n']}): ({', '.join(row['generators'])})")
        lines.append(f"noetherian exponent: {exponent.exponent}")
        lines.append(f"rees cofinality constant: {rees}")
        lines.extend(_human_powers(body["powers"]))
        return lines

    return body, lambda: _ledger_table(body["powers"]), human


# -- epsilon -------------------------------------------------------------------


def cmd_epsilon(args, ctx, I):
    # one term system: the bound check reads the powers and lengths of the estimate
    terms = TermSystem(I)
    estimate = epsilon_estimate(terms, args.nmax)
    check_to = min(args.nmax, 12)
    report = powers_report(terms, check_to, "theorem", order_max=args.order_max)
    bound = filtration_bound_check(terms, check_to, report)
    body = estimate.to_document()
    body["bound_check"] = [
        {"n": row.n, "length": row.length, "maximal_multiplicity": row.maximal_multiplicity, "ok": row.ok}
        for row in bound
    ]

    def human():
        lines = [f"monofilt {__version__} epsilon  n_max: {args.nmax}"]
        lines.append("  n  length  normalized")
        for row in body["per_n"]:
            lines.append(f"{row['n']:>3}  {row['length']:>6}  {row['normalized']:.6f}")
        lines.append(f"estimate (window {body['window']}): {body['estimate']:.6f}")
        bad = [row for row in body["bound_check"] if not row["ok"]]
        lines.append(f"filtration bound check: {'pass' if not bad else 'FAIL ' + str(bad)}")
        return lines

    def table():
        rows = [(row["n"], row["length"], row["normalized"]) for row in body["per_n"]]
        return ("n", "length", "normalized"), rows

    return body, table, human


# -- cm ------------------------------------------------------------------------


def cmd_cm(args, ctx, I):
    report = powers_report(I, args.nmax, "theorem", order_max=args.order_max)
    cert = cm_certificate(I, report.filtrations)
    body = {
        "element": ctx.monomial_str(cert.element),
        "minh": [p.names(ctx) for p in cert.minh_primes],
        "dim": cert.quotient_dim,
        # powers_report refuses to hand back unvalidated filtrations
        "filtrations_validated": True,
        "per_n": [
            {
                "n": n,
                "surviving": [
                    {"prime": p.names(ctx), "multiplicity": c} for p, c in ledger
                ],
                "ok": ok,
            }
            for n, ledger, ok in cert.per_n
        ],
        "all_pass": cert.all_pass(),
    }

    def human():
        lines = [f"monofilt {__version__} cm  n_max: {args.nmax}"]
        lines.append(f"inverted element: {body['element']}")
        lines.append(f"minh: {_prime_list(body['minh'])}")
        for row in body["per_n"]:
            lines.append(f"{row['n']:>3}  {'pass' if row['ok'] else 'FAIL'}")
        lines.append(f"all levels: {'pass' if body['all_pass'] else 'FAIL'}")
        return lines

    def table():
        return ("n", "pass"), [(row["n"], str(row["ok"]).lower()) for row in body["per_n"]]

    return body, table, human


_HANDLERS = {
    "powers": cmd_powers,
    "ass": cmd_ass,
    "superficial": cmd_superficial,
    "closure": cmd_closure,
    "epsilon": cmd_epsilon,
    "cm": cmd_cm,
}


_parser = None


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The first call builds the argparse tree with ``build_parser()`` and keeps
    it for the rest of the process; later calls reuse it, since parsing keeps
    no state in the parser.  ``build_parser()`` itself returns a new parser on
    every call.  Nothing else is kept between calls.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1
    try:
        return _run(_HANDLERS[args.command], args)
    except CertificateError as err:
        print(f"monofilt: certificate failure: {err}", file=sys.stderr)
        return 2
    except (MonofiltError, OSError, ValueError) as err:
        print(f"monofilt: error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"monofilt: error: recursion limit of {limit} frames exceeded", file=sys.stderr)
        return 1
    except MemoryError:
        print("monofilt: error: memory limit of this process exceeded", file=sys.stderr)
        return 1
    except OverflowError as err:
        print(f"monofilt: error: a number is too large for this process: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
