"""Lengths of the torsion part of R/I^n and the epsilon-multiplicity estimator.

The degree-zero local cohomology at the graded maximal ideal is realized as
sat(J)/J, whose monomials are counted on J's own staircase, the walk that
:meth:`~monofilt.ring.MonomialIdeal.colength` shares.  The estimator
normalizes by d! / n^d and takes the maximum over a trailing window as the
limsup proxy.
"""

from __future__ import annotations

import math
from itertools import product as _cartesian  # noqa: F401  bench/tracer.py counts cells through it

from .decomposition import MonomialPrime, check_nonzero_module
from .ring import MonomialIdeal, Record, staircase
from .superficial import TermSystem, check_counts, check_filters_powers, powers_of


def h0_length(J: MonomialIdeal) -> int:
    """Length of sat(J)/J, the maximal-ideal torsion of R/J.

    A monomial w outside J lies in sat(J) = the intersection of the
    J : x_i^infinity exactly when each variable x_i has a generator that
    exceeds w on x_i alone.  In a cell of :func:`~monofilt.ring.staircase`
    over the first d - 1 variables, the last variable asks for a generator
    that exceeds the cell on no leading axis and w on the last one: t < top.
    A leading axis i asks for a generator that exceeds the cell on axis i
    alone and not w on the last axis: t >= floor.  So each cell holds
    top - floor torsion monomials above each of its points, when both are
    set and top > floor; outside every cell some leading exponent reaches
    the generator box, where no generator exceeds w on that axis.
    """
    check_nonzero_module(J)
    cells = staircase(J.generators, J.ctx.num_vars)
    return sum(v * (top - floor) for v, top, floor in cells if None not in (top, floor) and top > floor)


class EpsilonEstimate(Record):
    # lengths: tuple of (n, length); normalized: tuple of (n, d! * length / n^dim)
    _fields = ("ideal", "n_max", "dim", "lengths", "normalized", "window", "estimate")

    def to_document(self) -> dict:
        return {
            "ideal": self.ideal.generator_strings(),
            "n_max": self.n_max,
            "dim": self.dim,
            "per_n": [
                {"n": n, "length": l, "normalized": round(v, 9)}
                for (n, l), (_, v) in zip(self.lengths, self.normalized)
            ],
            "window": self.window,
            "estimate": round(self.estimate, 9),
        }


def epsilon_estimate(source: "MonomialIdeal | TermSystem", n_max: int) -> EpsilonEstimate:
    """Torsion lengths of R/I^n for n up to n_max and the limsup proxy.

    The normalization exponent is the ring dimension, the largest the
    lengths can grow like; the estimate is the maximum of the normalized
    values over the trailing quarter of the range.  ``source`` is I or a
    term system of its powers, which keeps the lengths for a later
    :func:`filtration_bound_check` given the same system.
    """
    ts = powers_of(source)
    I = ts.I
    check_counts(n_max=n_max)
    d = I.ctx.num_vars
    lengths = [(n, ts.memo(h0_length, n)) for n in range(1, n_max + 1)]
    factor = math.factorial(d)
    normalized = [(n, factor * l / n**d) for n, l in lengths]
    window = max(1, math.ceil(n_max / 4))
    estimate = max(v for _, v in normalized[-window:])
    return EpsilonEstimate(
        ideal=I,
        n_max=n_max,
        dim=d,
        lengths=tuple(lengths),
        normalized=tuple(normalized),
        window=window,
        estimate=estimate,
    )


class BoundCheckRow(Record):
    _fields = ("n", "length", "maximal_multiplicity", "ok")


def filtration_bound_check(source: "MonomialIdeal | TermSystem", n_max: int, report) -> tuple:
    """Verify length(sat/I^n) <= multiplicity of the maximal ideal, per level.

    For a monomial prime P the torsion of R/P has length 1 when P is the
    maximal ideal and 0 otherwise, so the filtration's semi-additivity bound
    collapses to the maximal-ideal multiplicity.  ``source`` is I or a term
    system of its powers, which supplies the powers and any lengths it
    already holds; :func:`~monofilt.superficial.powers_of` refuses any other
    term system.  ``report`` must be a powers report of I filtering R/I^n for
    n up to n_max, checked level by level against the system's I^n by
    :func:`~monofilt.superficial.check_filters_powers`, the check
    :func:`~monofilt.filtration.cm_certificate` shares; a closure sweep has
    the same ideal but filters other modules.
    """
    ts = powers_of(source)
    I = ts.I
    check_counts(n_max=n_max)
    if report.ideal != I:
        raise ValueError("the report covers a different ideal")
    if report.n_max < n_max:
        raise ValueError("the report does not cover the requested range")
    check_filters_powers(ts, report.filtrations, range(1, n_max + 1))
    maximal = MonomialPrime(tuple(range(I.ctx.num_vars)))
    rows = []
    for n in range(1, n_max + 1):
        length = ts.memo(h0_length, n)
        mu = report.ledger_of(n).get(maximal, 0)
        rows.append(BoundCheckRow(n, length, mu, length <= mu))
    return tuple(rows)
