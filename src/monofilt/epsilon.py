"""Lengths of the torsion part of R/I^n and the epsilon-multiplicity estimator.

The degree-zero local cohomology at the graded maximal ideal is realized as
sat(J)/J, whose monomials all lie inside the generator box of J, so each
length is a difference of two finite colengths.  The estimator normalizes by
d! / n^d and takes the maximum over a trailing window as the limsup proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian  # noqa: F401  bench/tracer.py counts cells through it

from .decomposition import MonomialPrime, check_nonzero_module
from .ring import MonomialIdeal, ideal
from .superficial import TermSystem, check_counts, check_filters_powers, powers_of


def h0_length(J: MonomialIdeal) -> int:
    """Length of sat(J)/J, the maximal-ideal torsion of R/J.

    Any monomial of sat(J) outside J has, in every variable, exponent
    strictly below that variable's maximum over the generators of J: a
    witness with a larger exponent would already be divisible by the
    generator that eventually absorbs it.  So with B the pure powers at J's
    generator box, sat(J)/J has the length of (sat(J) + B)/(J + B), which is
    colength(J + B) - colength(sat(J) + B).  When sat(J) differs from J every
    variable occurs in J (a variable absent from J is a nonzerodivisor on
    R/J), so B is proper and both colengths are finite.
    """
    check_nonzero_module(J)
    d = J.ctx.num_vars
    saturated = J.saturation(MonomialPrime(tuple(range(d))).as_ideal(J.ctx))
    if saturated == J:
        return 0
    pure = ideal(J.ctx, [tuple(b if j == i else 0 for j in range(d)) for i, b in enumerate(J.box())])
    return (J + pure).colength() - (saturated + pure).colength()


@dataclass(frozen=True)
class EpsilonEstimate:
    ideal: MonomialIdeal
    n_max: int
    dim: int
    lengths: tuple  # tuple of (n, length)
    normalized: tuple  # tuple of (n, d! * length / n^dim)
    window: int
    estimate: float

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


@dataclass(frozen=True)
class BoundCheckRow:
    n: int
    length: int
    maximal_multiplicity: int
    ok: bool


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
