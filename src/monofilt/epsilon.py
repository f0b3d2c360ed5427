"""Lengths of the torsion part of R/I^n and the epsilon-multiplicity estimator.

The degree-zero local cohomology at the graded maximal ideal is realized as
sat(J)/J, whose monomials all lie inside the generator box of J, so each
length is a finite certified count over the corner regions of J.  The
estimator normalizes by d! / n^d and takes the maximum over a trailing window
as the limsup proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian  # noqa: F401  bench/tracer.py counts cells through it

from .decomposition import MonomialPrime
from .ring import MonomialIdeal, RingContext, corner_axes, corner_regions, ideal
from .superficial import TermSystem


def _maximal_ideal(ctx: RingContext) -> MonomialIdeal:
    return ideal(ctx, [ctx.variable(i) for i in range(ctx.num_vars)])


def h0_length(J: MonomialIdeal) -> int:
    """Length of sat(J)/J, the maximal-ideal torsion of R/J.

    Any monomial of sat(J) outside J has, in every variable, exponent
    strictly below that variable's maximum over the generators of J: a
    witness with a larger exponent would already be divisible by the
    generator that eventually absorbs it.  That box is the union of the
    corner regions of J.  Every generator exponent of sat(J) is 0 or one of
    J, so both memberships are constant on each region and are decided at
    its least corner.
    """
    if J.is_unit():
        raise ValueError("R/J is the zero module")
    saturated = J.saturation(_maximal_ideal(J.ctx))
    if saturated == J:
        return 0
    return sum(
        volume
        for corner, volume in corner_regions(corner_axes(J.generators, J.ctx.num_vars))
        if saturated.contains(corner) and not J.contains(corner)
    )


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


def epsilon_estimate(I: MonomialIdeal, n_max: int) -> EpsilonEstimate:
    """Torsion lengths of R/I^n for n up to n_max and the limsup proxy.

    The normalization exponent is the ring dimension, the largest the
    lengths can grow like; the estimate is the maximum of the normalized
    values over the trailing quarter of the range.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("the ideal must be proper and nonzero")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = I.ctx.num_vars
    ts = TermSystem(I)
    lengths = [(n, h0_length(ts.term(n))) for n in range(1, n_max + 1)]
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


def filtration_bound_check(I: MonomialIdeal, n_max: int, report) -> tuple:
    """Verify length(sat/I^n) <= multiplicity of the maximal ideal, per level.

    For a monomial prime P the torsion of R/P has length 1 when P is the
    maximal ideal and 0 otherwise, so the filtration's semi-additivity bound
    collapses to the maximal-ideal multiplicity.  ``report`` must be a powers
    report for the same ideal covering at least n_max.
    """
    if report.ideal != I:
        raise ValueError("the report covers a different ideal")
    if report.n_max < n_max:
        raise ValueError("the report does not cover the requested range")
    ts = TermSystem(I)
    maximal = MonomialPrime(tuple(range(I.ctx.num_vars)))
    rows = []
    for n in range(1, n_max + 1):
        length = h0_length(ts.term(n))
        mu = report.ledger_of(n).get(maximal, 0)
        rows.append(BoundCheckRow(n, length, mu, length <= mu))
    return tuple(rows)
