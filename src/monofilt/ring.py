"""Exact arithmetic on monomials and monomial ideals in a fixed polynomial ring.

A monomial is a plain tuple of nonnegative integer exponents, one entry per
ring variable.  A :class:`MonomialIdeal` stores its minimal generators as a
divisibility antichain, kept in graded-lexicographic order so that every
operation is deterministic and results can be compared for equality directly.
All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterable, Union

from .errors import IdealSyntaxError, InfiniteLengthError

Monomial = tuple  # exponent vector; the unit monomial is the all-zero tuple

# Parse-time guard only.  Python integers never wrap, so ideal arithmetic is
# exact at any size; rejecting absurd exponents at the boundary keeps reports
# desk-scale and catches malformed input early.
MAX_EXPONENT = 2**63 - 1


def grlex_key(e: Monomial):
    """Sort key for the graded order used everywhere for determinism.

    Lower total degree first; within a degree, monomials with higher
    exponents on earlier variables come first (so x precedes y, and
    x^2 precedes x*y).
    """
    return (sum(e), tuple(-v for v in e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_colon(g: Monomial, w: Monomial) -> Monomial:
    """Exponents of g / gcd(g, w); the generator map of an ideal colon."""
    return tuple(max(x - y, 0) for x, y in zip(g, w))


def mono_support(e: Monomial) -> tuple:
    return tuple(i for i, v in enumerate(e) if v)


@dataclass(frozen=True)
class RingContext:
    """The ambient polynomial ring, fixed by an ordered list of variable names."""

    variable_names: tuple

    def __post_init__(self):
        names = self.variable_names
        if not isinstance(names, tuple):
            object.__setattr__(self, "variable_names", tuple(names))
            names = self.variable_names
        if len(names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")

    @property
    def num_vars(self) -> int:
        return len(self.variable_names)

    def unit_monomial(self) -> Monomial:
        return (0,) * self.num_vars

    def variable(self, index: int) -> Monomial:
        e = [0] * self.num_vars
        e[index] = 1
        return tuple(e)

    def monomial(self, **exponents: int) -> Monomial:
        """Build a monomial from keyword exponents, e.g. ``ctx.monomial(x=2, y=1)``."""
        e = [0] * self.num_vars
        for name, value in exponents.items():
            e[self.variable_names.index(name)] = value
        return tuple(e)

    def monomial_str(self, e: Monomial) -> str:
        parts = []
        for name, exp in zip(self.variable_names, e):
            if exp == 1:
                parts.append(name)
            elif exp > 1:
                parts.append(f"{name}^{exp}")
        return "*".join(parts) if parts else "1"


def context(*names: str) -> RingContext:
    """Shorthand constructor: ``context("x", "y")``."""
    return RingContext(tuple(names))


def minimal_generators(ctx: RingContext, gens: Iterable[Monomial]) -> tuple:
    """Return the divisibility antichain generating the same ideal, grlex-sorted."""
    d = ctx.num_vars
    seen = set()
    ordered = []
    for g in gens:
        g = tuple(g)
        if len(g) != d:
            raise ValueError(f"monomial {g} has wrong length for {d} variables")
        if any(v < 0 for v in g):
            raise ValueError(f"monomial {g} has a negative exponent")
        if g not in seen:
            seen.add(g)
            ordered.append(g)
    ordered.sort(key=grlex_key)
    kept = []
    for g in ordered:
        if not any(mono_divides(k, g) for k in kept):
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators.

    The zero ideal has no generators; the unit ideal is generated by the unit
    monomial.  Instances constructed through :func:`ideal` or any operation
    here are canonical, so ``==`` is ideal equality.
    """

    ctx: RingContext
    generators: tuple

    def __post_init__(self):
        if not isinstance(self.generators, tuple):
            object.__setattr__(self, "generators", tuple(self.generators))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return self.generators == (self.ctx.unit_monomial(),)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def box(self) -> Monomial:
        """Componentwise maximum of the generator exponents (zeros for the zero ideal)."""
        d = self.ctx.num_vars
        if not self.generators:
            return (0,) * d
        return tuple(max(g[i] for g in self.generators) for i in range(d))

    def contains(self, w: Monomial) -> bool:
        return any(mono_divides(g, w) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.generators)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, self.generators + other.generators))

    def add_monomial(self, w: Monomial) -> "MonomialIdeal":
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, self.generators + (tuple(w),)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        prods = [mono_mul(a, b) for a in self.generators for b in other.generators]
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, prods))

    def __pow__(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("ideal powers need a nonnegative exponent")
        result = unit_ideal(self.ctx)
        for _ in range(n):
            result = result * self
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        lcms = [mono_lcm(a, b) for a in self.generators for b in other.generators]
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, lcms))

    def colon_monomial(self, w: Monomial) -> "MonomialIdeal":
        quots = [mono_colon(g, w) for g in self.generators]
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, quots))

    def colon(self, other: Union["MonomialIdeal", Monomial]) -> "MonomialIdeal":
        """(self : other); colon by an ideal intersects the colons by its generators."""
        if isinstance(other, tuple):
            return self.colon_monomial(other)
        result = unit_ideal(self.ctx)
        for b in other.generators:
            result = result.intersect(self.colon_monomial(b))
        return result

    def saturation(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """self : other^infinity, the intersection over generators b of other of self : b^infinity.

        Colon by ever higher powers of b sets the exponents on the support of b to 0.
        """
        if other.is_zero():
            raise ValueError("saturation by the zero ideal is undefined")
        result = unit_ideal(self.ctx)
        for b in other.generators:
            dropped = [tuple(0 if b[i] else v for i, v in enumerate(g)) for g in self.generators]
            result = result.intersect(MonomialIdeal(self.ctx, minimal_generators(self.ctx, dropped)))
        return result

    def radical(self) -> "MonomialIdeal":
        squarefree = [tuple(min(v, 1) for v in g) for g in self.generators]
        return MonomialIdeal(self.ctx, minimal_generators(self.ctx, squarefree))

    def colength(self) -> int:
        """Number of monomials outside the ideal, when finite.

        Finite exactly when every variable appears as a pure power among the
        generators; otherwise :class:`InfiniteLengthError` identifies an
        unbounded variable.  The count adds the volumes of the corner regions
        whose least corner lies outside the ideal.
        """
        for i, name in enumerate(self.ctx.variable_names):
            if not any(mono_support(g) == (i,) for g in self.generators):
                raise InfiniteLengthError(
                    f"R/ideal has infinite length: no pure power of '{name}' among the generators"
                )
        return sum(
            volume
            for corner, volume in corner_regions(corner_axes(self.generators, self.ctx.num_vars))
            if not self.contains(corner)
        )

    # -- presentation ------------------------------------------------------

    def generator_strings(self) -> list:
        return [self.ctx.monomial_str(g) for g in self.generators]

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(self.generator_strings()) + ")"


def ideal(ctx: RingContext, gens: Iterable[Monomial]) -> MonomialIdeal:
    """Public constructor; prunes to the minimal antichain."""
    return MonomialIdeal(ctx, minimal_generators(ctx, gens))


def zero_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ())


def unit_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, (ctx.unit_monomial(),))


def box_monomials(bounds: Monomial) -> list:
    """All monomials with exponents inside the inclusive box, grlex-sorted."""
    cells = _cartesian(*(range(b + 1) for b in bounds))
    return sorted(cells, key=grlex_key)


def corner_axes(gens, d: int) -> tuple:
    """Per variable i, the sorted exponents {0} | {g_i} | {g_i - 1} over the generators g.

    Membership in the ideal is constant between consecutive axis values, and
    the grid of these axes holds the grlex-least witness of every prime colon.
    """
    return tuple(
        tuple(sorted({0} | {g[i] for g in gens} | {g[i] - 1 for g in gens if g[i]}))
        for i in range(d)
    )


def corner_regions(axes):
    """(least corner, volume) of each box between consecutive values on every axis."""
    for spans in _cartesian(*(tuple(zip(a, a[1:])) for a in axes)):
        yield tuple(lo for lo, _ in spans), math.prod(hi - lo for lo, hi in spans)


# -- parsing ----------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise IdealSyntaxError(f"expected '{literal}'", self.pos)
        self.pos += len(literal)

    def ident(self) -> tuple:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise IdealSyntaxError("expected an identifier", self.pos)
        start = self.pos
        self.pos = m.end()
        return m.group(0), start

    def number(self) -> tuple:
        self.skip_ws()
        if self.peek() == "-":
            raise IdealSyntaxError("negative exponents are not allowed", self.pos)
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise IdealSyntaxError("expected a positive integer", self.pos)
        start = self.pos
        self.pos = m.end()
        return int(m.group(0)), start


def _parse_monomial(sc: _Scanner, ctx: RingContext) -> Monomial:
    exps = [0] * ctx.num_vars
    while True:
        name, at = sc.ident()
        if name not in ctx.variable_names:
            raise IdealSyntaxError(f"unknown variable name '{name}'", at)
        idx = ctx.variable_names.index(name)
        if sc.peek() == "^":
            sc.expect("^")
            value, at_num = sc.number()
            if value < 1:
                raise IdealSyntaxError("exponents must be at least 1", at_num)
            if value > MAX_EXPONENT:
                raise IdealSyntaxError("exponent too large", at_num)
        else:
            value = 1
        exps[idx] += value
        if exps[idx] > MAX_EXPONENT:
            raise IdealSyntaxError("accumulated exponent too large", at)
        if sc.peek() == "*":
            sc.expect("*")
            continue
        return tuple(exps)


def _parse_generators(sc: _Scanner, ctx: RingContext) -> MonomialIdeal:
    """The comma-separated generator list that runs to the end of the input."""
    gens = [_parse_monomial(sc, ctx)]
    while sc.peek() == ",":
        sc.expect(",")
        gens.append(_parse_monomial(sc, ctx))
    if not sc.at_end():
        raise IdealSyntaxError("unexpected trailing input", sc.pos)
    return ideal(ctx, gens)


def parse_ideal(text: str, ctx: RingContext) -> MonomialIdeal:
    """Parse a comma-separated generator list such as ``x^2*y, y^3``."""
    return _parse_generators(_Scanner(text), ctx)


def parse_problem(text: str) -> tuple:
    """Parse the full input form ``vars: x,y ; ideal: x^2*y, y^3``.

    Returns the ring context and the ideal.
    """
    sc = _Scanner(text)
    sc.expect("vars")
    sc.expect(":")
    names = []
    name, at = sc.ident()
    names.append((name, at))
    while sc.peek() == ",":
        sc.expect(",")
        names.append(sc.ident())
    seen = {}
    for name, at in names:
        if name in seen:
            raise IdealSyntaxError(f"duplicate variable name '{name}'", at)
        seen[name] = at
    ctx = RingContext(tuple(name for name, _ in names))
    sc.expect(";")
    sc.expect("ideal")
    sc.expect(":")
    return ctx, _parse_generators(sc, ctx)
