"""Exact arithmetic on monomials and monomial ideals in a fixed polynomial ring.

A monomial is a plain tuple of nonnegative integer exponents, one entry per
ring variable.  A :class:`MonomialIdeal` stores its minimal generators as a
divisibility antichain, kept in graded-lexicographic order so that every
operation is deterministic and results can be compared for equality directly.
All values are immutable; operations are pure functions.

Raw monomials are checked once, by :func:`minimal_generators` (behind
:func:`ideal` and the parser); a monomial operand of an insert or a colon is
checked in O(d).  Every operation on two ideals first checks that they share
a ring, variable names included.  Results built from canonical operands are
trusted: sums and inserts merge antichains in |A| * |B| divisibility tests,
and every other operation sorts and prunes its derived monomials unchecked.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import product as _cartesian
from operator import add, itemgetter, le, neg

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
    return (sum(e), tuple(map(neg, e)))


# The kernels below run under every ideal operation.  ``map`` over operator
# functions, like ``zip``, stops at the shorter argument.


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_colon(g: Monomial, w: Monomial) -> Monomial:
    """Exponents of g / gcd(g, w); the generator map of an ideal colon."""
    return tuple([x - y if x > y else 0 for x, y in zip(g, w)])


def mono_support(e: Monomial) -> tuple:
    return tuple(i for i, v in enumerate(e) if v)


class Record:
    """An immutable value, equal to a record of its own class with equal fields.

    A subclass names its fields in ``_fields``; they are compared, hashed
    and shown in that order, and the hash is the hash of their tuple.  The
    constructor here takes exactly those fields, each once, positionally or
    by keyword, and stores them unchanged.  Five records write their own:
    :class:`MonomialIdeal`, built by every ring operation, stores its two
    fields directly; :class:`RingContext` and
    :class:`~monofilt.decomposition.MonomialPrime` check their input;
    :class:`~monofilt.filtration.ValidationResult` gives defaults; and
    :class:`~monofilt.powers.PowerRecord` keeps its term system, an attribute
    outside ``_fields``, so it is not compared, hashed or shown.  Nothing is
    generated at import, because every command pays for building its
    classes.
    """

    _fields = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            # the fields after the positional ones, in order; what stays is unknown or doubled
            values += tuple([named.pop(f) for f in fields[len(values) :] if f in named])
        if len(values) != len(fields) or named:
            raise TypeError(
                f"{self.__class__.__qualname__}({', '.join(fields)}) takes each field once, by"
                f" position or keyword; got {len(values)} values and leftover keywords {sorted(named)}"
            )
        # Field by field, not one update of ``__dict__``: reading ``__dict__``
        # moves the fields out of the object's inline values into a dict, and
        # Python 3.11 then reads each field three to four times slower (25 to 33
        # against 7 ns); built that way, records cost every workload 1-2 % of
        # ``wall_ref_s`` (BENCH_34.json).
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RingContext(Record):
    """The ambient polynomial ring, fixed by an ordered list of variable names."""

    _fields = ("variable_names",)

    def __init__(self, variable_names: tuple):
        names = tuple(variable_names)
        if len(names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")
        object.__setattr__(self, "variable_names", names)

    # Written out, not inherited: rings are compared by every ideal operation.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.variable_names == other.variable_names
        return NotImplemented

    def __hash__(self):
        return hash((self.variable_names,))

    @property
    def num_vars(self) -> int:
        return len(self.variable_names)

    def unit_monomial(self) -> Monomial:
        return (0,) * self.num_vars

    def variable(self, index: int) -> Monomial:
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} is out of range for {self.num_vars} variables")
        e = [0] * self.num_vars
        e[index] = 1
        return tuple(e)

    def monomial(self, **exponents: int) -> Monomial:
        """Build a monomial from keyword exponents, e.g. ``ctx.monomial(x=2, y=1)``."""
        e = [0] * self.num_vars
        for name, value in exponents.items():
            if name not in self.variable_names:
                raise ValueError(f"unknown variable name '{name}'")
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


def _checked(g, d: int) -> Monomial:
    """g as a tuple, once it is known to hold d nonnegative integer exponents."""
    g = tuple(g)
    if len(g) != d:
        raise ValueError(f"monomial {g} has wrong length for {d} variables")
    for v in g:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"monomial {g} needs nonnegative integer exponents")
    return g


def _prune(ordered: list) -> tuple:
    """Minimal generators of distinct monomials in grlex order.

    A divisor of g other than g itself has strictly lower degree, and grlex
    puts every lower degree first, so each g is compared only against the
    kept monomials of strictly lower degree; within one degree the distinct
    monomials form an antichain.  An equigenerated list needs no test at all.
    """
    lower = []  # kept monomials of degree below the current one
    current = []  # kept monomials of the current degree
    degree = -1
    for g in ordered:
        if sum(g) != degree:
            degree = sum(g)
            lower += current
            current = []
        for k in lower:
            if all(map(le, k, g)):
                break
        else:
            current.append(g)
    return tuple(lower + current)


def _merge(A: tuple, B: tuple) -> tuple:
    """Minimal generators of (A) + (B), for two grlex-sorted antichains A and B.

    a in A stays unless some b in B divides it, equality included; b in B
    stays unless a surviving a divides it, so a shared generator stays once.
    That is |A| * |B| divisibility tests, where pruning the union would take
    about (|A| + |B|)^2 / 2.  When one side is empty the other is returned as
    it is, so a sum with the zero ideal shares its operand's tuple.
    """
    if not A or not B:
        return A or B
    kept = []
    for a in A:
        for b in B:
            if all(map(le, b, a)):
                break
        else:
            kept.append(a)
    added = []
    for b in B:
        for a in kept:
            if all(map(le, a, b)):
                break
        else:
            added.append(b)
    kept += added
    kept.sort(key=grlex_key)
    return tuple(kept)


def _canonical(gens: Iterable[Monomial]) -> tuple:
    """Minimal generators of monomials already known to fit the ring, grlex-sorted."""
    return _prune(sorted(set(gens), key=grlex_key))


def minimal_generators(ctx: RingContext, gens: Iterable[Monomial]) -> tuple:
    """Return the divisibility antichain generating the same ideal, grlex-sorted.

    The one entry that checks its monomials: use it for generators from
    outside the ring's own arithmetic.
    """
    return _canonical(_checked(g, ctx.num_vars) for g in gens)


class MonomialIdeal(Record):
    """A monomial ideal held by its minimal generators.

    The zero ideal has no generators; the unit ideal is generated by the unit
    monomial.  Instances constructed through :func:`ideal` or any operation
    here are canonical, so ``==`` is ideal equality.
    """

    _fields = ("ctx", "generators")

    def __init__(self, ctx: RingContext, generators: tuple):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "generators", tuple(generators))

    # Written out, not inherited: ideals key the memo tables of every sweep.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ctx, self.generators) == (other.ctx, other.generators)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.generators))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return self.generators == (self.ctx.unit_monomial(),)

    def box(self) -> Monomial:
        """Componentwise maximum of the generator exponents (zeros for the zero ideal)."""
        d = self.ctx.num_vars
        if not self.generators:
            return (0,) * d
        return tuple(max(g[i] for g in self.generators) for i in range(d))

    def contains(self, w: Monomial) -> bool:
        return any(mono_divides(g, w) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        self._same_ring(other)
        return all(self.contains(g) for g in other.generators)

    # -- arithmetic --------------------------------------------------------

    def _same_ring(self, other: "MonomialIdeal") -> None:
        if other.ctx != self.ctx:
            rings = [f"k[{','.join(c.variable_names)}]" for c in (self.ctx, other.ctx)]
            raise ValueError(f"the operands lie in different rings: {rings[0]} and {rings[1]}")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        return MonomialIdeal(self.ctx, _merge(self.generators, other.generators))

    def add_monomial(self, w: Monomial) -> "MonomialIdeal":
        return MonomialIdeal(self.ctx, _merge(self.generators, (_checked(w, self.ctx.num_vars),)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        prods = (mono_mul(a, b) for a in self.generators for b in other.generators)
        return MonomialIdeal(self.ctx, _canonical(prods))

    def __pow__(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("ideal powers need a nonnegative exponent")
        result = unit_ideal(self.ctx)
        for _ in range(n):
            result = result * self
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        lcms = (mono_lcm(a, b) for a in self.generators for b in other.generators)
        return MonomialIdeal(self.ctx, _canonical(lcms))

    def colon_monomial(self, w: Monomial) -> "MonomialIdeal":
        w = _checked(w, self.ctx.num_vars)
        return MonomialIdeal(self.ctx, _canonical(mono_colon(g, w) for g in self.generators))

    def colon(self, other: "MonomialIdeal | Monomial") -> "MonomialIdeal":
        """(self : other); colon by an ideal intersects the colons by its generators."""
        if isinstance(other, tuple):
            return self.colon_monomial(other)
        self._same_ring(other)
        result = unit_ideal(self.ctx)
        for b in other.generators:
            result = result.intersect(self.colon_monomial(b))
        return result

    def saturation(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """self : other^infinity, the intersection over generators b of other of self : b^infinity.

        Colon by ever higher powers of b sets the exponents on the support of b to 0.
        """
        self._same_ring(other)
        if other.is_zero():
            raise ValueError("saturation by the zero ideal is undefined")
        result = unit_ideal(self.ctx)
        for b in other.generators:
            dropped = (tuple(0 if b[i] else v for i, v in enumerate(g)) for g in self.generators)
            result = result.intersect(MonomialIdeal(self.ctx, _canonical(dropped)))
        return result

    def radical(self) -> "MonomialIdeal":
        squarefree = (tuple(min(v, 1) for v in g) for g in self.generators)
        return MonomialIdeal(self.ctx, _canonical(squarefree))

    def colength(self) -> int:
        """Number of monomials outside the ideal, when finite.

        Finite exactly when every variable appears as a pure power among the
        generators, the unit monomial included (the unit ideal has colength
        0); otherwise :class:`InfiniteLengthError` identifies an unbounded
        variable.  The count is read off :func:`staircase`: in each of its
        cells the monomials outside the ideal are those with last exponent
        below the cell's top, which the pure power of the last variable
        always sets.
        """
        d = self.ctx.num_vars
        for i, name in enumerate(self.ctx.variable_names):
            if not any(mono_support(g) in ((), (i,)) for g in self.generators):
                raise InfiniteLengthError(
                    f"R/ideal has infinite length: no pure power of '{name}' among the generators"
                )
        return sum(volume * top for volume, top, _ in staircase(self.generators, d))

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


def corner_masks(gens, axes) -> tuple:
    """Generator bitmasks over a grid: ``(full, above, exact)``.

    For the generators g_0 ... g_(k-1) and the ascending per-variable axis
    values ``axes``, which must hold every generator exponent on that axis,
    ``above[i][a]`` sets bit j when g_j[i] > a, ``exact[i][a]`` sets bit j
    when g_j[i] = a + 1, and ``full`` = 2^k - 1.  Whether a grid
    point lies in the ideal, and what its colon is, depends only on which
    generators exceed it on which axis, so these masks answer every cell in
    O(d) integer operations.
    """
    above = []
    exact = []
    for i, axis in enumerate(axes):
        at = dict.fromkeys(axis, 0)  # generators with g_j[i] = a; every g_j[i] is on the axis
        for j, g in enumerate(gens):
            at[g[i]] |= 1 << j
        above_i, exact_i = {}, {}
        exceeding = 0
        for a in reversed(axis):
            above_i[a] = exceeding
            exact_i[a] = at.get(a + 1, 0)
            exceeding |= at[a]
        above.append(above_i)
        exact.append(exact_i)
    return (1 << len(gens)) - 1, tuple(above), tuple(exact)


def staircase(gens, d: int):
    """Walk the staircase of the last variable: ``(volume, top, floor)`` per cell.

    Membership of (p, t), with p on the first d - 1 variables, changes only
    where p crosses a generator exponent, so the cells are the boxes
    [lo, hi) between consecutive values of {0} | {g_i} on each leading axis,
    and ``volume`` counts the points p in one.  The generators are sorted by
    last exponent, so bit j of a :func:`corner_masks` row is ``gens[j]`` and
    the lowest set bit of a mask gives the least last exponent in it.

    ``top`` is the least last exponent among the generators that exceed the
    cell on no leading axis, or None when there is none: (p, t) lies outside
    the ideal exactly when t < top.  ``floor`` is the maximum over leading
    axes i of the least last exponent among the generators that exceed the
    cell on axis i alone, or None when some axis has no such generator; it
    is 0 when d = 1.  A monomial (p, t) outside the ideal lies in its
    saturation by the maximal ideal exactly when top and floor are set and
    floor <= t: each variable then has a generator that exceeds it on that
    variable alone.
    """
    gens = sorted(gens, key=itemgetter(d - 1))
    axes = [sorted({0} | {g[i] for g in gens}) for i in range(d - 1)]
    full, above, _ = corner_masks(gens, axes)

    def least(mask):
        return gens[(mask & -mask).bit_length() - 1][-1] if mask else None

    for cell in _cartesian(*(tuple(zip(axis, axis[1:])) for axis in axes)):
        volume = 1
        once = twice = 0  # generators exceeding the cell on exactly one, or on two or more, axes
        for col, (lo, hi) in zip(above, cell):
            volume *= hi - lo
            twice |= once & col[lo]
            once = (once | col[lo]) & ~twice
        floors = [least(col[lo] & once) for col, (lo, _) in zip(above, cell)]
        floor = None if None in floors else max(floors, default=0)
        yield volume, least(full & ~(once | twice)), floor


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
