"""Irreducible decomposition, associated primes, dimension, and prime avoidance.

Every associated prime of a monomial quotient is generated by a subset of the
variables, so primes are represented by their variable support alone.  The
associated primes come by restriction: P_S is associated exactly when J with
the variables outside S set to 1 (:func:`~monofilt.ring.restriction`) has a
torsion cell on its staircase (:func:`~monofilt.ring.torsion_cells`), the
test that :func:`~monofilt.epsilon.h0_length` shares.  Witnesses come from
:func:`ass_witnesses`, one scan of the corner grid of the generators, which
finds the grlex-least witness w with (J : w) prime for every prime support
at once.  The irreducible components come from the same grid: by Alexander
duality they are its points w with (J : w) prime that sit at the top of
every axis off the prime's support.  Both scans decide each cell from the
generator bitmasks of :func:`~monofilt.ring.corner_masks`, built once per
scan, and both walk the grid by :func:`_prime_cells`, which leaves out the
cells inside the ideal.  The greedy filtration seeds its witness frontier
from the same walk.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import getitem

from .errors import DegenerateIdealError, InfeasibleError
from .ring import (
    Monomial,
    MonomialIdeal,
    Record,
    RingContext,
    corner_axes,
    corner_masks,
    grlex_key,
    ideal,
    restriction,
    torsion_cells,
)


class _Ordered(Record):
    """A record ordered by its fields in turn; only a record of its own class compares."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values() <= other._values()
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() > other._values()
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values() >= other._values()
        return NotImplemented


class MonomialPrime(_Ordered):
    """The prime generated by the variables listed in ``support`` (strictly increasing).

    Empty support is the zero ideal, prime because the ring is a domain.
    Primes are ordered by support.
    """

    _fields = ("support",)

    def __init__(self, support: tuple):
        support = tuple(support)
        if list(support) != sorted(set(support)):
            raise ValueError("prime support must be strictly increasing variable indices")
        object.__setattr__(self, "support", support)

    # Written out, not inherited: primes key every ledger.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.support == other.support
        return NotImplemented

    def __hash__(self):
        return hash((self.support,))

    def contains_prime(self, other: "MonomialPrime") -> bool:
        return set(other.support) <= set(self.support)

    def as_ideal(self, ctx: RingContext) -> MonomialIdeal:
        return ideal(ctx, [ctx.variable(i) for i in self.support])

    def names(self, ctx: RingContext) -> list:
        return [ctx.variable_names[i] for i in self.support]

    def codim(self) -> int:
        return len(self.support)


def colon_prime_support(masks, w: Monomial) -> "tuple | None":
    """Support of (U : w) when that colon is prime, for a point w of the grid.

    ``masks`` is a :func:`~monofilt.ring.corner_masks` table on a grid
    holding w, except that its ``full`` may be the mask of any generating
    set of U, minimal or not: the table may hold further bits, and every row
    counts only where it meets ``full`` (AND distributes over the ORs below,
    so the sums are masked, not each row).  Returns None when w lies in U or
    the colon is not prime.  Generator j leaves the residue x_i exactly when
    i is the only axis where g_j exceeds w and g_j[i] = w_i + 1; those i are
    the units.  The colon is prime exactly when every residue is divisible
    by a unit, that is when the OR of the units' ``above`` masks covers
    ``full``.  A generator that is not minimal is a multiple of one that is,
    so its residue is a multiple of that one's: it changes neither the units
    nor whether the OR covers, and the answer is the same for every
    generating set.
    """
    full, above, exact = masks
    # map, not a comprehension: Python 3.11 runs each comprehension in its own frame
    rows = list(map(getitem, above, w))
    once = twice = 0
    for m in rows:
        twice |= once & m
        once |= m
    if once & full != full:
        return None  # some generator exceeds w nowhere: w in U
    single = full & ~twice  # generators that exceed w on exactly one axis
    units = []
    covered = 0
    for i, e in enumerate(map(getitem, exact, w)):
        if single & e:
            units.append(i)
            covered |= rows[i]
    return tuple(units) if covered & full == full else None


class IrreducibleComponent(_Ordered):
    """The ideal of pure powers x_i^(a_i) for i in the domain; components order by bounds."""

    _fields = ("bounds",)  # sorted tuple of (variable index, positive exponent)

    def as_ideal(self, ctx: RingContext) -> MonomialIdeal:
        gens = []
        for i, a in self.bounds:
            e = [0] * ctx.num_vars
            e[i] = a
            gens.append(tuple(e))
        return ideal(ctx, gens)


def irreducible_decomposition(J: MonomialIdeal) -> tuple:
    """Irredundant irreducible components of a proper nonzero monomial ideal.

    By Alexander duality the components are points of the corner grid: a
    point w with (J : w) = P_S that sits at the top of every axis off S gives
    the component (x_i^(w_i + 1) : i in S), and every component arises once.
    """
    if J.is_zero() or J.is_unit():
        raise DegenerateIdealError("irreducible decomposition needs a proper nonzero ideal")
    axes = corner_axes(J.generators, J.ctx.num_vars)
    components = []
    for supp, w in _prime_cells(axes, corner_masks(J.generators, axes)):
        if all(w[i] == axes[i][-1] for i in range(len(w)) if i not in supp):
            components.append(IrreducibleComponent(tuple((i, w[i] + 1) for i in supp)))
    return tuple(sorted(components))


def _prime_cells(axes, masks):
    """(support of (U : w), w) for each cell w of the grid whose colon is prime.

    ``axes`` and ``masks`` are a grid and its :func:`corner_masks` table.
    Cells inside U have no prime colon and are skipped unscanned.  For each
    prefix of the leading axes the OR of their ``above`` rows is taken once;
    a cell lies in U when that OR and the last axis's row together miss a
    generator.  Membership only grows along the last axis, so its walk
    upward stops at the first cell in U.
    """
    full, above, _ = masks
    *lead, last = axes
    last_rows = [(a, above[-1][a]) for a in last]
    for prefix in product(*lead):
        reach = 0
        for col, a in zip(above, prefix):
            reach |= col[a]
        for a, row in last_rows:
            if reach | row != full:
                break  # this cell and every later one on the axis lie in U
            w = prefix + (a,)
            supp = colon_prime_support(masks, w)
            if supp is not None:
                yield supp, w


def _witness_for(gens, d: int) -> dict:
    """Map each prime colon support S of U to the grlex-least w with (U : w) = P_S.

    ``gens`` is the antichain of U in d variables.  The scan covers the corner
    grid only: for i outside S, lowering w_i to the largest generator exponent
    g_i <= w_i, or to 0, keeps the colon equal to P_S; for i in S, w_i = g_i - 1
    where g is the generator whose residue is x_i.  So every least witness has
    its exponents on the axes of :func:`corner_axes`, and one walk of that
    grid by :func:`_prime_cells` finds them all.
    """
    axes = corner_axes(gens, d)
    found = {}
    keys = {}
    for supp, w in _prime_cells(axes, corner_masks(gens, axes)):
        key = grlex_key(w)
        if supp not in keys or key < keys[supp]:
            keys[supp] = key
            found[supp] = w
    return found


def check_nonzero_module(J: MonomialIdeal) -> None:
    """Raise DegenerateIdealError when J is the unit ideal, so that R/J is the zero module."""
    if J.is_unit():
        raise DegenerateIdealError("R/J is the zero module")


def associated_primes(J: MonomialIdeal) -> tuple:
    """Associated primes of R/J, sorted by support.

    P_S lies in Ass(R/J) exactly when the maximal ideal m_S of the variables
    in S is associated to R_S/J_S, where J_S is J with every variable
    outside S set to 1 (:func:`~monofilt.ring.restriction`): localizing at
    P_S inverts those variables.  That holds exactly when R_S/J_S has torsion
    at m_S, that is when J_S has a cell of
    :func:`~monofilt.ring.torsion_cells`, the test that
    :func:`~monofilt.epsilon.h0_length` sums over.

    - (=>) If J : w = P_S, then w_S lies outside J_S and m_S * w_S lies
      inside J_S.
    - (<=) A torsion monomial has a multiple v outside J_S with J_S : v = m_S.
      Raise each coordinate outside S to the largest generator exponent, and
      the result is a witness in R.

    No cell is needed when J_S is the unit ideal (P_S does not contain J),
    when a variable of S occurs in no generator of J_S (it is a
    nonzerodivisor on R_S/J_S), or when S is one variable and J_S is proper.
    The witnesses themselves come from :func:`ass_witnesses`.
    """
    check_nonzero_module(J)
    if J.is_zero():
        return (MonomialPrime(()),)
    d = J.ctx.num_vars
    found = []
    for size in range(1, d + 1):
        for supp in combinations(range(d), size):
            gens = restriction(J.generators, supp)
            if gens is None or not all(map(any, zip(*gens))):
                continue
            if size == 1 or next(torsion_cells(gens, size), None) is not None:
                found.append(MonomialPrime(supp))
    return tuple(sorted(found))


def ass_witnesses(J: MonomialIdeal) -> dict:
    """Associated primes of R/J with witness monomials, as a prime -> witness map.

    The primes are the prime colons (J : w), sorted by support; each witness
    is the grlex-least w with (J : w) = P exactly.
    """
    check_nonzero_module(J)
    found = _witness_for(J.generators, J.ctx.num_vars)
    return {MonomialPrime(s): found[s] for s in sorted(found)}


def minimal_primes(J: MonomialIdeal) -> tuple:
    primes = associated_primes(J)  # already in prime order
    return tuple(p for p in primes if not any(q != p and p.contains_prime(q) for q in primes))


def dimension(J: MonomialIdeal) -> int:
    """Krull dimension of R/J."""
    return J.ctx.num_vars - min(p.codim() for p in minimal_primes(J))


def minh(J: MonomialIdeal) -> tuple:
    """Minimal primes of maximal-dimension components: dim R/P = dim R/J."""
    primes = minimal_primes(J)
    codim = min(p.codim() for p in primes)
    return tuple(p for p in primes if p.codim() == codim)


def prime_avoidance_element(ctx: RingContext, contain, avoid) -> Monomial:
    """A squarefree nonunit monomial inside every prime of ``contain`` and no prime of ``avoid``.

    Chooses minimal support, breaking ties toward earlier variables.  Raises
    :class:`InfeasibleError` when every admissible monomial meets an avoided
    prime.
    """
    blocked = set()
    for q in avoid:
        blocked.update(q.support)
    allowed = [i for i in range(ctx.num_vars) if i not in blocked]
    targets = [set(p.support) for p in contain]
    if any(not t for t in targets):
        raise InfeasibleError("no monomial lies in the zero ideal")
    for size in range(1, len(allowed) + 1):
        for subset in combinations(allowed, size):
            chosen = set(subset)
            if all(chosen & t for t in targets):
                e = [0] * ctx.num_vars
                for i in subset:
                    e[i] = 1
                return tuple(e)
    raise InfeasibleError(
        "every monomial meeting the containment targets lies in an avoided prime"
    )
