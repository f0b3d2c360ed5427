"""Irreducible decomposition, associated primes, dimension, and prime avoidance.

Every associated prime of a monomial quotient is generated by a subset of the
variables, so primes are represented by their variable support alone.  The
associated primes come from one scan of the corner grid of the generators,
which finds the grlex-least witness w with (J : w) prime for every prime
support at once.  The decomposition is the classical splitting of a mixed
generator into its pure parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DegenerateIdealError, InfeasibleError
from .ring import (
    Monomial,
    MonomialIdeal,
    RingContext,
    corner_axes,
    grlex_key,
    ideal,
    mono_colon,
    mono_support,
)


@dataclass(frozen=True)
class MonomialPrime:
    """The prime generated by the variables listed in ``support`` (strictly increasing).

    Empty support is the zero ideal, prime because the ring is a domain.
    """

    support: tuple

    def __post_init__(self):
        if not isinstance(self.support, tuple):
            object.__setattr__(self, "support", tuple(self.support))
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("prime support must be strictly increasing variable indices")

    def contains_prime(self, other: "MonomialPrime") -> bool:
        return set(other.support) <= set(self.support)

    def as_ideal(self, ctx: RingContext) -> MonomialIdeal:
        return ideal(ctx, [ctx.variable(i) for i in self.support])

    def names(self, ctx: RingContext) -> list:
        return [ctx.variable_names[i] for i in self.support]

    def codim(self) -> int:
        return len(self.support)


def colon_prime_support(gens, w: Monomial) -> "tuple | None":
    """Support of (U : w) when that colon is prime, without minimalizing.

    ``gens`` is the antichain of U.  Returns None when w lies in U or the
    colon is not prime.  The colon is prime exactly when every colon residue
    is divisible by a residue that is a single variable.
    """
    residues = []
    units = set()
    for g in gens:
        r = mono_colon(g, w)
        if not any(r):
            return None  # w in U
        residues.append(r)
        if sum(r) == 1:
            units.add(r.index(1))
    for r in residues:
        if not any(r[i] for i in units):
            return None
    return tuple(sorted(units))


@dataclass(frozen=True)
class IrreducibleComponent:
    """An ideal generated by pure variable powers: x_i^(a_i) for i in the domain."""

    bounds: tuple  # sorted tuple of (variable index, positive exponent)

    def as_ideal(self, ctx: RingContext) -> MonomialIdeal:
        gens = []
        for i, a in self.bounds:
            e = [0] * ctx.num_vars
            e[i] = a
            gens.append(tuple(e))
        return ideal(ctx, gens)


def _is_pure_power_ideal(J: MonomialIdeal) -> bool:
    return all(len(mono_support(g)) <= 1 for g in J.generators)


def _component_of(J: MonomialIdeal) -> IrreducibleComponent:
    bounds = []
    for g in J.generators:
        (i,) = mono_support(g)
        bounds.append((i, g[i]))
    return IrreducibleComponent(tuple(sorted(bounds)))


def irreducible_decomposition(J: MonomialIdeal) -> tuple:
    """Irredundant irreducible components of a proper nonzero monomial ideal.

    Splitting rule: take the grlex-least generator with mixed support and
    split off its least variable.  The intersection of the result equals J.
    """
    if J.is_zero() or J.is_unit():
        raise DegenerateIdealError("irreducible decomposition needs a proper nonzero ideal")
    ctx = J.ctx
    leaves = set()
    memo = set()
    stack = [J]
    while stack:
        current = stack.pop()
        if current in memo:
            continue
        memo.add(current)
        if _is_pure_power_ideal(current):
            leaves.add(_component_of(current))
            continue
        split_gen = next(g for g in current.generators if len(mono_support(g)) > 1)
        i = mono_support(split_gen)[0]
        pure = [0] * ctx.num_vars
        pure[i] = split_gen[i]
        rest = list(split_gen)
        rest[i] = 0
        stack.append(current.add_monomial(tuple(pure)))
        stack.append(current.add_monomial(tuple(rest)))

    components = sorted(leaves, key=lambda c: c.bounds)
    # Drop components containing the intersection of the others.
    changed = True
    while changed:
        changed = False
        for k, comp in enumerate(components):
            others = components[:k] + components[k + 1 :]
            if not others:
                break
            meet = others[0].as_ideal(ctx)
            for other in others[1:]:
                meet = meet.intersect(other.as_ideal(ctx))
            if comp.as_ideal(ctx).contains_ideal(meet):
                components.pop(k)
                changed = True
                break
    return tuple(components)


def _witness_for(gens, d: int) -> dict:
    """Map each prime colon support S of U to the grlex-least w with (U : w) = P_S.

    ``gens`` is the antichain of U in d variables.  The scan covers the corner
    grid only: for i outside S, lowering w_i to the largest generator exponent
    g_i <= w_i, or to 0, keeps the colon equal to P_S; for i in S, w_i = g_i - 1
    where g is the generator whose residue is x_i.  So every least witness has
    its exponents on the axes of :func:`corner_axes`.
    """
    found = {}
    for w in sorted(product(*corner_axes(gens, d)), key=grlex_key):
        supp = colon_prime_support(gens, w)
        if supp is not None and supp not in found:
            found[supp] = w
    return found


def associated_primes(J: MonomialIdeal) -> dict:
    """Associated primes of R/J with witness monomials, as a prime -> witness map.

    The primes are the prime colons (J : w), sorted by support; each witness
    is the grlex-least w with (J : w) = P exactly.
    """
    if J.is_unit():
        raise DegenerateIdealError("R/J is zero for the unit ideal")
    found = _witness_for(J.generators, J.ctx.num_vars)
    return {MonomialPrime(s): found[s] for s in sorted(found)}


def minimal_primes(J: MonomialIdeal) -> tuple:
    primes = list(associated_primes(J))
    minimal = [
        p
        for p in primes
        if not any(q != p and p.contains_prime(q) for q in primes)
    ]
    return tuple(sorted(minimal, key=lambda p: p.support))


def dimension(J: MonomialIdeal) -> int:
    """Krull dimension of R/J."""
    return J.ctx.num_vars - min(p.codim() for p in minimal_primes(J))


def minh(J: MonomialIdeal) -> tuple:
    """Minimal primes of maximal-dimension components: dim R/P = dim R/J."""
    codim = min(p.codim() for p in minimal_primes(J))
    return tuple(p for p in minimal_primes(J) if p.codim() == codim)


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
