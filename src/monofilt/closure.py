"""Newton polyhedra and integral closures of powers of monomial ideals.

The Newton polyhedron NP(I) is the convex hull of the generator exponents
plus the nonnegative orthant.  Its facets are computed once per ideal, in
integers: the normal of a hyperplane through generators along coordinate
rays is the vector of signed maximal minors of their d - 1 spanning rows,
over its gcd.  A generator is a vertex when no other generator lies on every
facet tight at it.  The integral closure of I^n is the monomial ideal of
the lattice points of the dilation n * NP(I) (Huneke-Swanson, *Integral
Closure of Ideals, Rings, and Modules*, 2006, section 1.4).

Only the first few closures need that geometry.  For a monomial ideal I in d
variables,

    closure(I^(n+1)) = I * closure(I^n)   for every n >= d - 1.

Proof.  The product always lies in the closure.  Conversely let a be a
lattice point of (n+1) * NP(I).  Lower one coordinate of a until the point
a' reaches the boundary of (n+1) * NP(I); then a' lies on a facet
c . x = (n+1) * b with c >= 0.  Write a' = sum(l_j * g_j) + s with l, s >= 0
and sum(l_j) = n + 1.  Every g_j used lies on the facet and s is supported
where c vanishes, so the columns (g_j, 1) and (e_i, 0) of this system span
at most a d-dimensional space, and a basic solution has at most d nonzero
l_j (Caratheodory).  Some l_j is then at least (n+1)/d >= 1, so
a >= a' >= g_j and a - g_j dominates a combination of weight n: it lies in
closure(I^n), and a lies in I * closure(I^n).

The bound is sharp: closure((x^3, y^3)) is not (x^3, y^3), and for
I = (x^3, y^3, z^3) closure(I^2) is not I * closure(I).  Reid, Roberts and
Vitulli (Comm. Algebra 31, 2003) use the same bound to decide normality of
a monomial ideal from its powers below d.  So closures follow the
recurrence of ordinary powers, T(n) = I * T(n - 1), and differ from them
only in a scanned head: :class:`ClosureChain` is the term system whose head
holds the closures below max(d, 2), the lattice points of their dilations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, prod

from .errors import DimensionLimitError
from .powers import powers_report
from .ring import MonomialIdeal, Record, box_monomials, mono_divides
from .superficial import TermSystem, check_counts, cofinality_table, terms_of

_MAX_HULL_VARS = 6
_MAX_HEAD_CELLS = 10**6


def _det(rows) -> int:
    """Integer determinant, expanded along the last row, where the rays sit."""
    if not rows:
        return 1
    *head, last = rows
    return sum(
        (-1) ** (j + len(head)) * a * _det([r[:j] + r[j + 1 :] for r in head])
        for j, a in enumerate(last)
        if a
    )


def _null_vector(rows, d: int) -> "list | None":
    """Primitive normal of d - 1 rows: their signed maximal minors over the gcd.

    None when every minor is 0, that is when the rows have rank below d - 1.
    """
    minors = [(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)]
    common = gcd(*minors)
    return [m // common for m in minors] if common else None


class NewtonPolyhedron(Record):
    """Exact facet description of conv(generators) + nonnegative orthant."""

    # facets: tuple of (coefficient tuple, bound); all coefficients >= 0
    _fields = ("ctx", "generators", "facets", "vertices")

    def contains_point(self, point, scale: int = 1) -> bool:
        """Membership of an integer point in the ``scale``-fold dilation."""
        if any(v < 0 for v in point):
            return False
        return all(
            sum(a * p for a, p in zip(coeffs, point)) >= scale * bound
            for coeffs, bound in self.facets
        )

    def serialize(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "inequalities": [
                {"coefficients": list(coeffs), "bound": bound} for coeffs, bound in self.facets
            ],
        }


def _facets(gens, d: int):
    """Sorted (primitive normal, bound) facets of conv(gens) + orthant.

    A hyperplane through k generators along d - k coordinate rays, whose
    k - 1 differences and d - k rays have rank d - 1, that every generator
    satisfies with a nonnegative normal, meets the polyhedron in d affinely
    independent points: it is a facet.
    """
    rays = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    found = set()
    for k in range(1, d + 1):
        for gen_subset in combinations(gens, k):
            for ray_subset in combinations(range(d), d - k):
                v0 = gen_subset[0]
                rows = [tuple(a - b for a, b in zip(v, v0)) for v in gen_subset[1:]]
                rows += [rays[i] for i in ray_subset]
                normal = _null_vector(rows, d)
                if normal is None:
                    continue
                if all(v <= 0 for v in normal):
                    normal = [-v for v in normal]
                if any(v < 0 for v in normal):
                    continue
                bound = sum(a * b for a, b in zip(normal, v0))
                if all(sum(a * b for a, b in zip(normal, v)) >= bound for v in gens):
                    found.add((tuple(normal), bound))
    return tuple(sorted(found))


def _vertex_set(gens, facets):
    # The facets tight at a generator v cut out the least face F holding v,
    # and v lies in the relative interior of F.  The polyhedron lies in the
    # orthant, so it is pointed, and so is F: F has a vertex, which is a
    # generator.  So v is a vertex exactly when F is {v}, that is when no
    # other generator lies on every facet tight at v.
    tight = [
        {f for f in facets if sum(a * b for a, b in zip(f[0], v)) == f[1]} for v in gens
    ]
    return tuple(
        sorted(v for v, t in zip(gens, tight) if not any(u is not t and t <= u for u in tight))
    )


# Bounded so that a long-lived process does not keep every hull it ever built;
# one command needs a handful of entries.
@lru_cache(maxsize=128)
def newton_polyhedron(I: MonomialIdeal) -> NewtonPolyhedron:
    """Facets and vertices of the Newton polyhedron, exactly."""
    if I.is_zero():
        raise ValueError("the zero ideal has no Newton polyhedron")
    d = I.ctx.num_vars
    if d > _MAX_HULL_VARS:
        raise DimensionLimitError(
            f"polyhedral support is limited to {_MAX_HULL_VARS} variables, got {d}"
        )
    gens = I.generators
    facets = _facets(gens, d)
    return NewtonPolyhedron(
        ctx=I.ctx,
        generators=gens,
        facets=facets,
        vertices=_vertex_set(gens, facets),
    )


def integral_closure_power(source: "MonomialIdeal | ClosureChain", n: int) -> MonomialIdeal:
    """Integral closure of I^n: minimal lattice points of the n-fold dilation.

    ``source`` is I or its :class:`ClosureChain`, which answers from its
    terms.  For I, below n = max(d, 2) the lattice points are scanned:
    minimal members have each coordinate at most n times the largest
    exponent of that variable among the generators, so the scan over that
    box with divisibility pruning is exhaustive.  Higher powers are read
    from a new chain.  A scan of more than ``_MAX_HEAD_CELLS`` cells is
    refused with :class:`DimensionLimitError` before any cell is built.
    """
    check_counts(power=n)
    if not isinstance(source, MonomialIdeal) or n >= _scan_below(source):
        return terms_of(source, ClosureChain).term(n)
    I = source
    poly = newton_polyhedron(I)
    box = tuple(v * n for v in I.box())
    if (cells := prod(b + 1 for b in box)) > _MAX_HEAD_CELLS:
        raise DimensionLimitError(f"closure head scan of {cells} cells exceeds the limit {_MAX_HEAD_CELLS}")
    kept = []
    for p in box_monomials(box):
        if any(mono_divides(k, p) for k in kept):
            continue
        if poly.contains_point(p, scale=n):
            kept.append(p)
    return MonomialIdeal(I.ctx, tuple(kept))


def _scan_below(I: MonomialIdeal) -> int:
    # The first power that I times the previous closure gives (module docstring).
    return max(I.ctx.num_vars, 2)


class ClosureChain(TermSystem):
    """The term system T(n) = closure(I^n) of one ideal, one per command.

    Its head, the closures below max(d, 2), is scanned by
    :func:`integral_closure_power` when the chain is made; every later term
    is I times the one before, the recurrence of :class:`TermSystem`.
    """

    def __init__(self, I: MonomialIdeal):
        super().__init__(I)
        self._terms.extend(integral_closure_power(I, k) for k in range(1, _scan_below(I)))
        self._head = len(self._terms)


class NoetherianExponentResult(Record):
    # failures: tuple of (l, first power where equality broke)
    _fields = ("exponent", "l_max", "n_max", "failures")

    def to_document(self) -> dict:
        return {
            "exponent": self.exponent,
            "l_max": self.l_max,
            "n_max": self.n_max,
            "failures": [{"l": l, "first_failure": n} for l, n in self.failures],
        }


def noetherian_exponent(
    source: "MonomialIdeal | ClosureChain", l_max: int, n_max: int
) -> NoetherianExponentResult:
    """Least l with closure(I^l)^n = closure(I^(l*n)) for all n up to n_max.

    When no l up to l_max verifies, the result records where each candidate
    first failed.  ``source`` is I or its :class:`ClosureChain`.
    """
    check_counts(l_max=l_max, n_max=n_max)
    closures = terms_of(source, ClosureChain)
    failures = []
    for l in range(1, l_max + 1):
        closed = TermSystem(closures.term(l))
        first_bad = None
        for n in range(1, n_max + 1):
            if closed.term(n) != closures.term(l * n):
                first_bad = n
                break
        if first_bad is None:
            return NoetherianExponentResult(l, l_max, n_max, tuple(failures))
        failures.append((l, first_bad))
    return NoetherianExponentResult(None, l_max, n_max, tuple(failures))


def rees_cofinality_constant(source: "MonomialIdeal | ClosureChain", m_max: int) -> int:
    """Least k with closure(I^m) contained in I^(m-k) for all k < m <= m_max.

    ``source`` is I or its :class:`ClosureChain`.
    """
    check_counts(m_max=m_max)
    table = cofinality_table(terms_of(source, ClosureChain), m_max)
    return max([0] + [m - j for m, j in enumerate(table, 1)])


def closure_powers_report(source: "MonomialIdeal | ClosureChain", n_max: int, **kwargs):
    """Run the powers analyzers against the closure filtration n -> closure(I^n).

    ``source`` is I or its :class:`ClosureChain`.
    """
    return powers_report(terms_of(source, ClosureChain), n_max, **kwargs)
