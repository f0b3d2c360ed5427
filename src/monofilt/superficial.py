"""Superficial elements for cyclic filtered modules, certified over a bounded range.

The module R/J carries the descending filtration (T(n) + J)/J where T(n) is
the n-th term ideal, ordinarily I^n.  A monomial x in T(m) is superficial of
order m when, past some index c, colon by x followed by truncation at level c
recovers the filtration exactly.  Certificates also record the threshold from
which the plain colon identity (T(n) + J) : x = (J : x) + T(n - m) holds; the
recursive filtration builder rechecks that identity at every use, so bounded
verification here never weakens a constructed filtration.

Splicing needs only that colon identity, not the defining condition.  One
scan over the candidates serves both certificate kinds: it keeps the
candidates whose identity holds on a suffix of the verified range, returns
the first of them that is also superficial, and otherwise returns the first
of them as a splice certificate.  A splice certificate is a distinct kind and
never stands in for a superficial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ring import Monomial, MonomialIdeal, RingContext, _checked, unit_ideal

# Largest superficial constant c tried by a certificate search.
C_MAX = 6
# Largest order of a candidate element tried by default.
ORDER_MAX = 3


@dataclass(frozen=True)
class CyclicFilteredModule:
    """R/annihilator filtered by images of the powers of the filtration ideal."""

    annihilator: MonomialIdeal
    filtration_ideal: MonomialIdeal

    @property
    def ctx(self) -> RingContext:
        return self.annihilator.ctx


@dataclass(frozen=True)
class SuperficialCertificate:
    element: Monomial
    order: int
    c: int
    colon_threshold: int
    verified_to: int

    def serialize(self, ctx: RingContext) -> dict:
        return {
            "element": ctx.monomial_str(self.element),
            "order": self.order,
            "c": self.c,
            "colon_threshold": self.colon_threshold,
            "verified_to": self.verified_to,
        }


@dataclass(frozen=True)
class SpliceCertificate:
    """An element x of T(order) outside the annihilator J, verified for splicing.

    (T(n) + J) : x = (J : x) + T(n - order) holds for colon_threshold <= n <=
    verified_to.  That is all splicing along x at level n needs; the defining
    condition of a superficial element is not claimed.
    """

    element: Monomial
    order: int
    colon_threshold: int
    verified_to: int


class TermSystem:
    """Caches the term ideals T(n) of a filtration of R, T(n) + J, and their colons.

    One recurrence builds every term: T(n) = I * T(n - 1) past a head
    T(0), ..., T(k - 1).  The head is (R,) for ordinary powers, T(n) = I^n;
    :class:`~monofilt.closure.ClosureChain` seeds a longer one.  T(n) must be
    descending with T(a) * T(b) contained in T(a + b), and T(n) for n <= 0
    is T(0), the unit ideal.

    The colons (T(n) + J) : x and J : x by a candidate x are what the
    certificate searches and the engine's recheck compare; each is computed
    once per system, and so is each per-level value read through
    :meth:`memo`.  Every analysis builds or receives a term system, so this
    is where a zero or unit ideal is refused.
    """

    def __init__(self, I: MonomialIdeal):
        if I.is_unit() or I.is_zero():
            raise ValueError("the filtration ideal must be proper and nonzero")
        self.I = I
        self.ctx = I.ctx
        self._terms = [unit_ideal(I.ctx)]
        self._sums = {}
        self._colons = {}
        self._annihilator_colons = {}
        self._memo = {}

    def term(self, n: int) -> MonomialIdeal:
        terms = self._terms
        for _ in range(len(terms), n + 1):
            terms.append(self.I * terms[-1])
        return terms[n if n > 0 else 0]

    def memo(self, fn, n: int):
        """fn(T(n)), computed once per system for each function and level.

        The sweeps and checks that share a system share these values:
        Ass(R/T(n)) for both sweeps of ``powers --mode both``, the torsion
        lengths for the estimate and the bound check of ``epsilon``.
        """
        key = (fn, n)
        if key not in self._memo:
            self._memo[key] = fn(self.term(n))
        return self._memo[key]

    def term_plus(self, J: MonomialIdeal, n: int) -> MonomialIdeal:
        """T(n) + J, cached; the base ideal of the module level n."""
        key = (J, n)
        if key not in self._sums:
            self._sums[key] = self.term(n) + J
        return self._sums[key]

    def colon(self, J: MonomialIdeal, n: int, x: Monomial) -> MonomialIdeal:
        """(T(n) + J) : x, cached; a certificate search asks for it at every c."""
        key = (J, n, x)
        if key not in self._colons:
            self._colons[key] = self.term_plus(J, n).colon_monomial(x)
        return self._colons[key]

    def annihilator_colon(self, J: MonomialIdeal, x: Monomial) -> MonomialIdeal:
        """J : x, cached; the colon identity asks for it at every level."""
        key = (J, x)
        if key not in self._annihilator_colons:
            self._annihilator_colons[key] = J.colon_monomial(x)
        return self._annihilator_colons[key]


def check_counts(**counts: int) -> None:
    """Raise ValueError naming the first of the keyword counts that is below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def terms_of(source: "MonomialIdeal | TermSystem", kind: type = TermSystem) -> TermSystem:
    """A new ``kind`` of the ideal ``source``, or ``source`` once it is checked to be a ``kind``."""
    if isinstance(source, MonomialIdeal):
        return kind(source)
    if not isinstance(source, kind):
        raise ValueError(f"expected a {kind.__name__}, got a {type(source).__name__}")
    return source


def _defining_condition_holds(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, c: int, n: int
) -> bool:
    # ((T(n+m) + J) : x) intersected with (T(c) + J) must equal T(n) + J.
    colon = ts.colon(J, n + m, x)
    cut = colon if c == 0 else colon.intersect(ts.term_plus(J, c))
    return cut == ts.term_plus(J, n)


def _colon_identity_holds(ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n: int) -> bool:
    lhs = ts.colon(J, n, x)
    rhs = ts.annihilator_colon(J, x) + ts.term(n - m)
    return lhs == rhs


def colon_threshold_for(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n_max: int
) -> Optional[int]:
    """Least N with (T(n) + J) : x = (J : x) + T(n - m) for all N <= n <= n_max.

    The scan runs down from n_max and stops at the first level that fails;
    the result is None when the identity fails at n_max or n_max < 1.  x must
    lie in T(m); callers pass a generator of T(m) or check first.
    """
    n = n_max
    while n >= 1 and _colon_identity_holds(ts, J, x, m, n):
        n -= 1
    return n + 1 if n < n_max else None


def _scan(ts: TermSystem, J: MonomialIdeal, order_max: int):
    # Candidate (order, element) pairs in scan order: order, then grlex, as
    # T(m) stores its generators.  Candidates in J act as zero and are skipped.
    for m in range(1, order_max + 1):
        for x in ts.term(m).generators:
            if not J.contains(x):
                yield m, x


def search_certificate(
    ts: TermSystem,
    J: MonomialIdeal,
    order_max: int,
    c_max: int,
    verify_to: int,
) -> "SuperficialCertificate | SpliceCertificate | None":
    """One scan for both certificate kinds: order, then grlex candidates, then c.

    A candidate counts only when the colon identity holds on a suffix of
    1..verify_to.  The first such candidate whose defining condition holds
    for every c <= n <= verify_to, for some c <= c_max, is returned as a
    superficial certificate.  The condition at n = c holds for every x, since
    x * (T(c) + J) lies in T(c + m) + J, so c stops below verify_to and every
    certificate rests on a level n > c.  Monomial superficial elements need
    not exist; then the first candidate with a threshold is returned as a
    splice certificate, and None when there is none.

    Candidates in J are skipped, so a splice along x always strictly enlarges
    the annihilator J + (x) of the right branch, and its left branch drops to
    level n - order with order >= 1; that is what lets the recursive builder
    terminate.
    """
    splice = None
    for m, x in _scan(ts, J, order_max):
        threshold = colon_threshold_for(ts, J, x, m, verify_to)
        if threshold is None:
            continue
        for c in range(0, min(c_max, verify_to - 1) + 1):
            if all(
                _defining_condition_holds(ts, J, x, m, c, n)
                for n in range(c, verify_to + 1)
            ):
                return SuperficialCertificate(x, m, c, threshold, verify_to)
        if splice is None:
            splice = SpliceCertificate(x, m, threshold, verify_to)
    return splice


def find_superficial(
    module: CyclicFilteredModule,
    order_max: int = ORDER_MAX,
    n_max: int = 24,
) -> Optional[SuperficialCertificate]:
    """Search for a monomial superficial element for the module.

    Returns None when no monomial candidate up to the given order verifies;
    callers fall back to the greedy filtration in that case.
    """
    check_counts(n_max=n_max, order_max=order_max)
    J, I = module.annihilator, module.filtration_ideal
    ts = TermSystem(I)
    if J.contains_ideal(I):
        raise ValueError("the filtration ideal acts as zero on this module")
    cert = search_certificate(ts, J, order_max, C_MAX, n_max)
    return cert if isinstance(cert, SuperficialCertificate) else None


def colon_threshold(
    module: CyclicFilteredModule, x: Monomial, m: int, n_max: int
) -> Optional[int]:
    """Public wrapper over the threshold scan for ordinary powers."""
    check_counts(order=m)
    ts = TermSystem(module.filtration_ideal)
    if not ts.term(m).contains(x):
        raise ValueError("candidate element does not lie in the required term ideal")
    return colon_threshold_for(ts, module.annihilator, x, m, n_max)


def verify_certificate(module: CyclicFilteredModule, cert: SuperficialCertificate) -> bool:
    """Re-run both certificate conditions from scratch over the recorded range.

    The colon threshold is recomputed, not rechecked level by level: it is
    the least level from which the colon identity holds up to verified_to,
    so equality with the recorded one covers the identity on that range.
    An order below 1, an element that is not a monomial of the ring, and an
    element acting as zero on the module all fail, and so does c outside
    0..verified_to - 1: the defining condition at n = c holds for every x.
    A zero or unit filtration ideal raises ValueError, as in find_superficial.
    """
    ts = TermSystem(module.filtration_ideal)
    J = module.annihilator
    x, m = cert.element, cert.order
    try:
        x = _checked(x, module.ctx.num_vars)
    except (TypeError, ValueError):
        return False
    if m < 1 or not 0 <= cert.c < cert.verified_to or J.contains(x) or not ts.term(m).contains(x):
        return False
    for n in range(cert.c, cert.verified_to + 1):
        if not _defining_condition_holds(ts, J, x, m, cert.c, n):
            return False
    return colon_threshold_for(ts, J, x, m, cert.verified_to) == cert.colon_threshold


def cofinality_table(source: "MonomialIdeal | TermSystem", n_max: int) -> list:
    """For each n, the largest k with T(n) contained in I^k.

    ``source`` is the ideal I, whose terms are its powers, or a term system
    of I.  The table certifies cofinality of T with ordinary powers over the
    verified range.
    """
    ts = terms_of(source)
    check_counts(n_max=n_max)
    powers = TermSystem(ts.I)
    table = []
    previous_term = None
    k = 0
    for n in range(1, n_max + 1):
        t = ts.term(n)
        if previous_term is not None and not previous_term.contains_ideal(t):
            raise ValueError("the term ideals are not descending")
        previous_term = t
        while powers.term(k + 1).contains_ideal(t):
            k += 1
        table.append(k)
    return table
