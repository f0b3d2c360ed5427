"""Superficial elements for cyclic filtered modules, certified over a bounded range.

The module R/J carries the descending filtration (T(n) + J)/J where T(n) is
the n-th term ideal, ordinarily I^n.  A monomial x in T(m) is superficial of
order m when, past some index c, colon by x followed by truncation at level c
recovers the filtration exactly.  Certificates also record the threshold from
which the plain colon identity (T(n) + J) : x = (J : x) + T(n - m) holds; the
recursive filtration builder rechecks that identity at every use, so bounded
verification here never weakens a constructed filtration.

Splicing needs only that colon identity, not the defining condition.  Where no
monomial superficial element exists, a splice certificate records an element
for which the identity alone holds on a suffix of the verified range; it is a
distinct kind and never stands in for a superficial certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .ring import Monomial, MonomialIdeal, RingContext, grlex_key, unit_ideal


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
    """Caches the term ideals T(n) of a filtration of R.

    The default system is ordinary powers T(n) = I^n; the closure pipeline
    substitutes n -> integral closure of I^n.  T(n) must be descending with
    T(a) * T(b) contained in T(a + b); T(0) is the unit ideal.
    """

    def __init__(self, I: MonomialIdeal, term_fn: "Callable[[int], MonomialIdeal] | None" = None):
        self.I = I
        self.ctx = I.ctx
        self._term_fn = term_fn
        self._terms = {0: unit_ideal(I.ctx)}
        self._sums = {}

    def term(self, n: int) -> MonomialIdeal:
        if n <= 0:
            return self._terms[0]
        if n not in self._terms:
            if self._term_fn is None:
                self._terms[n] = self.term(n - 1) * self.I
            else:
                self._terms[n] = self._term_fn(n)
        return self._terms[n]

    def term_plus(self, J: MonomialIdeal, n: int) -> MonomialIdeal:
        """T(n) + J, cached; the base ideal of the module level n."""
        key = (J, n if n > 0 else 0)
        if key not in self._sums:
            self._sums[key] = self.term(n) + J
        return self._sums[key]

    def candidates(self, m: int) -> tuple:
        """Minimal generators of T(m) in grlex order, the superficial candidate pool."""
        return tuple(sorted(self.term(m).generators, key=grlex_key))


def _defining_condition_holds(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, c: int, n: int
) -> bool:
    # ((T(n+m) + J) : x) intersected with (T(c) + J) must equal T(n) + J.
    colon = ts.term_plus(J, n + m).colon_monomial(x)
    cut = colon if c == 0 else colon.intersect(ts.term_plus(J, c))
    return cut == ts.term_plus(J, n)


def _colon_identity_holds(ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n: int) -> bool:
    lhs = ts.term_plus(J, n).colon_monomial(x)
    rhs = J.colon_monomial(x) + ts.term(n - m)
    return lhs == rhs


def colon_threshold_for(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n_max: int
) -> Optional[int]:
    """Least N with (T(n) + J) : x = (J : x) + T(n - m) for all N <= n <= n_max."""
    if not ts.term(m).contains(x):
        raise ValueError("candidate element does not lie in the required term ideal")
    threshold = None
    for n in range(1, n_max + 1):
        if _colon_identity_holds(ts, J, x, m, n):
            if threshold is None:
                threshold = n
        else:
            threshold = None
    return threshold


def _scan(ts: TermSystem, J: MonomialIdeal, order_max: int):
    # Candidate (order, element) pairs in scan order: order, then grlex.
    # Candidates in J act as zero on the module and are skipped.
    for m in range(1, order_max + 1):
        for x in ts.candidates(m):
            if not J.contains(x):
                yield m, x


def search_certificate(
    ts: TermSystem,
    J: MonomialIdeal,
    order_max: int,
    c_max: int,
    verify_to: int,
) -> Optional[SuperficialCertificate]:
    """First certificate in scan order: order, then grlex candidates, then c.

    Candidates already lying in the annihilator act as zero on the module and
    are skipped.  A candidate is certified only when the defining condition
    holds for every c <= n <= verify_to and the colon identity holds on a
    suffix of the verified range; otherwise the scan moves on.  The condition
    at n = c holds for every x, since x * (T(c) + J) lies in T(c + m) + J, so
    c stops below verify_to and every certificate rests on a level n > c.
    Monomial superficial elements need not exist, in which case the result is
    None.
    """
    for m, x in _scan(ts, J, order_max):
        chosen_c = None
        for c in range(0, min(c_max, verify_to - 1) + 1):
            if all(
                _defining_condition_holds(ts, J, x, m, c, n)
                for n in range(c, verify_to + 1)
            ):
                chosen_c = c
                break
        if chosen_c is None:
            continue
        threshold = colon_threshold_for(ts, J, x, m, verify_to)
        if threshold is None:
            continue
        return SuperficialCertificate(
            element=x,
            order=m,
            c=chosen_c,
            colon_threshold=threshold,
            verified_to=verify_to,
        )
    return None


def search_splice_certificate(
    ts: TermSystem,
    J: MonomialIdeal,
    order_max: int,
    verify_to: int,
) -> Optional[SpliceCertificate]:
    """First splice certificate in scan order: order, then grlex candidates.

    The scan is that of :func:`search_certificate`, but a candidate is
    certified by the colon identity alone, holding on a suffix of 1..verify_to.
    Candidates in J are skipped, so a splice along x always strictly enlarges
    the annihilator J + (x) of the right branch, and its left branch drops to
    level n - order with order >= 1; that is what lets the recursive builder
    terminate.  The result is None when no candidate up to order_max verifies.
    """
    for m, x in _scan(ts, J, order_max):
        threshold = colon_threshold_for(ts, J, x, m, verify_to)
        if threshold is not None:
            return SpliceCertificate(
                element=x, order=m, colon_threshold=threshold, verified_to=verify_to
            )
    return None


def find_superficial(
    module: CyclicFilteredModule,
    order_max: int = 3,
    n_max: int = 24,
    c_max: int = 6,
) -> Optional[SuperficialCertificate]:
    """Search for a monomial superficial element for the module.

    Returns None when no monomial candidate up to the given order verifies;
    callers fall back to the greedy filtration in that case.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    J, I = module.annihilator, module.filtration_ideal
    if I.is_unit() or I.is_zero():
        raise ValueError("the filtration ideal must be proper and nonzero")
    if J.contains_ideal(I):
        raise ValueError("the filtration ideal acts as zero on this module")
    ts = TermSystem(I)
    return search_certificate(ts, J, order_max, c_max, n_max)


def colon_threshold(
    module: CyclicFilteredModule, x: Monomial, m: int, n_max: int
) -> Optional[int]:
    """Public wrapper over the threshold scan for ordinary powers."""
    ts = TermSystem(module.filtration_ideal)
    return colon_threshold_for(ts, module.annihilator, x, m, n_max)


def verify_certificate(module: CyclicFilteredModule, cert: SuperficialCertificate) -> bool:
    """Re-run both certificate conditions from scratch over the recorded range."""
    ts = TermSystem(module.filtration_ideal)
    J = module.annihilator
    x, m = cert.element, cert.order
    if not ts.term(m).contains(x):
        return False
    for n in range(cert.c, cert.verified_to + 1):
        if not _defining_condition_holds(ts, J, x, m, cert.c, n):
            return False
    for n in range(cert.colon_threshold, cert.verified_to + 1):
        if not _colon_identity_holds(ts, J, x, m, n):
            return False
    recomputed = colon_threshold_for(ts, J, x, m, cert.verified_to)
    return recomputed == cert.colon_threshold


def cofinality_table(
    I: MonomialIdeal,
    n_max: int,
    term_fn: "Callable[[int], MonomialIdeal] | None" = None,
    J: "MonomialIdeal | None" = None,
) -> list:
    """For each n, the largest k with T(n) + J contained in I^k + J.

    The table certifies cofinality of the term filtration with ordinary
    powers over the verified range; it must be nondecreasing for a monotone
    term function.
    """
    ctx = I.ctx
    if I.is_zero() or I.is_unit():
        raise ValueError("the filtration ideal must be proper and nonzero")
    if J is None:
        J = MonomialIdeal(ctx, ())
    if J.contains_ideal(I):
        raise ValueError("the filtration ideal acts as zero modulo the annihilator")
    ts = TermSystem(I, term_fn)
    powers = TermSystem(I)
    table = []
    previous_term = None
    k = 0
    for n in range(1, n_max + 1):
        t = ts.term(n)
        if previous_term is not None and not previous_term.contains_ideal(t):
            raise ValueError("term function is not monotone decreasing")
        previous_term = t
        if J.contains_ideal(t):
            raise ValueError(f"term ideal at level {n} vanishes modulo the annihilator")
        target = t + J
        while powers.term_plus(J, k + 1).contains_ideal(target):
            k += 1
        table.append(k)
    return table
