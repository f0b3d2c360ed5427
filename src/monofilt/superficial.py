"""Superficial elements for cyclic filtered modules, certified over a bounded range.

The module R/J carries the descending filtration (T(n) + J)/J where T(n) is
the n-th term ideal, ordinarily I^n.  A monomial x in T(m) is superficial of
order m when, past some index c, colon by x followed by truncation at level c
recovers the filtration exactly.  Certificates also record the threshold from
which the plain colon identity (T(n) + J) : x = (J : x) + T(n - m) holds; the
filtration engine rechecks that identity at every splice, so bounded
verification here never weakens a constructed filtration.

Splicing needs only that colon identity, not the defining condition.  One
scan over the candidates serves both certificate kinds: it keeps the
candidates whose identity holds on a suffix of the verified range, returns
the first of them that is also superficial, and otherwise returns the first
of them as a splice certificate.  A splice certificate is a distinct kind and
never stands in for a superficial one.

The Rees recurrence bounds how far up each condition must be checked level by
level.  Let I = (g_1, ..., g_s), let x be the monomial with exponent vector
a, and let T(n) = I^(n - h) * T(h) for every n >= h, where h + 1 is the
length of the term system's head (h = 0 for ordinary powers).  Put

    D(x) = sum over j of max over i with g_ji > 0 of ceil(a_i / g_ji).

Lemma.  T(k + 1) : x = I * (T(k) : x) for every k >= D(x) + h.

Proof.  I * (T(k) : x) lies in T(k + 1) : x because I * T(k) = T(k + 1).
Conversely let u be a monomial with u * x in T(k + 1) = I^(k + 1 - h) * T(h),
so u * x is a multiple of g^b * t with |b| = k + 1 - h and t in T(h).  If
g_j divides u for some j with b_j > 0, then u = g_j * (u / g_j) and
(u / g_j) * x is a multiple of g^(b - e_j) * t, which lies in T(k): u lies in
I * (T(k) : x).  Otherwise each j with b_j > 0 has an i with g_ji > u_i,
while u_i + a_i >= b_j * g_ji; so b_j * g_ji < a_i + g_ji, b_j <=
ceil(a_i / g_ji), and |b| <= D(x), against k + 1 - h > D(x).  (The
argument is Brodmann's finiteness of the Rees algebra, Proc. AMS 74, 1979,
made explicit for monomials.)

Consequences, for x in T(m), J the annihilator and rees = max(D(x) + h, m).
Monomial colons distribute over sums, so the colon identity at n says that
T(n) : x lies in (J : x) + T(n - m); the other containment always holds.
If it holds at some N >= rees, then T(N + 1) : x = I * (T(N) : x) lies in
(J : x) + T(N + 1 - m), so it holds at every n >= N: the threshold scan
checks rees first and, when the identity holds there, scans down from it
only.  Call the identity at level L known when threshold <= L and either
L <= verify_to, where the scan checked it, or rees <= verify_to.

The defining condition is the equality ((T(n + m) + J) : x) meet
(T(c) + J) = T(n) + J for c <= n, and one containment of it always holds:
x * T(n) lies in T(n) * T(m), inside T(n + m), and T(n) lies in T(c), so
T(n) + J lies in both factors of the meet.  So the condition is checked in
its containment form D(c, n): the meet lies in T(n) + J.  A meet of
monomial ideals is generated by the lcms of the generator pairs, so it lies
in T(n) + J when each of them does; the check tests them in turn, stops at
the first outside, and builds no intersection.  T(0) + J is R, whose one
generator leaves every lcm unchanged, so c = 0 is no special case.

In the distributive lattice of monomial ideals D(c, n) is A(n) and B(n):

    A(n): (J : x) meet (T(c) + J) in T(n) + J, and
    B(n): (T(n + m) : x) meet (T(c) + J) in T(n) + J.

T descends, so A(verify_to) implies A(n) for n <= verify_to; where the
identity at n + m is known, T(n + m) : x lies in (J : x) + T(n) and B(n)
follows from A(n).  So the search checks A(verify_to), and D(c, n) only at
the levels c <= n <= verify_to whose identity at n + m is not known.  A is
decided lcm by lcm, like D(c, n), but a monomial lies in T(verify_to) + J
exactly when it lies in J or in T(verify_to), and membership in a term is
decided by the walk of ``_lies_in_term`` over products of generators of I:
T(verify_to) is never built, and when J : x is zero, as at the root J = 0,
there is no lcm to test.  No shortcut enters a filtration: the engine
rechecks the identity at each level it splices, and every level is
validated.
"""

from __future__ import annotations

import math

from .ring import (
    Monomial,
    MonomialIdeal,
    Record,
    RingContext,
    _canonical,
    _checked,
    mono_divides,
    mono_lcm,
    mono_mul,
    unit_ideal,
)

# Largest superficial constant c tried by a certificate search.
C_MAX = 6
# Largest order of a candidate element tried by default.
ORDER_MAX = 3


class CyclicFilteredModule(Record):
    """R/annihilator filtered by the images of the terms T(n) of the filtration ideal.

    ``filtration_ideal`` is I, whose terms are its powers, or a term system of
    I (a :class:`TermSystem` or a :class:`~monofilt.closure.ClosureChain`);
    every function here reads it through :func:`terms_of`.
    """

    _fields = ("annihilator", "filtration_ideal")

    @property
    def ctx(self) -> RingContext:
        return self.annihilator.ctx


class SuperficialCertificate(Record):
    """An element x of T(order) outside the annihilator J, superficial past c.

    The colon identity holds for colon_threshold <= n <= verified_to and the
    defining condition for c <= n <= verified_to.  The search derives the
    condition at each level where the identity is known (module docstring)
    and checks it in full at the others; :func:`verify_certificate` checks
    every level.
    """

    _fields = ("element", "order", "c", "colon_threshold", "verified_to")

    def serialize(self, ctx: RingContext) -> dict:
        return {
            "element": ctx.monomial_str(self.element),
            "order": self.order,
            "c": self.c,
            "colon_threshold": self.colon_threshold,
            "verified_to": self.verified_to,
        }


class SpliceCertificate(Record):
    """An element x of T(order) outside the annihilator J, verified for splicing.

    (T(n) + J) : x = (J : x) + T(n - order) holds for colon_threshold <= n <=
    verified_to: checked level by level up to the Rees level of x and implied
    above it (module docstring), and checked at every level by
    :func:`verify_certificate`.  That is all splicing along x at level n
    needs; the defining condition of a superficial element is not claimed.
    """

    _fields = ("element", "order", "colon_threshold", "verified_to")


class TermSystem:
    """Caches the term ideals T(n) of a filtration of R, the sums T(n) + J and J : x.

    One recurrence builds every term: T(n) = I * T(n - 1) past a head
    T(0), ..., T(k - 1).  The head is (R,) for ordinary powers, T(n) = I^n;
    :class:`~monofilt.closure.ClosureChain` seeds a longer one.  T(n) must be
    descending with T(a) * T(b) contained in T(a + b), and T(n) for n <= 0
    is T(0), the unit ideal.

    Besides the terms, a system keeps one memo table, each key tagged with
    the method that fills it and each value computed once per system.  It
    holds the sums T(n) + J, which the searches, the engine's recheck and
    its splices read again and again; the annihilator colons
    J : x, which the threshold scan reads at every level it checks; and the
    per-level values read through :meth:`memo`, which two sweeps of one
    command share.  The colons (T(n) + J) : x are not kept: each is read
    by one comparison, and few are asked for twice; the engine reads each
    once per splice, in its recheck, and lifts the splice without a second
    colon.  Every analysis builds or receives a term system, so this is
    where a zero or unit ideal is refused.
    """

    def __init__(self, I: MonomialIdeal):
        if I.is_unit() or I.is_zero():
            raise ValueError("the filtration ideal must be proper and nonzero")
        self.I = I
        self.ctx = I.ctx
        self._terms = [unit_ideal(I.ctx)]
        self._head = 1  # T(n) = I * T(n - 1) from n = _head on
        self._memo = {}

    def term(self, n: int) -> MonomialIdeal:
        terms = self._terms
        for _ in range(len(terms), n + 1):
            terms.append(self.I * terms[-1])
        return terms[n if n > 0 else 0]

    def rees_level(self, x: Monomial) -> int:
        """D(x) + h: from k = D(x) + h on, T(k + 1) : x = I * (T(k) : x) (module docstring)."""
        return self._head - 1 + sum(
            max(-(-a // g) for a, g in zip(x, gen) if g) for gen in self.I.generators
        )

    def _cached(self, key: tuple, compute):
        # The one get-or-compute of the system's memo table.  Its values can
        # be falsy (a torsion length of 0), so presence is what is tested.
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def memo(self, fn, n: int):
        """fn(T(n)), computed once per system for each function and level.

        The sweeps and checks that share a system share these values:
        Ass(R/T(n)) for both sweeps of ``powers --mode both``, the torsion
        lengths for the estimate and the bound check of ``epsilon``.
        """
        # Uncached, torsion-closure's job list ran slower in 9 of 10 pairs, its best time +5 %.
        return self._cached(("memo", fn, n), lambda: fn(self.term(n)))

    def term_plus(self, J: MonomialIdeal, n: int) -> MonomialIdeal:
        """T(n) + J, cached; the base ideal of the module level n."""
        # Uncached, closure of (w^2*z^3, y^5, z^5, w^4*y^2) to n = 3 took 0.73 s, not 0.36 s.
        return self._cached(("sum", J, n), lambda: self.term(n) + J)

    def annihilator_colon(self, J: MonomialIdeal, x: Monomial) -> MonomialIdeal:
        """J : x, cached; the colon identity asks for it at every level."""
        # Uncached, theorem-sweep's job list ran slower in 7 of 10 pairs, its best time +4 %.
        return self._cached(("annihilator colon", J, x), lambda: J.colon_monomial(x))


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


def powers_of(source: "MonomialIdeal | TermSystem") -> TermSystem:
    """:func:`terms_of` of ``source``, refused unless its terms are the ordinary powers I^n.

    The analyses of R/I^n (torsion lengths, the bound check, the cm
    certificate) call it; a closure chain filters other modules.
    """
    ts = terms_of(source)
    if type(ts) is not TermSystem:
        raise ValueError(f"the analysis needs the powers of I, not a {type(ts).__name__}")
    return ts


def check_filters_powers(ts: TermSystem, filtrations: dict, levels) -> None:
    """Raise ValueError at the first of ``levels`` whose filtration's base is not I^n."""
    for n in levels:
        if filtrations[n].base != ts.term(n):
            raise ValueError(f"the filtrations do not filter R/I^{n}")


def _meet_lies_in(A: MonomialIdeal, B: MonomialIdeal, inside) -> bool:
    # A meet B is generated by the lcms of the generator pairs, so it lies in
    # an ideal when each of them does, as the predicate ``inside`` tells; the
    # scan stops at the first that does not.
    return all(inside(mono_lcm(a, b)) for a in A.generators for b in B.generators)


def _defining_condition_holds(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, c: int, n: int
) -> bool:
    # D(c, n) in its containment form (module docstring).
    colon = ts.term_plus(J, n + m).colon_monomial(x)
    return _meet_lies_in(colon, ts.term_plus(J, c), ts.term_plus(J, n).contains)


def _annihilator_condition_holds(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, c: int, n: int
) -> bool:
    # A(n): (J : x) meet (T(c) + J) lies in T(n) + J.  A monomial lies there
    # when it lies in J or in T(n), so each lcm is tested by membership and
    # T(n) is not built; with J = 0 there is no lcm to test.
    def inside(l: Monomial) -> bool:
        return J.contains(l) or _lies_in_term(ts, l, n)

    return _meet_lies_in(ts.annihilator_colon(J, x), ts.term_plus(J, c), inside)


def _superficial_to(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, c: int, verify_to: int, threshold: int
) -> bool:
    # The defining condition D(c, n) for c <= n <= verify_to: A(verify_to),
    # then D(c, n) at each level n whose colon identity at n + m is not known
    # (module docstring).
    known_to = math.inf if max(ts.rees_level(x), m) <= verify_to else verify_to
    return _annihilator_condition_holds(ts, J, x, c, verify_to) and all(
        _defining_condition_holds(ts, J, x, m, c, n)
        for n in range(c, verify_to + 1)
        if not threshold <= n + m <= known_to
    )


def _colon_identity_holds(ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n: int) -> bool:
    # (J : x) + T(n - m) is the base of the left child of a splice at level n.
    colon = ts.term_plus(J, n).colon_monomial(x)
    return colon == ts.term_plus(ts.annihilator_colon(J, x), max(n - m, 0))


def colon_threshold_for(
    ts: TermSystem, J: MonomialIdeal, x: Monomial, m: int, n_max: int
) -> int | None:
    """Least N with (T(n) + J) : x = (J : x) + T(n - m) for all N <= n <= n_max.

    The scan runs down and stops at the first level that fails; the result
    is None when the identity fails at n_max or n_max < 1.  It starts at the
    level start = max(D(x) + h, m), or n_max if lower: holding there, the
    identity holds at every level above (module docstring).  Failing there,
    the scan runs down from n_max to start.  x must lie in T(m); callers
    pass a generator of T(m) or check first.
    """
    start = min(n_max, max(ts.rees_level(x), m))
    if start >= 1 and _colon_identity_holds(ts, J, x, m, start):
        n, stop = start - 1, 0
    else:
        n, stop = n_max, start
    while n > stop and _colon_identity_holds(ts, J, x, m, n):
        n -= 1
    return n + 1 if n < n_max else None


def _lies_in_term(ts: TermSystem, x: Monomial, m: int) -> bool:
    # T(m) = I^(m - b) * T(b) with b = min(m, h) (module docstring), so x
    # lies in T(m) when some generator of T(b) times m - b generators of I
    # divides x.  The partial products that divide x are kept, only the
    # minimal ones, and the walk stops when none is left: T(m) is never
    # built, and a huge order costs at most deg(x) + 1 rounds.
    b = min(m, ts._head - 1)
    level = [t for t in ts.term(b).generators if mono_divides(t, x)]
    for _ in range(b, m):
        products = (mono_mul(p, g) for p in level for g in ts.I.generators)
        level = _canonical(q for q in products if mono_divides(q, x))
        if not level:
            return False
    return bool(level)


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
    verify_to: int,
) -> "SuperficialCertificate | SpliceCertificate | None":
    """One scan for both certificate kinds: order, then grlex candidates, then c.

    A candidate counts only when the colon identity holds on a suffix of
    1..verify_to.  The first such candidate whose defining condition holds
    for every c <= n <= verify_to, for some c <= C_MAX, is returned as a
    superficial certificate.  The condition at n = c holds for every x, since
    x * (T(c) + J) lies in T(c + m) + J, so c stops below verify_to and every
    certificate rests on a level n > c.  The colon identity is checked level
    by level from the Rees level of x down; the defining condition is
    checked as A(verify_to), and in full only at the levels n whose
    identity at n + m is not known (module docstring).  Monomial
    superficial elements need not exist; then the
    first candidate with a threshold is returned as a splice certificate,
    and None when there is none.

    Candidates in J are skipped, so a splice along x always strictly enlarges
    the annihilator J + (x) of the right branch, and its left branch drops to
    level n - order with order >= 1; that is what makes the engine's
    traversal of the splice graph terminate.
    """
    splice = None
    for m, x in _scan(ts, J, order_max):
        threshold = colon_threshold_for(ts, J, x, m, verify_to)
        if threshold is None:
            continue
        for c in range(0, min(C_MAX, verify_to - 1) + 1):
            if _superficial_to(ts, J, x, m, c, verify_to, threshold):
                return SuperficialCertificate(x, m, c, threshold, verify_to)
        if splice is None:
            splice = SpliceCertificate(x, m, threshold, verify_to)
    return splice


def find_superficial(
    module: CyclicFilteredModule,
    order_max: int = ORDER_MAX,
    n_max: int = 24,
) -> SuperficialCertificate | None:
    """Search for a monomial superficial element for the module.

    Returns None when no monomial candidate up to the given order verifies;
    callers fall back to the greedy filtration in that case.
    """
    check_counts(n_max=n_max, order_max=order_max)
    J = module.annihilator
    ts = terms_of(module.filtration_ideal)
    if J.contains_ideal(ts.term(1)):
        raise ValueError("the filtration ideal acts as zero on this module")
    cert = search_certificate(ts, J, order_max, n_max)
    return cert if isinstance(cert, SuperficialCertificate) else None


def colon_threshold(
    module: CyclicFilteredModule, x: Monomial, m: int, n_max: int
) -> int | None:
    """The threshold scan of :func:`colon_threshold_for` on the module's terms.

    The terms are the powers of I or those of the module's term system; x
    must lie in T(m).
    """
    check_counts(order=m)
    ts = terms_of(module.filtration_ideal)
    if not _lies_in_term(ts, x, m):
        raise ValueError("candidate element does not lie in the required term ideal")
    return colon_threshold_for(ts, module.annihilator, x, m, n_max)


def verify_certificate(
    module: CyclicFilteredModule, cert: "SuperficialCertificate | SpliceCertificate"
) -> bool:
    """Re-run a certificate's conditions from scratch at every recorded level.

    Both kinds must hold the colon identity at each level from colon_threshold
    to verified_to, and fail it one level below a threshold above 1; a
    superficial certificate must also hold the defining condition at each
    level from c to verified_to.  That condition is checked in its
    containment form, as in the search: ((T(n + m) + J) : x) meet
    (T(c) + J) lies in T(n) + J, and the reverse containment holds for every
    x in T(m) and n >= c (module docstring).  No level is derived from the
    Rees recurrence.  An order below 1, an element that is not a monomial of
    the ring, and an element acting as zero on the module all fail, and so does
    c outside 0..verified_to - 1: the defining condition at n = c holds for
    every x.  A zero or unit filtration ideal raises ValueError, as in
    find_superficial.

    The check runs on a new term system of the same kind as the module's,
    built from its ideal I, so it reads no term, sum or annihilator colon
    that a search cached and leaves the module's system unchanged.
    """
    given = terms_of(module.filtration_ideal)
    ts = type(given)(given.I)
    J = module.annihilator
    x, m = cert.element, cert.order
    threshold, top = cert.colon_threshold, cert.verified_to
    try:
        x = _checked(x, module.ctx.num_vars)
    except (TypeError, ValueError):
        return False
    if m < 1 or not 1 <= threshold <= top or J.contains(x) or not _lies_in_term(ts, x, m):
        return False
    if threshold > 1 and _colon_identity_holds(ts, J, x, m, threshold - 1):
        return False
    if not all(_colon_identity_holds(ts, J, x, m, n) for n in range(threshold, top + 1)):
        return False
    if isinstance(cert, SpliceCertificate):
        return True
    return 0 <= cert.c < top and all(
        _defining_condition_holds(ts, J, x, m, cert.c, n) for n in range(cert.c, top + 1)
    )


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
    k = 0
    for n in range(1, n_max + 1):
        t = ts.term(n)
        if not ts.term(n - 1).contains_ideal(t):
            raise ValueError("the term ideals are not descending")
        while powers.term(k + 1).contains_ideal(t):
            k += 1
        table.append(k)
    return table
