"""Prime filtrations of cyclic monomial quotients R/J.

A filtration is certified by its witness chain: starting from U_0 = J, each
step adjoins a witness monomial w with (U_k : w) equal to the claimed prime,
and the chain must end at the unit ideal.  Each step realizes a quotient
isomorphic to R/P, so the chain is a prime filtration of R/J with the primes
read off the steps.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from itertools import product
from operator import attrgetter, getitem, itemgetter

from .decomposition import (
    MonomialPrime,
    _prime_cells,
    colon_prime_support,
    minh,
    prime_avoidance_element,
)
from .errors import GluePreconditionError
from .ring import (
    Monomial,
    MonomialIdeal,
    Record,
    corner_axes,
    corner_masks,
    grlex_key,
    mono_mul,
    mono_support,
)
from .superficial import TermSystem, check_counts, check_filters_powers, powers_of


class PrimeFiltration(Record):
    """Base ideal plus the ordered (witness, prime) steps of a certified chain."""

    _fields = ("base", "steps")  # steps: tuple of (Monomial, MonomialPrime)

    def _supports(self):
        # Primes are counted by their support tuples, which hash in C.
        return map(attrgetter("support"), map(itemgetter(1), self.steps))

    def primes(self) -> tuple:
        """Distinct prime factors, in canonical order."""
        return tuple(map(MonomialPrime, sorted(set(self._supports()))))

    def ledger(self) -> Counter:
        """Multiplicity of each prime among the steps, in order of first appearance."""
        return Counter({MonomialPrime(s): c for s, c in Counter(self._supports()).items()})


class ValidationResult(Record):
    _fields = ("ok", "step", "reason")

    def __init__(self, ok: bool, step: "int | None" = None, reason: "str | None" = None):
        super().__init__(ok, step, reason)

    def __bool__(self) -> bool:
        return self.ok


def naive_prime_filtration(J: MonomialIdeal) -> PrimeFiltration:
    """Greedy prime filtration of R/J.

    At each step, take the witness map of the chain ideal U (the grlex-least
    w with (U : w) prime, for each prime support), keep the supports maximal
    under inclusion, and adjoin the grlex-least of their witnesses.
    Termination: each step strictly enlarges U inside a Noetherian poset.

    The witness map is kept up to date, not rescanned.  One walk of the
    corner grid of J (:func:`~monofilt.decomposition._prime_cells`) puts
    every cell with a prime colon on a grlex-sorted queue for its support.
    The mask table then grows by one bit per witness, ``full`` holds every
    bit so far, a generating set of U as in :func:`validate`, and each axis
    gains the values w_i and w_i - 1.  A queue's head is rechecked before
    it is read and dropped once its colon has moved: colons only grow as U
    grows, so a colon that has left P_T never returns to it.

    Update rule.  Let (U : w) = P_S and U' = U + (w), and call a witness v
    of T *reduced* when no v - e_i, i outside T, is one.  The least witness
    is reduced, and a reduced witness lies on the corner grid of U: for i in
    T, v_i = g_i - 1 for the generator g whose residue is x_i, and for i
    outside T, v_i is 0 or a generator exponent, since lowering it to the
    next such value keeps the colon.  The first walk therefore queues every
    reduced witness of J.  Then:

    * (U' : v) = (U : v) + (w / gcd(w, v)), and w / gcd(w, v) lies in
      (U : v) exactly when lcm(w, v) / w lies in P_S, that is when
      v_i > w_i for some i in S.  So the colon at v changes exactly on the
      region v_i <= w_i for every i in S.
    * In the region the new colon is prime only if the added generator m
      is one of its minimal generators, a variable x_j: v_j = w_j - 1, v
      agrees with w on S minus j, and v >= w off S and j.  These cells are
      scanned on the grown grid and queued.
    * A witness v of T for U' that is reduced for U' and lies outside the
      region witnesses T for U and is reduced for U, so it is queued
      already.  Otherwise some v' = v - e_i, i outside T,
      witnesses T for U; v' must lie in the region, or it would witness T
      for U' too, so i is in S with v_i = w_i + 1.  But then
      w / gcd(w, v') = w / gcd(w, v), which lies in P_T for v and outside
      it for v'.

    By induction every queue holds every reduced witness of its support, so
    its checked head is the least witness; cells outside the region,
    whether on old or on new axis values, need no scan.
    """
    d = J.ctx.num_vars
    if J.is_unit():
        return PrimeFiltration(J, ())
    gens = J.generators
    axes = [list(axis) for axis in corner_axes(gens, d)]
    masks = corner_masks(gens, axes)
    full, above, exact = masks
    queues = {}
    for supp, v in _prime_cells(axes, masks):
        queues.setdefault(supp, []).append((grlex_key(v), v))
    for queue in queues.values():
        queue.sort()
    bit = full + 1  # the bit of the next witness
    primes = {}
    steps = []
    while True:
        tops = []
        for supp, queue in queues.items():
            while queue and colon_prime_support(masks, queue[0][1]) != supp:
                del queue[0]
            if queue:
                tops.append((queue[0], supp, set(supp)))
        # the least witness among the supports maximal under inclusion
        (_, w), supp, _ = min(top for top in tops if not any(top[2] < t[2] for t in tops))
        if supp not in primes:
            primes[supp] = MonomialPrime(supp)
        steps.append((w, primes[supp]))
        if not any(w):
            return PrimeFiltration(J, tuple(steps))
        for i, a in enumerate(w):
            if a:
                _insert_value(axes[i], above[i], exact[i], a - 1)
                _insert_value(axes[i], above[i], exact[i], a)
                exact[i][a - 1] |= bit
                row = above[i]
                for b in axes[i][: bisect_left(axes[i], a)]:
                    row[b] |= bit
        full |= bit
        bit <<= 1
        masks = (full, above, exact)
        for j, a in enumerate(w):
            if not a:
                continue
            choices = [axis[bisect_left(axis, b):] for axis, b in zip(axes, w)]
            for i in supp:
                choices[i] = (w[i],)
            choices[j] = (a - 1,)
            # Walked with _prime_cells(choices, masks) instead, greedy-ass's job list
            # ran slower in 8 of 8 rounds, its best time +10 %.
            for v in product(*choices):
                found = colon_prime_support(masks, v)
                if found is not None:
                    insort(queues.setdefault(found, []), (grlex_key(v), v))


def _insert_value(axis: list, above: dict, exact: dict, a: int) -> None:
    """Put the value a on one axis of a growing mask table, if it is new.

    Every generator exponent lies on the axis, and so does g_i - 1 for each
    generator g, so no generator has g_i in (b, a] for the next value b below
    a, nor g_i = a + 1: a takes b's ``above`` row and an empty ``exact`` row.
    """
    if a not in above:
        k = bisect_left(axis, a)
        axis.insert(k, a)
        above[a] = above[axis[k - 1]]
        exact[a] = 0


def _first_malformed(steps, d: int) -> "int | None":
    """Index of the first step that is not a monomial and prime of the ring, if any."""
    indices = set(range(d))
    for k, step in enumerate(steps):
        if not (isinstance(step, tuple) and len(step) == 2):
            return k
        w, prime = step
        if not (
            isinstance(w, tuple)
            and len(w) == d
            and isinstance(prime, MonomialPrime)
            and indices.issuperset(prime.support)
        ):
            return k
        for v in w:
            if not isinstance(v, int) or v < 0:
                return k
    return None


def validate(filtration: PrimeFiltration) -> ValidationResult:
    """Check every chain invariant exactly; report the first failing step.

    One :func:`~monofilt.ring.corner_masks` table over the base generators
    and every witness, one bit each, decides all steps.  The chain ideal U_k
    is generated by the base and the witnesses before step k, whose bits
    form ``prefix``.  That set need not be minimal.  A generator that is not
    minimal is a multiple of one that is, so it exceeds w on every axis where
    that one does: it is never the only generator that divides w, or w*x_i,
    or that exceeds w off the prime's support alone, and each check below
    gives the same verdict on ``prefix`` as on the minimal generators of
    U_k.  At a step with witness w, ``rows[i]`` holds the generators that
    exceed w on axis i:

    * w already lies in U_k when some generator exceeds it nowhere, that is
      when the OR of the rows misses part of ``prefix``;
    * (U_k : w) is larger than the prime when some generator exceeds w off
      the prime's support only, so the OR of the support's rows misses part
      of ``prefix``;
    * it is smaller when, for some x_i of the support, no generator exceeds
      w on axis i alone and there by exactly one, which is the only way a
      generator that does not divide w can divide w*x_i.

    The chain ends at the unit ideal exactly when the unit monomial is among
    the generators.  Each step costs O(d) integer operations.  Verdicts keep
    the order "already lies", "larger", "smaller"; a step that is not a
    monomial and prime of the ring is reported only once every step before
    it passes.
    """
    ctx = filtration.base.ctx
    d = ctx.num_vars
    steps = filtration.steps
    malformed = _first_malformed(steps, d)
    if malformed is not None:
        steps = steps[:malformed]
    base = filtration.base.generators
    gens = base + tuple(w for w, _ in steps)
    _, above, exact = corner_masks(gens, corner_axes(gens, d))
    prefix = (1 << len(base)) - 1  # the base and the witnesses before step k
    for k, (w, prime) in enumerate(steps):
        # map, not a comprehension: Python 3.11 runs each comprehension in its own frame.
        # Deciding each step with colon_prime_support((prefix, above, exact), w) instead,
        # theorem-sweep's job list ran slower in 7 of 8 rounds, its best time +11 %.
        rows = list(map(getitem, above, w))
        once = twice = 0
        for m in rows:
            twice |= once & m
            once |= m
        if once & prefix != prefix:
            return ValidationResult(False, k, "witness already lies in the chain ideal")
        support = prime.support
        reached = 0
        for i in support:
            reached |= rows[i]
        if reached & prefix != prefix:
            # For the zero prime this fires whenever the chain ideal is nonzero.
            return ValidationResult(False, k, "colon is larger than the claimed prime")
        single = prefix & ~twice
        for i in support:
            if not exact[i][w[i]] & single:
                return ValidationResult(False, k, "colon is smaller than the claimed prime")
        prefix = prefix << 1 | 1
    if malformed is not None:
        return ValidationResult(False, malformed, "step is not a monomial and prime of this ring")
    if ctx.unit_monomial() not in gens:
        return ValidationResult(False, None, "final ideal in the chain is not the unit ideal")
    return ValidationResult(True)


def glue(
    base: MonomialIdeal,
    multiplier: Monomial,
    left: PrimeFiltration,
    right: PrimeFiltration,
) -> PrimeFiltration:
    """Splice filtrations along 0 -> R/A --*w--> R/B -> R/(B + (w)) -> 0.

    ``left`` filters R/A with A = (B : w) and is lifted by the multiplier;
    ``right`` filters R/(B + (w)).  Multiplicities add exactly.  Raises
    :class:`GluePreconditionError` when (B : w) differs from A, which is
    precisely when multiplication by w fails to embed R/A.
    """
    if base.colon_monomial(multiplier) != left.base:
        raise GluePreconditionError(
            f"colon({base}, {base.ctx.monomial_str(multiplier)}) != {left.base}"
        )
    if base.add_monomial(multiplier) != right.base:
        raise GluePreconditionError(
            "right filtration base must be the chain ideal plus the multiplier"
        )
    lifted = tuple((mono_mul(multiplier, w), p) for w, p in left.steps)
    return PrimeFiltration(base, lifted + right.steps)


def localize_factors(filtration: PrimeFiltration, f: Monomial) -> Counter:
    """Multiplicities that survive inverting f: factors R/P with f in P vanish."""
    f_supp = set(mono_support(f))
    survived = Counter()
    for _, p in filtration.steps:
        if not f_supp & set(p.support):
            survived[p] += 1
    return survived


class CmCertificate(Record):
    """Element f plus per-power verdicts that localized factors are top-dimensional."""

    # per_n: tuple of (n, surviving ledger as sorted tuple, verdict bool)
    _fields = ("element", "minh_primes", "quotient_dim", "per_n")

    def all_pass(self) -> bool:
        return all(ok for _, _, ok in self.per_n)


def cm_certificate(source: "MonomialIdeal | TermSystem", filtrations: dict) -> CmCertificate:
    """Certify Cohen-Macaulayness of all R_f/I^n R_f from the given filtrations.

    ``filtrations`` maps each power n to a prime filtration of R/I^n.  The
    element f avoids every top-dimensional minimal prime while hitting every
    other prime factor accumulated across the powers, so after inverting f
    only factors R/P with P in Minh(I) survive; those quotients are
    polynomial rings of the full quotient dimension, which settles depth.
    Returns f = 1 untouched when nothing needs to be avoided.

    ``source`` is I or a term system of its powers, whose I^n the bases are
    compared with; :func:`~monofilt.superficial.powers_of` refuses any other
    term system.  Raises ValueError when ``filtrations`` is empty or has a
    level below 1, by :func:`~monofilt.superficial.check_counts`, and when
    a filtration's base is not the power of I at its level, by
    :func:`~monofilt.superficial.check_filters_powers`, the check
    :func:`~monofilt.epsilon.filtration_bound_check` shares.
    """
    ts = powers_of(source)
    I, ctx = ts.I, ts.ctx
    # an empty set of levels would pass vacuously
    check_counts(levels=len(filtrations), n=min(filtrations, default=1))
    check_filters_powers(ts, filtrations, sorted(filtrations))
    top = set(minh(I))
    dim_quotient = ctx.num_vars - min(p.codim() for p in top)
    extras = set()
    for filtration in filtrations.values():
        extras.update(p for p in filtration.primes() if p not in top)
    if extras:
        f = prime_avoidance_element(ctx, sorted(extras), sorted(top))
    else:
        f = ctx.unit_monomial()
    per_n = []
    for n in sorted(filtrations):
        surviving = localize_factors(filtrations[n], f)
        ok = all(
            p in top and ctx.num_vars - p.codim() == dim_quotient for p in surviving
        )
        ledger = tuple(sorted(surviving.items()))
        per_n.append((n, ledger, ok))
    return CmCertificate(
        element=f,
        minh_primes=tuple(sorted(top)),
        quotient_dim=dim_quotient,
        per_n=tuple(per_n),
    )
