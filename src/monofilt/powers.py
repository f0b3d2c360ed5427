"""Filtration builder for the powers of an ideal, with analyzers.

For each level n the builder produces a prime filtration of R/(T(n) + J) by
splicing along multiplication by a certified element x of order m: the
subquotient filtered by ((J : x), n - m) lifts through x, the quotient by x
is filtered at the same n with a larger annihilator, and multiplicities add
exactly.  The element comes from one certificate scan: among the candidates
whose colon identity (T(n) + J) : x = (J : x) + T(n - m) holds on a suffix of
the verified range, the first superficial one, and failing that the first one
as a splice certificate, which verifies only what the splice needs.  Either
way that identity is rechecked exactly at every use, and the recheck's colon
(T(n) + J) : x, compared there with the left child's base, is the one the
splice needs: it is computed once per splice, not again when the splice is
lifted.

The traversal terminates.  One work stack builds the splice graph below a
key (J, n), and records a key only after both its children: (J : x, n - m)
along the left edge and (J + (x), n) along the right.  x is never in J, so a
right edge strictly enlarges the annihilator at the same level, and a
strictly ascending chain of monomial ideals is finite; a left edge lowers the
level by m >= 1.  So every path of edges is finite, no key lies below itself,
and the keys below (J, n) are finitely many; each is planned once, and
waits on the stack with its plan until its children are recorded.
Three kinds of leaf end the paths: level 0 or a unit base ideal is the zero
module, a level whose term ideal has fallen inside the annihilator repeats
one fixed filtration forever, and any level the certificates cannot reach
falls back to the greedy construction and is flagged.

The annihilators reached form a finite set: colons only lower exponents and
sums add candidates, which come from the finitely many generators of T(1),
..., T(order_max), so every generator lies in the box bounded by those and by
the generators of the starting annihilator.  Away from fallbacks every factor
comes from the fixed filtration of one of these annihilators, which is why
the factor set stays finite across all levels.

The analyzers summarize the union of prime factors across the sweep, detect
stabilization of the per-level prime sets, and fit the growth exponent of
each prime's multiplicity.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

from .decomposition import associated_primes
from .errors import CertificateError
from .filtration import PrimeFiltration, _splice, glue, naive_prime_filtration, validate
from .ring import Monomial, MonomialIdeal, Record, RingContext, ideal, zero_ideal
from .superficial import (
    ORDER_MAX,
    CyclicFilteredModule,
    SpliceCertificate,
    SuperficialCertificate,
    TermSystem,
    _colon_identity_holds,
    check_counts,
    search_certificate,
    terms_of,
)

# Trailing window of the stabilization detectors by default.
WINDOW = 4


class FiltrationEngine:
    """Shared state for one sweep: its term system and the splice graph it has built.

    ``source`` is the filtration ideal I, whose terms are its powers, or a
    term system of I that the engine reads and extends.

    The graph's nodes are the annihilators J the traversal reaches, each
    with its certificate (x, m) or None in ``_certs``; a certified node has
    edges to J : x, m levels down, and to J + (x) at the same level.  The
    level table holds one record per (J, n) built: the filtration, whether
    a greedy fallback lies below it, the splice taken or None, and the
    fallback reason or None.  ``_greedy`` keeps the leaf filtrations by
    base.  ``glue_nodes`` and ``fallback_nodes`` are read-only views of the
    level table.

    :meth:`filtration` builds with one work stack, no recursion, and only
    the levels reachable from the key asked for, in post-order: a splice's
    left subtree, then its right, then the splice.  :meth:`_plan` decides a
    level and writes nothing but the certificate memo; :meth:`_record`
    writes its one record.  A splice's colon (T(n) + J) : x is computed
    once, by the recheck in :meth:`_plan`; :meth:`_record` lifts the splice
    through ``filtration._splice``, which checks only the right child's
    base, where ``glue`` would compute the colon again.
    """

    def __init__(
        self,
        source: "MonomialIdeal | TermSystem",
        *,
        order_max: int = ORDER_MAX,
        verify_to: int = 24,
    ):
        check_counts(order_max=order_max, verify_to=verify_to)
        self.ts = terms_of(source)
        self.ctx = self.ts.ctx
        self.order_max = order_max
        self.verify_to = verify_to
        self._certs = {}
        self._greedy = {}
        self._levels = {}

    @property
    def glue_nodes(self) -> dict:
        """(J, n) -> its splice: multiplier, order, and the left and right (J, n) nodes."""
        return {key: level[2] for key, level in self._levels.items() if level[2] is not None}

    @property
    def fallback_nodes(self) -> dict:
        """(J, n) -> why that level was built greedily, by level and then generators."""
        fallbacks = [(key, level[3]) for key, level in self._levels.items() if level[3] is not None]
        return dict(sorted(fallbacks, key=lambda item: (item[0][1], item[0][0].generators)))

    def certificate(
        self, J: MonomialIdeal
    ) -> "SuperficialCertificate | SpliceCertificate | None":
        """The certificate splices at J use: superficial if one exists, else a splice one."""
        if J not in self._certs:
            self._certs[J] = search_certificate(self.ts, J, self.order_max, self.verify_to)
        return self._certs[J]

    def root_certificate(self) -> SuperficialCertificate | None:
        cert = self.certificate(zero_ideal(self.ctx))
        return cert if isinstance(cert, SuperficialCertificate) else None

    def filtration(self, n: int, J: "MonomialIdeal | None" = None):
        """Filtration of R/(T(n) + J) plus a flag for greedy fallbacks in the subtree."""
        J = zero_ideal(self.ctx) if J is None else J
        # One work stack builds the graph in post-order.  A key whose
        # children are not all built goes back on the stack with its plan,
        # under them, right then left, so the left subtree is built first.
        stack = [((J, n), None)]
        while stack:
            key, plan = stack.pop()
            if key in self._levels:
                continue
            base, splice, reason = plan = plan or self._plan(*key)
            waiting = splice and [c for c in (splice["right"], splice["left"]) if c not in self._levels]
            if waiting:
                stack += [(key, plan)] + [(c, None) for c in waiting]
            else:
                self._record(key, base, splice, reason)
        return self._levels[(J, n)][:2]

    def _plan(self, J: MonomialIdeal, n: int):
        # The one place a level is decided, writing no record: its base, and
        # a splice to two child keys, a fallback reason, or neither (a leaf).
        base = self.ts.term_plus(J, n)
        splice = reason = None
        if not base.is_unit() and base != J:
            cert = self.certificate(J)
            if cert is None:
                reason = "neither a superficial nor a splice certificate for this module"
            elif n < cert.colon_threshold:
                reason = "level below the certified colon threshold"
            elif not _colon_identity_holds(self.ts, J, cert.element, cert.order, n):
                reason = "colon identity failed on recheck at this level"
            else:
                x, m = cert.element, cert.order
                left = (self.ts.annihilator_colon(J, x), max(n - m, 0))
                splice = {"multiplier": x, "order": m, "left": left, "right": (J.add_monomial(x), n)}
        return base, splice, reason

    def _record(self, key: tuple, base: MonomialIdeal, splice, reason) -> None:
        # The one place a level's record is written, after its children's.
        if splice is not None:
            left, left_fb = self._levels[splice["left"]][:2]
            right, right_fb = self._levels[splice["right"]][:2]
            # _plan's recheck compared (T(n) + J) : x with the left child's base.
            filtration = _splice(base, splice["multiplier"], left, right)
            fell_back = left_fb or right_fb
        else:
            # Unit leaves, stationary leaves (base == J) and fallbacks share one filtration per base.
            # Unshared, theorem-sweep's job list ran slower in 8 of 10 pairs, its best time +13 %.
            if base not in self._greedy:
                self._greedy[base] = naive_prime_filtration(base)
            filtration, fell_back = self._greedy[base], reason is not None
        self._levels[key] = (filtration, fell_back, splice, reason)


def theorem_filtration(module: CyclicFilteredModule, n: int) -> PrimeFiltration:
    """Certified spliced filtration of R/(T(n) + J) for the given module.

    T(n) is I^n, or the n-th term of the module's term system.  A fresh
    engine builds the splice graph below (J, n) and nothing else; its
    flag for greedy fallbacks is dropped.
    """
    return FiltrationEngine(module.filtration_ideal).filtration(n, module.annihilator)[0]


class PowerRecord(Record):
    # ledger: sorted tuple of (MonomialPrime, multiplicity).  Not ``terms``, the
    # sweep's term system: it is not compared, hashed or shown.
    _fields = ("n", "primes", "ledger", "fallback", "steps")

    def __init__(
        self, n: int, primes: tuple, ledger: tuple, fallback: bool, steps: int, terms: TermSystem
    ):
        super().__init__(n, primes, ledger, fallback, steps)
        object.__setattr__(self, "terms", terms)

    @property
    def ass(self) -> tuple:
        """Ass(R/T(n)), computed on the first read and kept by the sweep's term system."""
        return self.terms.memo(associated_primes, self.n)


class PowersReport(Record):
    _fields = (
        "ctx",
        "ideal",
        "mode",
        "n_max",
        "window",
        "records",
        "primes_union",
        "stabilization",
        "growth",  # tuple of (MonomialPrime, exponent or None, points used)
        "superficial",
        "fallback_nodes",
        "filtrations",  # n -> PrimeFiltration; not serialized
        "engine",  # None in naive mode; not serialized
    )

    def ledger_of(self, n: int) -> Counter:
        for record in self.records:
            if record.n == n:
                return Counter(dict(record.ledger))
        raise KeyError(n)

    def summary(self) -> dict:
        """The report document without each level's digest and Ass; ``human`` and ``csv`` print this."""
        ctx = self.ctx
        return {
            "ideal": self.ideal.generator_strings(),
            "mode": self.mode,
            "n_max": self.n_max,
            "window": self.window,
            "per_n": [
                {
                    "n": r.n,
                    "primes": [p.names(ctx) for p in r.primes],
                    "ledger": [{"prime": p.names(ctx), "multiplicity": c} for p, c in r.ledger],
                    "fallback": r.fallback,
                    "steps": r.steps,
                    "validated": True,
                }
                for r in self.records
            ],
            "primes_union": [p.names(ctx) for p in self.primes_union],
            "stabilization": self.stabilization,
            "growth": [
                {"prime": p.names(ctx), "exponent": None if e is None else round(e, 6), "points": k}
                for p, e, k in self.growth
            ],
            "superficial": None if self.superficial is None else self.superficial.serialize(ctx),
            "fallback_nodes": [
                {"annihilator": list(map(ctx.monomial_str, J.generators)), "n": n, "reason": why}
                for J, n, why in self.fallback_nodes
            ],
        }

    def to_document(self) -> dict:
        """:meth:`summary` with each level's filtration digest and Ass(R/T(n)) added.

        The digests are made first, over one witness cache that is dropped
        before the rows are built, so the two are never held at once.
        """
        witness_text = {}
        digests = [filtration_digest(self.filtrations[r.n], witness_text) for r in self.records]
        del witness_text
        document = self.summary()
        for row, r, digest in zip(document["per_n"], self.records, digests):
            row["digest"] = digest
            row["ass"] = [p.names(self.ctx) for p in r.ass]
        return document


def filtration_digest(filtration: PrimeFiltration, witness_text: dict) -> str:
    """First 16 hex digits of the sha256 of the filtration's canonical JSON text.

    The hashed bytes are the UTF-8 encoding of ``json.dumps(payload,
    sort_keys=True)``, where ``payload`` holds ``"base"``, the base ideal's
    generator strings, and ``"steps"``, one ``{"step": k, "witness":
    monomial string, "prime": variable names}`` record per step.  The text
    is written from cached fragments instead: one per prime support, made
    here, and one per witness, kept in ``witness_text`` across calls.  A
    witness's fragment holds its variable names, so one ``witness_text``
    dict serves one ring; :meth:`PowersReport.to_document` makes one per
    document.
    """
    ctx = filtration.base.ctx
    names = ctx.variable_names
    prime_text = {}
    parts = []
    for k, (w, p) in enumerate(filtration.steps):
        head = prime_text.get(p.support)
        if head is None:
            head = prime_text[p.support] = (
                '{"prime": ' + json.dumps([names[i] for i in p.support]) + ', "step": '
            )
        tail = witness_text.get(w)
        if tail is None:
            tail = witness_text[w] = ', "witness": ' + json.dumps(ctx.monomial_str(w)) + "}"
        parts.append(f"{head}{k}{tail}")
    base = json.dumps(filtration.base.generator_strings())
    blob = f'{{"base": {base}, "steps": [{", ".join(parts)}]}}'.encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def fit_growth_exponent(points) -> float | None:
    """Least-squares slope of log(multiplicity) against log(n).

    ``points`` holds (n, multiplicity) pairs with positive multiplicities;
    returns None when fewer than four points are available.
    """
    usable = [(n, mu) for n, mu in points if mu > 0]
    if len(usable) < 4:
        return None
    xs = [math.log(n) for n, _ in usable]
    ys = [math.log(mu) for _, mu in usable]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return None
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom


def detect_stabilization(prime_sets, window: int, max_period: int) -> dict:
    """Classify the tail of the per-level prime sets as stable, periodic, or neither.

    Stable means a trailing constant run of at least ``window`` levels;
    failing that, periods up to ``max_period`` are tried over the trailing
    region.
    """
    count = len(prime_sets)
    run = 1
    while run < count and prime_sets[-run - 1] == prime_sets[-1]:
        run += 1
    if run >= window:
        return {"kind": "stable", "onset": count - run + 1, "window": window}
    for period in range(1, max_period + 1):
        span = window + period
        if span > count:
            break
        start = count - span
        if all(prime_sets[i] == prime_sets[i + period] for i in range(start, count - period)):
            return {"kind": "periodic", "period": period, "window": window}
    return {"kind": "none", "window": window}


def powers_report(
    source: "MonomialIdeal | TermSystem",
    n_max: int,
    mode: str = "theorem",
    *,
    window: int = WINDOW,
    order_max: int = ORDER_MAX,
) -> PowersReport:
    """Sweep n = 1..n_max, validate every filtration, and run the analyzers.

    ``source`` is the ideal I, whose level n is I^n, or a term system of I,
    whose level n is its term T(n); sweeps given one system share its terms.
    Raises :class:`CertificateError` if any emitted filtration fails
    re-validation, which pipelines surface as exit code 2.

    No level's associated primes or filtration digest is computed here:
    a record's ``ass`` is computed when it is first read, and the digests
    when :meth:`PowersReport.to_document` prints them.
    """
    if mode not in ("naive", "theorem"):
        raise ValueError(f"unknown mode '{mode}'")
    check_counts(n_max=n_max, window=window, order_max=order_max)
    ts = terms_of(source)
    I = ts.I
    engine = None
    cert = None
    if mode == "theorem":
        engine = FiltrationEngine(ts, order_max=order_max, verify_to=2 * n_max)
        cert = engine.root_certificate()

    records = []
    filtrations = {}
    for n in range(1, n_max + 1):
        if engine is not None:
            filtration, fell_back = engine.filtration(n)
        else:
            filtration, fell_back = naive_prime_filtration(ts.term(n)), False
        verdict = validate(filtration)
        if not verdict:
            raise CertificateError(
                f"filtration of level {n} failed validation at step {verdict.step}: {verdict.reason}"
            )
        ledger = tuple(sorted(filtration.ledger().items()))
        record = PowerRecord(
            n=n,
            primes=tuple(p for p, _ in ledger),
            ledger=ledger,
            fallback=fell_back,
            steps=len(filtration.steps),
            terms=ts,
        )
        records.append(record)
        filtrations[n] = filtration

    union = sorted({p for r in records for p in r.primes})
    max_period = cert.order if cert is not None else 1
    stabilization = detect_stabilization([r.primes for r in records], window, max_period)
    upper_half = [r for r in records if r.n > n_max // 2]
    growth = []
    for p in union:
        points = [(r.n, dict(r.ledger).get(p, 0)) for r in upper_half]
        exponent = fit_growth_exponent(points)
        used = sum(1 for _, mu in points if mu > 0)
        growth.append((p, exponent, used))
    fallback_nodes = () if engine is None else tuple(
        (J, n, reason) for (J, n), reason in engine.fallback_nodes.items()
    )
    return PowersReport(
        ctx=I.ctx,
        ideal=I,
        mode=mode,
        n_max=n_max,
        window=window,
        records=tuple(records),
        primes_union=tuple(union),
        stabilization=stabilization,
        growth=tuple(growth),
        superficial=cert,
        fallback_nodes=fallback_nodes,
        filtrations=filtrations,
        engine=engine,
    )


class AssStabilityReport(Record):
    # per_n: tuple of (n, tuple of primes)
    _fields = ("ctx", "ideal", "n_max", "window", "per_n", "union", "onset")

    def to_document(self) -> dict:
        ctx = self.ctx
        return {
            "ideal": self.ideal.generator_strings(),
            "n_max": self.n_max,
            "window": self.window,
            "per_n": [
                {"n": n, "ass": [p.names(ctx) for p in primes]} for n, primes in self.per_n
            ],
            "union": [p.names(ctx) for p in self.union],
            "onset": self.onset,
        }


def ass_stability(
    source: "MonomialIdeal | TermSystem", n_max: int, window: int = WINDOW
) -> AssStabilityReport:
    """Associated primes of R/T(n) per level, their union, and the detected onset.

    ``source`` is the ideal I, whose level n is I^n, or a term system of I.
    The onset is the first level of the maximal trailing run of constant Ass
    sets, reported only when the run covers at least ``window`` levels.
    """
    check_counts(n_max=n_max, window=window)
    ts = terms_of(source)
    per_n = [(n, ts.memo(associated_primes, n)) for n in range(1, n_max + 1)]
    union = sorted({p for _, primes in per_n for p in primes})
    onset = detect_stabilization([primes for _, primes in per_n], window, 0).get("onset")
    return AssStabilityReport(
        ctx=ts.ctx,
        ideal=ts.I,
        n_max=n_max,
        window=window,
        per_n=tuple(per_n),
        union=tuple(union),
        onset=onset,
    )


def bad_filtration_fixture(ctx: RingContext, n: int, f: Monomial) -> PrimeFiltration:
    """A valid but badly chosen filtration of R/(x^n), x the first variable.

    Splicing along the witness f*x^(n-1) drags the minimal primes of (f, x)
    into the factor set, so the prime factors depend on the choices made;
    with f = 1 the construction degenerates to the good filtration.  Negative
    control for the finite-factor-set behavior of the certified builder.
    """
    check_counts(power=n)
    if f[0] != 0:
        raise ValueError("f must avoid the first variable")
    xn = [0] * ctx.num_vars
    xn[0] = n
    base = ideal(ctx, [tuple(xn)])
    lift = list(f)
    lift[0] = n - 1
    w = tuple(lift)
    left = naive_prime_filtration(base.colon_monomial(w))
    right = naive_prime_filtration(base.add_monomial(w))
    return glue(base, w, left, right)
