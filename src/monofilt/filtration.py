"""Prime filtrations of cyclic monomial quotients R/J.

A filtration is certified by its witness chain: starting from U_0 = J, each
step adjoins a witness monomial w with (U_k : w) equal to the claimed prime,
and the chain must end at the unit ideal.  Each step realizes a quotient
isomorphic to R/P, so the chain is a prime filtration of R/J with the primes
read off the steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .decomposition import (
    MonomialPrime,
    _witness_for,
    colon_prime_support,  # noqa: F401  bench/tracer.py counts cells through it
    dimension,
    minh,
    prime_avoidance_element,
)
from .errors import GluePreconditionError
from .ring import (
    Monomial,
    MonomialIdeal,
    grlex_key,
    mono_colon,
    mono_divides,
    mono_mul,
    mono_support,
)


@dataclass(frozen=True)
class PrimeFiltration:
    """Base ideal plus the ordered (witness, prime) steps of a certified chain."""

    base: MonomialIdeal
    steps: tuple  # tuple of (Monomial, MonomialPrime)

    def primes(self) -> tuple:
        """Distinct prime factors, in canonical order."""
        return tuple(sorted({p for _, p in self.steps}, key=lambda p: p.support))

    def ledger(self) -> Counter:
        """Multiplicity of each prime among the steps."""
        return Counter(p for _, p in self.steps)

    def serialize(self) -> list:
        ctx = self.base.ctx
        return [
            {"step": k, "witness": ctx.monomial_str(w), "prime": p.names(ctx)}
            for k, (w, p) in enumerate(self.steps)
        ]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    step: "int | None" = None
    reason: "str | None" = None

    def __bool__(self) -> bool:
        return self.ok


def _add_generator(gens: list, w: Monomial) -> list:
    """Antichain update for gens + (w); assumes no generator divides w."""
    return [g for g in gens if not mono_divides(w, g)] + [w]


def naive_prime_filtration(J: MonomialIdeal) -> PrimeFiltration:
    """Greedy prime filtration of R/J.

    At each step, take the witness map of the chain ideal U (the grlex-least
    w with (U : w) prime, for each prime support), keep the supports maximal
    under inclusion, and adjoin the grlex-least of their witnesses.
    Termination: each step strictly enlarges U inside a Noetherian poset.
    """
    d = J.ctx.num_vars
    unit = J.ctx.unit_monomial()
    gens = list(J.generators)
    steps = []
    while gens != [unit]:
        found = _witness_for(gens, d)
        maximal = [s for s in found if not any(set(s) < set(t) for t in found)]
        supp = min(maximal, key=lambda s: grlex_key(found[s]))
        steps.append((found[supp], MonomialPrime(supp)))
        gens = _add_generator(gens, found[supp])
    return PrimeFiltration(J, tuple(steps))


def validate(filtration: PrimeFiltration) -> ValidationResult:
    """Check every chain invariant exactly; report the first failing step."""
    ctx = filtration.base.ctx
    unit = ctx.unit_monomial()
    gens = list(filtration.base.generators)
    for k, (w, prime) in enumerate(filtration.steps):
        if any(mono_divides(g, w) for g in gens):
            return ValidationResult(False, k, "witness already lies in the chain ideal")
        supp = set(prime.support)
        for g in gens:
            r = mono_colon(g, w)
            if not any(r[i] for i in supp):
                # Some colon generator escapes the claimed prime; for the
                # zero prime this fires whenever the chain ideal is nonzero.
                return ValidationResult(False, k, "colon is larger than the claimed prime")
        for i in prime.support:
            if not any(mono_divides(g, mono_mul(w, ctx.variable(i))) for g in gens):
                return ValidationResult(False, k, "colon is smaller than the claimed prime")
        gens = _add_generator(gens, w)
    if gens != [unit]:
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


@dataclass(frozen=True)
class CmCertificate:
    """Element f plus per-power verdicts that localized factors are top-dimensional."""

    element: Monomial
    minh_primes: tuple
    quotient_dim: int
    per_n: tuple  # tuple of (n, surviving ledger as sorted tuple, verdict bool)

    def all_pass(self) -> bool:
        return all(ok for _, _, ok in self.per_n)


def cm_certificate(I: MonomialIdeal, filtrations: dict) -> CmCertificate:
    """Certify Cohen-Macaulayness of all R_f/I^n R_f from the given filtrations.

    ``filtrations`` maps each power n to a prime filtration of R/I^n.  The
    element f avoids every top-dimensional minimal prime while hitting every
    other prime factor accumulated across the powers, so after inverting f
    only factors R/P with P in Minh(I) survive; those quotients are
    polynomial rings of the full quotient dimension, which settles depth.
    Returns f = 1 untouched when nothing needs to be avoided.
    """
    ctx = I.ctx
    top = set(minh(I))
    dim_quotient = dimension(I)
    extras = set()
    for filtration in filtrations.values():
        extras.update(p for p in filtration.primes() if p not in top)
    if extras:
        f = prime_avoidance_element(ctx, sorted(extras, key=lambda p: p.support), sorted(top, key=lambda p: p.support))
    else:
        f = ctx.unit_monomial()
    per_n = []
    for n in sorted(filtrations):
        surviving = localize_factors(filtrations[n], f)
        ok = all(
            p in top and ctx.num_vars - p.codim() == dim_quotient for p in surviving
        )
        ledger = tuple(sorted(((p, c) for p, c in surviving.items()), key=lambda item: item[0].support))
        per_n.append((n, ledger, ok))
    return CmCertificate(
        element=f,
        minh_primes=tuple(sorted(top, key=lambda p: p.support)),
        quotient_dim=dim_quotient,
        per_n=tuple(per_n),
    )
