import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from monofilt import (
    GluePreconditionError,
    MonomialPrime,
    PrimeFiltration,
    associated_primes,
    closure_powers_report,
    cm_certificate,
    context,
    glue,
    ideal,
    localize_factors,
    naive_prime_filtration,
    parse_ideal,
    powers_report,
    unit_ideal,
    validate,
    zero_ideal,
)
from monofilt.ring import InfiniteLengthError, MonomialIdeal
from monofilt.superficial import TermSystem

import oracles

_NAMES = ("x", "y", "z")


@pytest.fixture
def kxy():
    return context("x", "y")


@pytest.fixture
def kxyz():
    return context("x", "y", "z")


def test_naive_one_step(kxy):
    F = naive_prime_filtration(parse_ideal("x, y", kxy))
    assert F.steps == (((0, 0), MonomialPrime((0, 1))),)
    assert F.ledger() == Counter({MonomialPrime((0, 1)): 1})


def test_naive_principal_square(kxy):
    F = naive_prime_filtration(parse_ideal("x^2", kxy))
    assert F.steps == (
        ((1, 0), MonomialPrime((0,))),
        ((0, 0), MonomialPrime((0,))),
    )


def test_naive_mixed(kxy):
    F = naive_prime_filtration(parse_ideal("x^2, x*y", kxy))
    assert [(w, p.support) for w, p in F.steps] == [((1, 0), (0, 1)), ((0, 0), (0,))]
    assert validate(F)


def test_naive_unit_and_zero(kxy):
    assert naive_prime_filtration(unit_ideal(kxy)).steps == ()
    F = naive_prime_filtration(zero_ideal(kxy))
    assert F.steps == (((0, 0), MonomialPrime(())),)
    assert validate(F)


def test_validate_flags_wrong_prime(kxy):
    base = parse_ideal("x^2, x*y", kxy)
    bad = PrimeFiltration(base, (((0, 1), MonomialPrime((0, 1))),))
    verdict = validate(bad)
    assert not verdict
    assert verdict.step == 0
    # (J : y) = (x), strictly smaller than the claimed prime
    assert "smaller" in verdict.reason


def test_validate_flags_unfinished_chain(kxy):
    verdict = validate(PrimeFiltration(parse_ideal("x", kxy), ()))
    assert not verdict
    assert "unit" in verdict.reason


MALFORMED = "step is not a monomial and prime of this ring"


@pytest.mark.parametrize(
    "first",
    [
        ((1,), MonomialPrime((0,))),
        ((1, 0, 5), MonomialPrime((0,))),
        ((1, 0), MonomialPrime((0, 5))),
        ((1, 0), (0,)),  # the prime is a bare support
        ((1, 0), MonomialPrime((0,)), (0, 0)),  # not a pair
        ((1, 0),),
        [(1, 0), MonomialPrime((0,))],  # a list is no step, as it is no witness
    ],
)
def test_validate_rejects_steps_outside_the_ring(kxy, first):
    steps = (first, ((0, 0), MonomialPrime((0,))))
    verdict = validate(PrimeFiltration(parse_ideal("x^2", kxy), steps))
    assert (verdict.ok, verdict.step, verdict.reason) == (False, 0, MALFORMED)


def test_validate_rejects_negative_exponent_after_valid_steps(kxy):
    steps = (((1, 0), MonomialPrime((0,))), ((0, -1), MonomialPrime((0,))))
    verdict = validate(PrimeFiltration(parse_ideal("x^2", kxy), steps))
    assert (verdict.ok, verdict.step, verdict.reason) == (False, 1, MALFORMED)


def test_validate_rejects_list_witness(kxy):
    # A list is not a monomial of the ring, even when its entries would be.
    steps = (([0, 0], MonomialPrime((0,))),)
    verdict = validate(PrimeFiltration(parse_ideal("x", kxy), steps))
    assert (verdict.ok, verdict.step, verdict.reason) == (False, 0, MALFORMED)
    assert validate(PrimeFiltration(parse_ideal("x", kxy), (((0, 0), MonomialPrime((0,))),)))


def test_glue_two_steps(kxy):
    base = parse_ideal("x^2", kxy)
    left = naive_prime_filtration(parse_ideal("x", kxy))
    right = naive_prime_filtration(parse_ideal("x", kxy))
    glued = glue(base, (1, 0), left, right)
    assert glued == naive_prime_filtration(base)
    assert glued.ledger() == Counter({MonomialPrime((0,)): 2})


def test_glue_left_empty(kxy):
    base = parse_ideal("x", kxy)
    left = PrimeFiltration(unit_ideal(kxy), ())
    right = naive_prime_filtration(base)
    assert glue(base, (1, 0), left, right) == right


def test_glue_rejects_wrong_colon(kxy):
    base = parse_ideal("x^2", kxy)
    left = naive_prime_filtration(parse_ideal("x, y", kxy))
    right = naive_prime_filtration(parse_ideal("x", kxy))
    with pytest.raises(GluePreconditionError):
        glue(base, (1, 0), left, right)


def test_glue_rejects_wrong_right_base(kxy):
    # (x^2) : x = (x) holds, but the right base must be (x^2) + (x) = (x).
    base = parse_ideal("x^2", kxy)
    left = naive_prime_filtration(parse_ideal("x", kxy))
    right = naive_prime_filtration(parse_ideal("x, y", kxy))
    with pytest.raises(GluePreconditionError, match="chain ideal plus the multiplier"):
        glue(base, (1, 0), left, right)


def test_glue_additivity(kxy):
    base = parse_ideal("x^2", kxy)
    left = naive_prime_filtration(parse_ideal("x", kxy))
    right = naive_prime_filtration(parse_ideal("x", kxy))
    glued = glue(base, (1, 0), left, right)
    assert glued.ledger() == left.ledger() + right.ledger()


def test_localize_factors(kxy):
    F = naive_prime_filtration(parse_ideal("x^2, x*y", kxy))
    survived = localize_factors(F, (0, 1))
    assert survived == Counter({MonomialPrime((0,)): 1})
    assert localize_factors(F, (0, 0)) == F.ledger()


def test_cm_certificate_cross(kxyz):
    I = parse_ideal("x*z, y*z", kxyz)
    report = powers_report(I, 5, "theorem")
    cert = cm_certificate(I, report.filtrations)
    assert kxyz.monomial_str(cert.element) == "x"
    assert [p.support for p in cert.minh_primes] == [(2,)]
    assert cert.all_pass()
    for _, ledger, _ in cert.per_n:
        assert all(p.support == (2,) for p, _ in ledger)


def test_cm_certificate_artinian(kxy):
    I = parse_ideal("x, y", kxy)
    report = powers_report(I, 3, "theorem")
    cert = cm_certificate(I, report.filtrations)
    assert cert.element == (0, 0)
    assert cert.all_pass()


def test_cm_certificate_rejects_filtrations_of_other_modules(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    # closure(I^n) is not I^n: its colengths 6, 21 and 45 are not those of R/I^n.
    with pytest.raises(ValueError, match=r"do not filter R/I\^1$"):
        cm_certificate(I, closure_powers_report(I, 3).filtrations)
    with pytest.raises(ValueError, match=r"do not filter R/I\^1$"):
        cm_certificate(I, powers_report(parse_ideal("x*y", kxy), 2).filtrations)
    # Levels need not be consecutive; each is checked against its own power.
    powers = powers_report(I, 4, "theorem").filtrations
    assert cm_certificate(I, {2: powers[2], 4: powers[4]}).all_pass()
    with pytest.raises(ValueError, match=r"do not filter R/I\^4$"):
        cm_certificate(I, {2: powers[2], 4: powers[3]})


def test_cm_certificate_reads_the_powers_of_the_sweeps_term_system(kxyz, monkeypatch):
    # Given the term system its sweep built, the certificate compares each
    # base with the powers already there and multiplies no ideal out again.
    I = parse_ideal("x*z, y*z", kxyz)
    expected = cm_certificate(I, powers_report(I, 4, "theorem").filtrations)
    terms = TermSystem(I)
    filtrations = powers_report(terms, 4, "theorem").filtrations

    def product_built(self, other):
        raise AssertionError("cm_certificate built an ideal product")

    monkeypatch.setattr(MonomialIdeal, "__mul__", product_built)
    assert cm_certificate(terms, filtrations) == expected


@st.composite
def any_ideals(draw, max_vars=3, max_gens=4, max_exp=3):
    d = draw(st.integers(1, max_vars))
    ctx = context(*_NAMES[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    gens = draw(st.lists(exps, min_size=0, max_size=max_gens))
    return ctx, ideal(ctx, gens)


@given(any_ideals())
def test_naive_always_validates(pair):
    ctx, J = pair
    F = naive_prime_filtration(J)
    assert validate(F)
    assert F == naive_prime_filtration(J)  # deterministic


@given(any_ideals())
def test_naive_steps_take_least_witness_of_maximal_primes(pair):
    ctx, J = pair
    chain = list(J.generators)
    for w, prime in naive_prime_filtration(J).steps:
        witnesses = oracles.box_witnesses(ideal(ctx, chain))
        maximal = [s for s in witnesses if not any(set(s) < set(t) for t in witnesses)]
        least = min(maximal, key=lambda s: oracles.grlex(witnesses[s]))
        assert (w, prime.support) == (witnesses[least], least)
        chain.append(w)


def test_naive_matches_the_rescanning_greedy():
    # The incremental witness frontier must pick exactly the steps of the
    # greedy that rescans the whole grid at every step, on 500 distinct
    # ideals.  Cubes of 4-variable ideals take about 0.2 s each in the
    # reference, so only eight are taken.
    rng = random.Random(1407)
    names = ("x", "y", "z", "w")
    rings = [context(*names[:d]) for d in range(1, 5)]
    cases = {(J.ctx, J.generators): J for J in map(zero_ideal, rings)}
    cases.update({(J.ctx, J.generators): J for J in map(unit_ideal, rings)})
    cubes4 = 0
    while len(cases) < 500:
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        if d > 1 and rng.random() < 0.25:
            absent = rng.randrange(d)
            gens = [g[:absent] + (0,) + g[absent + 1:] for g in gens]
        I = ideal(rings[d - 1], gens)
        top = 3 if d < 4 or cubes4 < 8 else 2
        cubes4 += d == 4 and top == 3
        cases.update({(J.ctx, J.generators): J for J in (I**n for n in range(1, top + 1))})
    proper4 = [J for J in cases.values() if J.ctx.num_vars == 4 and J.generators and not J.is_unit()]
    assert any(not any(g[i] for g in J.generators) for J in proper4 for i in range(4))
    for J in cases.values():
        assert naive_prime_filtration(J).steps == oracles.reference_naive_prime_filtration(J).steps, J


@given(any_ideals())
def test_ass_subset_of_factors(pair):
    ctx, J = pair
    if J.is_unit():
        return
    factors = set(naive_prime_filtration(J).primes())
    assert set(associated_primes(J)) <= factors


@given(any_ideals())
def test_artinian_factor_count_is_colength(pair):
    ctx, J = pair
    try:
        length = J.colength()
    except InfiniteLengthError:
        return
    F = naive_prime_filtration(J)
    maximal = MonomialPrime(tuple(range(ctx.num_vars)))
    assert len(F.steps) == length
    assert all(p == maximal for _, p in F.steps)


@given(any_ideals(), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_glue_additivity_random(pair, wexp):
    ctx, B = pair
    w = tuple(wexp[: ctx.num_vars])
    A = B.colon(w)
    left = naive_prime_filtration(A)
    right = naive_prime_filtration(B.add_monomial(w))
    glued = glue(B, w, left, right)
    assert validate(glued)
    assert glued.ledger() == left.ledger() + right.ledger()


def _well_formed(step, d):
    w, prime = step
    return len(w) == d and min(w) >= 0 and all(0 <= i < d for i in prime.support)


def _mutants(F, rng, after=0):
    """One mutant of F per kind: swap, drop, duplicate, new support, witness exponent +-1.

    Every mutated step lies at index ``after`` or later.
    """
    steps = list(F.steps)
    d = F.base.ctx.num_vars
    if not steps:
        return [F]
    i, j = rng.randrange(after, len(steps)), rng.randrange(after, len(steps))
    swapped = list(steps)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    w, prime = steps[i]
    support = tuple(v for v in range(d) if rng.random() < 0.5)
    shifted = []
    for delta in (1, -1):
        e = list(w)
        e[rng.randrange(d)] += delta
        shifted.append(steps[:i] + [(tuple(e), prime)] + steps[i + 1:])
    variants = [
        swapped,
        steps[:i] + steps[i + 1:],
        steps[:j] + [steps[i]] + steps[j:],
        steps[:i] + [(w, MonomialPrime(support))] + steps[i + 1:],
        *shifted,
    ]
    return [F] + [PrimeFiltration(F.base, tuple(v)) for v in variants]


def _expected(F):
    """reference_validate's verdict, or the malformed-step verdict where that comes first."""
    d = F.base.ctx.num_vars
    bad = next((k for k, step in enumerate(F.steps) if not _well_formed(step, d)), None)
    if bad is None:
        return oracles.reference_validate(F)
    prefix = oracles.reference_validate(PrimeFiltration(F.base, F.steps[:bad]))
    if not prefix[0] and prefix[1] is not None:
        return prefix
    return (False, bad, MALFORMED)


def _filtrations(J, n_max):
    found = [naive_prime_filtration(J)]
    if not J.is_zero() and not J.is_unit():
        found += powers_report(J, n_max, "theorem").filtrations.values()
    return found


@given(any_ideals(), st.randoms(use_true_random=False))
def test_validate_agrees_with_reference_on_mutants(pair, rng):
    _, J = pair
    for F in _filtrations(J, 2):
        for M in _mutants(F, rng):
            verdict = validate(M)
            assert (verdict.ok, verdict.step, verdict.reason) == _expected(M)


def test_mutants_reach_every_verdict():
    rng = random.Random(5)
    reasons = Counter()
    for _ in range(40):
        I = oracles.random_proper_ideal(rng, max_exp=3)
        for F in _filtrations(I, 2):
            for M in _mutants(F, rng):
                reasons[validate(M).reason] += 1
    assert set(reasons) == {
        None,
        "witness already lies in the chain ideal",
        "colon is larger than the claimed prime",
        "colon is smaller than the claimed prime",
        "final ideal in the chain is not the unit ideal",
        MALFORMED,
    }


def test_validate_agrees_with_reference_on_deep_mutants():
    # Theorem filtrations up to n = 5 in three variables run to dozens of
    # steps, past the short chains the hypothesis test above draws.
    rng = random.Random(12)
    ctx = context(*_NAMES)
    longest = PrimeFiltration(zero_ideal(ctx), ())
    for _ in range(12):
        J = ideal(ctx, [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(rng.randint(1, 3))])
        if J.is_unit():
            continue
        for F in _filtrations(J, 5):
            longest = max(longest, F, key=lambda F: len(F.steps))
            for M in _mutants(F, rng):
                verdict = validate(M)
                assert (verdict.ok, verdict.step, verdict.reason) == _expected(M)
    steps = list(longest.steps)
    assert len(steps) > 10 and validate(longest)
    for k in (10, len(steps) - 1):
        w, prime = steps[k]
        for bad in (((w[0], w[1], -1), prime), (w[:2], prime), (w, MonomialPrime((0, 3)))):
            M = PrimeFiltration(longest.base, tuple(steps[:k] + [bad] + steps[k + 1:]))
            verdict = validate(M)
            assert (verdict.ok, verdict.step, verdict.reason) == (False, k, MALFORMED)
            assert _expected(M) == (False, k, MALFORMED)
    # A failing step before the malformed one is reported first.
    M = PrimeFiltration(longest.base, tuple(steps[:10] + [steps[2], (w[:2], prime)]))
    verdict = validate(M)
    assert (verdict.ok, verdict.step, verdict.reason) == _expected(M)
    assert (verdict.step, verdict.reason) == (10, "witness already lies in the chain ideal")


def test_validate_agrees_with_reference_on_the_longest_bench_chain(kxy):
    # (x^3, y^3) at n = 16 is the longest chain the benchmark validates.
    # Mutants past step 1,000 are judged against a chain ideal whose
    # generating set holds about a thousand earlier witnesses, most of them
    # no longer minimal.
    F = powers_report(parse_ideal("x^3, y^3", kxy), 16, "theorem").filtrations[16]
    steps = list(F.steps)
    assert len(steps) == 1224 and validate(F)
    rng = random.Random(16)
    mutants = [PrimeFiltration(F.base, tuple(steps[:-1]))]
    for _ in range(3):
        mutants += _mutants(F, rng, after=1001)[1:]
    reasons = Counter()
    for M in mutants:
        verdict = validate(M)
        assert (verdict.ok, verdict.step, verdict.reason) == _expected(M)
        assert verdict.step is None or verdict.step > 1000
        reasons[verdict.reason] += 1
    assert {
        "witness already lies in the chain ideal",
        "colon is larger than the claimed prime",
        "colon is smaller than the claimed prime",
        "final ideal in the chain is not the unit ideal",
    } <= set(reasons)
