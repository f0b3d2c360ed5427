from collections import Counter

import pytest
from hypothesis import given, strategies as st

from monofilt import (
    GluePreconditionError,
    MonomialPrime,
    PrimeFiltration,
    associated_primes,
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
from monofilt.ring import InfiniteLengthError

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
