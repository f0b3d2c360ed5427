import pytest
from hypothesis import given, strategies as st

from monofilt import (
    DegenerateIdealError,
    InfeasibleError,
    MonomialPrime,
    associated_primes,
    context,
    dimension,
    ideal,
    irreducible_decomposition,
    minh,
    minimal_primes,
    parse_ideal,
    prime_avoidance_element,
    unit_ideal,
    zero_ideal,
)

import oracles

_NAMES = ("x", "y", "z")


@pytest.fixture
def kxy():
    return context("x", "y")


@pytest.fixture
def kxyz():
    return context("x", "y", "z")


def intersection_of(ctx, components):
    meet = unit_ideal(ctx)
    for comp in components:
        meet = meet.intersect(comp.as_ideal(ctx))
    return meet


def test_decomposition_split(kxy):
    comps = irreducible_decomposition(parse_ideal("x^2, x*y", kxy))
    assert {c.bounds for c in comps} == {((0, 1),), ((0, 2), (1, 1))}


def test_decomposition_already_irreducible(kxy):
    comps = irreducible_decomposition(parse_ideal("x, y", kxy))
    assert [c.bounds for c in comps] == [((0, 1), (1, 1))]


def test_decomposition_irredundant(kxyz):
    J = parse_ideal("x*z, y*z", kxyz)
    comps = irreducible_decomposition(J)
    assert {c.bounds for c in comps} == {((2, 1),), ((0, 1), (1, 1))}
    assert intersection_of(kxyz, comps) == J


def test_decomposition_rejects_degenerate(kxy):
    with pytest.raises(DegenerateIdealError):
        irreducible_decomposition(zero_ideal(kxy))
    with pytest.raises(DegenerateIdealError):
        irreducible_decomposition(unit_ideal(kxy))


def test_associated_primes_with_witnesses(kxy):
    J = parse_ideal("x^2, x*y", kxy)
    witnesses = associated_primes(J)
    assert {p.support for p in witnesses} == {(0,), (0, 1)}
    for prime, w in witnesses.items():
        assert not J.contains(w)
        assert J.colon(w) == prime.as_ideal(kxy)


def test_associated_primes_maximal(kxy):
    assert {p.support for p in associated_primes(parse_ideal("x, y", kxy))} == {(0, 1)}


def test_associated_primes_principal_powers(kxy):
    I = parse_ideal("x", kxy)
    for n in range(1, 7):
        assert {p.support for p in associated_primes(I**n)} == {(0,)}


def test_minimal_primes_dimension_minh(kxyz):
    J = parse_ideal("x*z, y*z", kxyz)
    assert {p.support for p in minimal_primes(J)} == {(2,), (0, 1)}
    assert dimension(J) == 2
    assert [p.support for p in minh(J)] == [(2,)]


def test_dimension_examples(kxy):
    assert dimension(parse_ideal("x^2, x*y", kxy)) == 1
    assert dimension(parse_ideal("x, y", kxy)) == 0
    assert [p.support for p in minh(parse_ideal("x, y", kxy))] == [(0, 1)]


def test_prime_avoidance(kxyz):
    contain = [MonomialPrime((0, 1))]
    avoid = [MonomialPrime((2,))]
    assert prime_avoidance_element(kxyz, contain, avoid) == (1, 0, 0)


def test_prime_avoidance_empty_contain(kxy):
    got = prime_avoidance_element(kxy, [], [MonomialPrime((0,))])
    assert got == (0, 1)


def test_prime_avoidance_infeasible(kxy):
    with pytest.raises(InfeasibleError):
        prime_avoidance_element(kxy, [MonomialPrime((0,))], [MonomialPrime((0,))])


@st.composite
def proper_ideals(draw, max_vars=3, max_gens=4, max_exp=3):
    d = draw(st.integers(1, max_vars))
    ctx = context(*_NAMES[:d])
    exps = (
        st.lists(st.integers(0, max_exp), min_size=d, max_size=d)
        .map(tuple)
        .filter(any)
    )
    gens = draw(st.lists(exps, min_size=1, max_size=max_gens))
    return ctx, ideal(ctx, gens)


@given(proper_ideals())
def test_components_intersect_to_input(pair):
    ctx, J = pair
    assert intersection_of(ctx, irreducible_decomposition(J)) == J


@given(proper_ideals())
def test_ass_matches_box_oracle(pair):
    ctx, J = pair
    assert {p.support for p in associated_primes(J)} == oracles.ass_primes_box(J)


@given(proper_ideals())
def test_witnesses_are_grlex_least_in_box(pair):
    ctx, J = pair
    expected = {MonomialPrime(s): w for s, w in oracles.box_witnesses(J).items()}
    assert associated_primes(J) == expected


@given(proper_ideals())
def test_witnesses_are_exact(pair):
    ctx, J = pair
    for prime, w in associated_primes(J).items():
        assert J.colon(w) == prime.as_ideal(ctx)


@given(proper_ideals())
def test_radical_preserves_min_primes_and_dimension(pair):
    ctx, J = pair
    assert minimal_primes(J) == minimal_primes(J.radical())
    assert dimension(J) == dimension(J.radical())
