import math
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from monofilt import (
    DegenerateIdealError,
    InfeasibleError,
    IrreducibleComponent,
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
from monofilt import decomposition
from monofilt.decomposition import _witness_for, colon_prime_support
from monofilt.ring import corner_axes, corner_masks, mono_mul

import oracles

_NAMES = ("x", "y", "z", "w")


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


def test_primes_and_components_order_by_their_tuples():
    primes = [MonomialPrime(s) for s in ((1,), (0, 1), (), (0,))]
    assert [p.support for p in sorted(primes)] == [(), (0,), (0, 1), (1,)]
    components = [IrreducibleComponent(b) for b in (((1, 2),), ((0, 3),), ((0, 1), (1, 1)))]
    assert [c.bounds for c in sorted(components)] == [((0, 1), (1, 1)), ((0, 3),), ((1, 2),)]


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


def test_prime_avoidance_cannot_contain_the_zero_prime(kxy):
    with pytest.raises(InfeasibleError, match="no monomial lies in the zero ideal"):
        prime_avoidance_element(kxy, [MonomialPrime(())], [])


def test_prime_support_is_a_strictly_increasing_tuple():
    assert MonomialPrime([0, 2]).support == (0, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        MonomialPrime((1, 0))


def test_unit_ideal_has_no_associated_primes(kxy):
    with pytest.raises(DegenerateIdealError, match="R/J is the zero module"):
        associated_primes(unit_ideal(kxy))


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
def test_ass_and_minimal_primes_come_in_prime_order(pair):
    ctx, J = pair
    primes = list(associated_primes(J))
    assert primes == sorted(primes)
    assert list(minimal_primes(J)) == sorted(minimal_primes(J))


@given(proper_ideals(max_vars=4, max_gens=6, max_exp=4))
def test_decomposition_matches_splitting_oracle(pair):
    ctx, J = pair
    got = tuple(c.bounds for c in irreducible_decomposition(J))
    assert got == oracles.reference_irreducible_decomposition(J)


def test_decomposition_huge_exponents(kxy):
    comps = irreducible_decomposition(parse_ideal("x^3000, x*y, y^3000", kxy))
    assert [c.bounds for c in comps] == [((0, 1), (1, 3000)), ((0, 3000), (1, 1))]


def test_decomposition_five_variables():
    ctx = context("a", "b", "c", "d", "e")
    J = parse_ideal("a^2*b, b^3*c, c*d^2, d*e^3, a*e, b^2*d*e", ctx)
    comps = irreducible_decomposition(J)
    assert [c.bounds for c in comps] == [
        ((0, 1), (1, 2), (2, 1), (4, 3)),
        ((0, 1), (1, 2), (3, 2), (4, 3)),
        ((0, 1), (1, 3), (3, 1)),
        ((0, 1), (2, 1), (3, 1)),
        ((0, 2), (1, 3), (3, 2), (4, 1)),
        ((0, 2), (2, 1), (4, 1)),
        ((1, 1), (2, 1), (4, 1)),
        ((1, 1), (3, 2), (4, 1)),
    ]
    assert tuple(c.bounds for c in comps) == oracles.reference_irreducible_decomposition(J)
    assert intersection_of(ctx, comps) == J


def assert_masks_match_residues(J):
    gens, d = J.generators, J.ctx.num_vars
    axes = corner_axes(gens, d)
    masks = corner_masks(gens, axes)
    for w in product(*axes):
        assert colon_prime_support(masks, w) == oracles.reference_colon_prime_support(gens, w), w


def grid_supports(J):
    axes = corner_axes(J.generators, J.ctx.num_vars)
    masks = corner_masks(J.generators, axes)
    return {colon_prime_support(masks, w) for w in product(*axes)} - {None}


@st.composite
def any_ideals(draw, max_vars=4, max_gens=6, max_exp=4):
    """Ideals in 1-4 variables, the zero and unit ideals included."""
    d = draw(st.integers(1, max_vars))
    ctx = context(*_NAMES[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    return ideal(ctx, draw(st.lists(exps, max_size=max_gens)))


@given(any_ideals())
def test_mask_kernel_matches_residues_on_the_grid(J):
    assert_masks_match_residues(J)


@given(any_ideals(), st.integers(0, 2**6 - 1))
def test_mask_kernel_reads_only_the_live_generators(J, live):
    # A table over more generators than U holds answers for U when ``full``
    # is the mask of U's generators.
    gens, d = J.generators, J.ctx.num_vars
    axes = corner_axes(gens, d)
    full, above, exact = corner_masks(gens, axes)
    live &= full
    alive = [g for j, g in enumerate(gens) if live >> j & 1]
    for w in product(*axes):
        expected = oracles.reference_colon_prime_support(alive, w)
        assert colon_prime_support((live, above, exact), w) == expected, (alive, w)


@given(any_ideals(), st.data())
def test_mask_kernel_reads_any_generating_set(J, data):
    # The greedy filtration and validate keep a bit for every generator
    # adjoined so far, minimal or not: ``full`` set to all of them must
    # answer as ``full`` set to the minimal ones does, on every cell.
    gens, d = J.generators, J.ctx.num_vars
    table = list(gens)
    if gens:
        shift = st.lists(st.integers(0, 2), min_size=d, max_size=d)
        for j, e in data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), shift), max_size=5)):
            table.append(mono_mul(gens[j], tuple(e)))
    table = data.draw(st.permutations(table))
    axes = corner_axes(table, d)
    full, above, exact = corner_masks(table, axes)
    minimal = sum(1 << table.index(g) for g in gens)
    for w in product(*axes):
        answer = colon_prime_support((full, above, exact), w)
        assert answer == colon_prime_support((minimal, above, exact), w), (table, w)
        assert answer == oracles.reference_colon_prime_support(gens, w), (table, w)


def test_mask_kernel_degenerate_and_huge(kxy, kxyz):
    assert_masks_match_residues(zero_ideal(kxyz))
    assert_masks_match_residues(unit_ideal(kxyz))
    assert_masks_match_residues(parse_ideal("x^3000, x*y, y^3000", kxy))
    huge = 2**63 - 1
    assert_masks_match_residues(parse_ideal(f"x^{huge}*y, y^{huge}*z, x*z^{huge}", kxyz))
    assert grid_supports(zero_ideal(kxy)) == {()}
    assert grid_supports(unit_ideal(kxy)) == set()


def reference_witness_for(gens, d):
    """The grlex-least prime colon witness per support, deciding every grid cell."""
    found = {}
    for w in sorted(product(*corner_axes(gens, d)), key=oracles.grlex):
        supp = oracles.reference_colon_prime_support(gens, w)
        if supp is not None:
            found.setdefault(supp, w)
    return found


def test_witness_scan_matches_full_grid_reference(kxy):
    rng = random.Random(1307)
    cases = [(zero_ideal(context(*_NAMES[:d])).generators, d) for d in range(1, 5)]
    cases.append((parse_ideal("x^3", kxy).generators, 2))  # misses y
    for _ in range(300):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(rng.randint(0, 7 - d))]
        cases.append((ideal(context(*_NAMES[:d]), gens).generators, d))
    assert any(g and any(all(e[i] == 0 for e in g) for i in range(d)) for g, d in cases)
    for gens, d in cases:
        assert _witness_for(gens, d) == reference_witness_for(gens, d), gens


def test_ass_scan_skips_cells_inside_the_ideal(kxy, monkeypatch):
    J = parse_ideal("x^3, y^3", kxy) ** 6
    cells = math.prod(len(axis) for axis in corner_axes(J.generators, 2))
    scanned = []
    original = decomposition.colon_prime_support
    monkeypatch.setattr(
        decomposition, "colon_prime_support", lambda masks, w: scanned.append(w) or original(masks, w)
    )
    assert associated_primes(J) == {MonomialPrime((0, 1)): (17, 2)}
    assert 0 < len(scanned) < cells
    assert not any(oracles.member(J, w) for w in scanned)


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
