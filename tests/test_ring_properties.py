"""Property tests pinning the ring operations to the pointwise-membership oracle."""

from hypothesis import example, given, strategies as st

from monofilt import context, ideal
from monofilt.ring import (
    _canonical,
    _grlex_sort,
    grlex_key,
    minimal_generators,
    mono_colon,
    mono_divides,
    mono_lcm,
    mono_mul,
)

import oracles

_NAMES = ("x", "y", "z")


@st.composite
def ideal_pairs(draw, max_vars=3, max_gens=4, max_exp=3):
    d = draw(st.integers(1, max_vars))
    ctx = context(*_NAMES[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    gens = st.lists(exps, min_size=0, max_size=max_gens)
    return ctx, ideal(ctx, draw(gens)), ideal(ctx, draw(gens))


def is_canonical(I):
    gens = I.generators
    if list(gens) != sorted(gens, key=grlex_key):
        return False
    return not any(
        a != b and mono_divides(a, b) for a in gens for b in gens
    )


@given(ideal_pairs())
def test_outputs_are_antichains(pair):
    ctx, A, B = pair
    for result in (A + B, A * B, A.intersect(B), A.radical(), A**2):
        assert is_canonical(result)


@given(ideal_pairs())
def test_sum_matches_oracle(pair):
    ctx, A, B = pair
    bounds = oracles.merge_bounds(A.box(), B.box())
    assert oracles.agrees(A + B, oracles.sum_predicate(A, B), bounds)


@given(ideal_pairs())
def test_product_matches_oracle(pair):
    ctx, A, B = pair
    bounds = tuple(a + b for a, b in zip(A.box(), B.box()))
    assert oracles.agrees(A * B, oracles.product_predicate(A, B), bounds)


@given(ideal_pairs())
def test_intersect_matches_oracle(pair):
    ctx, A, B = pair
    bounds = oracles.merge_bounds(A.box(), B.box())
    assert oracles.agrees(A.intersect(B), oracles.intersect_predicate(A, B), bounds)


@given(ideal_pairs())
def test_colon_matches_oracle(pair):
    ctx, A, B = pair
    if B.is_zero():
        return
    assert oracles.agrees(A.colon(B), oracles.colon_ideal_predicate(A, B), A.box())


@given(ideal_pairs())
def test_saturation_matches_oracle(pair):
    ctx, A, B = pair
    if B.is_zero():
        return
    assert oracles.agrees(A.saturation(B), oracles.saturation_predicate(A, B), A.box())


@given(ideal_pairs())
def test_radical_matches_oracle(pair):
    ctx, A, _ = pair
    assert oracles.agrees(A.radical(), oracles.radical_predicate(A), A.box())


@given(ideal_pairs(), st.integers(0, 2), st.integers(0, 2))
def test_power_addition_law(pair, a, b):
    _, A, _ = pair
    assert (A**a) * (A**b) == A ** (a + b)


@given(ideal_pairs())
def test_lattice_containments(pair):
    ctx, A, B = pair
    meet = A.intersect(B)
    assert A.contains_ideal(meet)
    assert meet.contains_ideal(A * B)


@given(ideal_pairs())
def test_colon_sandwich(pair):
    ctx, A, B = pair
    for w in B.generators:
        quotient = A.colon(w)
        assert quotient.contains_ideal(A)
        for g in quotient.generators:
            assert A.contains(mono_mul(g, w))


@st.composite
def related_operands(draw, max_vars=4, max_gens=5, max_exp=3):
    """An ideal A, a second ideal B and a monomial w over 1-4 variables.

    Either ideal may be zero or the unit ideal; B may share generators with A,
    contain A or lie inside it.
    """
    d = draw(st.integers(1, max_vars))
    ctx = context(*("x", "y", "z", "w")[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    gens = st.one_of(st.just([]), st.just([(0,) * d]), st.lists(exps, max_size=max_gens))
    A = ideal(ctx, draw(gens))
    shared = draw(st.lists(st.sampled_from(A.generators), max_size=3)) if A.generators else []
    relation = draw(st.sampled_from(("free", "shared", "contains A", "inside A")))
    if relation == "free":
        B = ideal(ctx, draw(gens))
    elif relation == "shared":
        B = ideal(ctx, shared + draw(gens))
    elif relation == "contains A":
        B = ideal(ctx, list(A.generators) + draw(gens))
    else:
        B = ideal(ctx, [mono_mul(g, draw(exps)) for g in shared])
    return A, B, draw(exps)


def _reference_meet(d, A_gens, B_gens):
    return oracles.reference_minimal_generators(
        d, [oracles.loop_mono_lcm(a, b) for a in A_gens for b in B_gens]
    )


@given(related_operands())
def test_operations_match_reference_antichain(operands):
    A, B, w = operands
    d = A.ctx.num_vars
    ref = oracles.reference_minimal_generators
    assert (A + B).generators == ref(d, A.generators + B.generators)
    assert A.add_monomial(w).generators == ref(d, A.generators + (w,))
    quotients = [oracles.loop_mono_colon(g, w) for g in A.generators]
    assert A.colon_monomial(w).generators == ref(d, quotients)
    assert (A * B).generators == ref(
        d, [oracles.loop_mono_mul(a, b) for a in A.generators for b in B.generators]
    )
    assert A.intersect(B).generators == _reference_meet(d, A.generators, B.generators)
    colon = saturation = ((0,) * d,)
    for b in B.generators:
        quotients = ref(d, [oracles.loop_mono_colon(g, b) for g in A.generators])
        colon = _reference_meet(d, colon, quotients)
        dropped = ref(d, [tuple(0 if b[i] else v for i, v in enumerate(g)) for g in A.generators])
        saturation = _reference_meet(d, saturation, dropped)
    assert A.colon(B).generators == colon
    if B.generators:
        assert A.saturation(B).generators == saturation


@st.composite
def artinian_ideals(draw, max_vars=4, max_gens=4, max_exp=3):
    """Ideals holding a pure power of every variable, so of finite colength."""
    d = draw(st.integers(1, max_vars))
    ctx = context(*("x", "y", "z", "w")[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    gens = draw(st.lists(exps, max_size=max_gens))
    for i in range(d):
        power = draw(st.integers(1, max_exp + 1))
        gens.append(tuple(power if j == i else 0 for j in range(d)))
    return ideal(ctx, gens)


@given(artinian_ideals())
def test_colength_matches_box_count(I):
    assert I.colength() == oracles.box_colength(I)


@st.composite
def tied_artinian_ideals(draw, max_vars=4, max_exp=3):
    """Artinian ideals whose generators share last exponents: only 0, t and t + 1 occur."""
    d = draw(st.integers(1, max_vars))
    ctx = context(*("x", "y", "z", "w")[:d])
    t = draw(st.integers(0, max_exp))
    heads = st.lists(st.integers(0, max_exp), min_size=d - 1, max_size=d - 1).map(tuple)
    gens = [head + (t + draw(st.integers(0, 1)),) for head in draw(st.lists(heads, max_size=5))]
    for i in range(d - 1):
        gens.append(tuple(draw(st.integers(1, max_exp + 1)) if j == i else 0 for j in range(d)))
    gens.append((0,) * (d - 1) + (draw(st.integers(t, t + 2)),))
    return ideal(ctx, gens)


@given(tied_artinian_ideals())
@example(ideal(context("x", "y", "z"), [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1), (0, 1, 1)]))
def test_colength_with_tied_last_exponents(I):
    # The staircase count takes the lowest set bit among generators ordered
    # by last exponent; ties make that order ambiguous, not the count.
    assert I.colength() == oracles.box_colength(I)


_exponent_tuples = st.lists(st.integers(0, 6), max_size=4).map(tuple)


@given(_exponent_tuples, _exponent_tuples)
def test_kernels_match_loop_forms(a, b):
    # Lengths differ freely: every kernel stops at the shorter argument.
    assert mono_mul(a, b) == oracles.loop_mono_mul(a, b)
    assert mono_divides(a, b) == oracles.loop_mono_divides(a, b)
    assert mono_lcm(a, b) == oracles.loop_mono_lcm(a, b)
    assert mono_colon(a, b) == oracles.loop_mono_colon(a, b)
    assert grlex_key(a) == oracles.loop_grlex_key(a)


@st.composite
def raw_generators(draw, max_vars=4, max_gens=12, max_exp=2):
    """Up to 12 monomials with exponents up to 2: equal degrees and repeats are common."""
    d = draw(st.integers(1, max_vars))
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)
    return d, draw(st.lists(exps, max_size=max_gens))


# Every monomial of degree 2 in 4 variables: ten of one degree, repeated below.
_DEGREE_TWO_LAYER = [e for e in oracles.box_points((2,) * 4) if sum(e) == 2]


@given(raw_generators())
@example((4, _DEGREE_TWO_LAYER * 2))
@example((4, _DEGREE_TWO_LAYER + [(1, 0, 0, 0), (0, 0, 0, 3), (0, 0, 0, 3)]))
@example((1, [(2,), (0,), (2,), (1,)]))
def test_minimal_generators_match_reference(raw):
    # _canonical orders by two stable sorts, not by grlex_key: on distinct
    # monomials both give one order, which the reference's sort pins.
    d, gens = raw
    ctx = context(*("x", "y", "z", "w")[:d])
    expected = oracles.reference_minimal_generators(d, gens)
    assert list(expected) == sorted(expected, key=grlex_key)
    assert minimal_generators(ctx, gens) == expected
    assert _canonical(gens) == expected
    distinct = list(set(gens))
    _grlex_sort(distinct)
    assert distinct == sorted(set(gens), key=grlex_key)


@st.composite
def equigenerated_powers(draw, max_vars=3, max_degree=3, max_power=4):
    """An ideal generated in one degree, and a power of it."""
    d = draw(st.integers(1, max_vars))
    degree = draw(st.integers(1, max_degree))
    layer = [e for e in oracles.box_points((degree,) * d) if sum(e) == degree]
    gens = draw(st.lists(st.sampled_from(layer), min_size=1, max_size=4))
    return d, gens, draw(st.integers(0, max_power))


@given(equigenerated_powers())
def test_equigenerated_powers_match_reference(case):
    # Every product has the same degree, so pruning only drops repeats.
    d, gens, n = case
    I = ideal(context(*_NAMES[:d]), gens)
    products = [(0,) * d]
    for _ in range(n):
        products = [oracles.loop_mono_mul(p, g) for p in products for g in I.generators]
    assert (I**n).generators == oracles.reference_minimal_generators(d, products)
