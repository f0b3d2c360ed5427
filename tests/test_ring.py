import pytest

from monofilt import (
    IdealSyntaxError,
    InfiniteLengthError,
    context,
    ideal,
    parse_ideal,
    parse_problem,
    unit_ideal,
    zero_ideal,
)
from monofilt import ring
from monofilt.decomposition import MonomialPrime
from monofilt.ring import grlex_key, minimal_generators
from monofilt.superficial import TermSystem

import oracles


@pytest.fixture
def kxy():
    return context("x", "y")


def test_parse_basic(kxy):
    I = parse_ideal("x^2*y, y^3", kxy)
    assert I.generators == ((2, 1), (0, 3))


def test_parse_prunes_divisible(kxy):
    assert parse_ideal("x, x^2", kxy) == ideal(kxy, [(1, 0)])


def test_parse_unknown_variable(kxy):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x^2*z, zzz", kxy)
    assert "z" in str(err.value)
    assert err.value.position == 4


def test_parse_negative_exponent(kxy):
    with pytest.raises(IdealSyntaxError, match="negative"):
        parse_ideal("x^-2", kxy)


def test_parse_repeated_variable_accumulates(kxy):
    assert parse_ideal("x*x*y", kxy).generators == ((2, 1),)


def test_parse_problem_full_form():
    ctx, I = parse_problem("vars: x,y ; ideal: x^2*y, y^3")
    assert ctx.variable_names == ("x", "y")
    assert I.generator_strings() == ["x^2*y", "y^3"]


def test_parse_problem_duplicate_vars():
    with pytest.raises(IdealSyntaxError, match="duplicate"):
        parse_problem("vars: x,x ; ideal: x")


@pytest.mark.parametrize(
    "generator, message, position",
    [
        ("x^", "expected a positive integer", 19),
        ("x^0", "exponents must be at least 1", 19),
        ("x^9223372036854775808", "exponent too large", 19),
        ("x^9223372036854775807*x", "accumulated exponent too large", 39),
    ],
)
def test_parse_problem_refuses_bad_exponents(generator, message, position):
    with pytest.raises(IdealSyntaxError) as err:
        parse_problem(f"vars: x ; ideal: {generator}")
    assert (err.value.message, err.value.position) == (message, position)


@pytest.mark.parametrize(
    "names, message",
    [
        ((), "a ring needs at least one variable"),
        (("x", "x"), "variable names must be distinct"),
        (("x", ""), "variable names must be nonempty"),
    ],
    ids=["none", "repeated", "empty"],
)
def test_ring_context_refuses_bad_names(names, message):
    with pytest.raises(ValueError, match=message):
        ring.RingContext(names)


def test_monomial_and_variable_build_exponent_vectors(kxy):
    assert kxy.monomial(x=2, y=1) == (2, 1) and kxy.monomial() == (0, 0)
    assert kxy.variable(0) == (1, 0) and kxy.variable(1) == (0, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda ctx: ctx.monomial(q=1), "unknown variable name 'q'"),
        (lambda ctx: ctx.monomial(x=1, xy=2), "unknown variable name 'xy'"),
        (lambda ctx: ctx.variable(2), "variable index 2 is out of range for 2 variables"),
        (lambda ctx: ctx.variable(-1), "variable index -1 is out of range for 2 variables"),
        (
            lambda ctx: MonomialPrime((2,)).as_ideal(ctx),
            "variable index 2 is out of range for 2 variables",
        ),
    ],
    ids=["unknown-name", "unknown-second-name", "index-past-end", "negative-index", "prime"],
)
def test_monomial_and_variable_refuse_what_the_ring_lacks(kxy, build, message):
    with pytest.raises(ValueError) as caught:
        build(kxy)
    assert str(caught.value) == message


def test_ring_context_and_ideal_take_lists(kxy):
    assert ring.RingContext(["x", "y"]) == kxy
    assert ring.MonomialIdeal(kxy, [(1, 0)]) == parse_ideal("x", kxy)


def test_negative_power_refused(kxy):
    with pytest.raises(ValueError, match="nonnegative exponent"):
        parse_ideal("x", kxy) ** -1


def test_zero_ideal_prints_as_zero(kxy):
    assert str(zero_ideal(kxy)) == "(0)"


def test_grlex_order():
    # degree first, then earlier variables dominate: 1 < x < y < x^2 < x*y < y^2
    ordering = sorted([(0, 2), (1, 1), (2, 0), (1, 0), (0, 1), (0, 0)], key=grlex_key)
    assert ordering == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_minimalize_examples(kxy):
    assert minimal_generators(kxy, [(2, 0), (3, 0), (0, 1)]) == ((0, 1), (2, 0))
    assert minimal_generators(kxy, []) == ()
    assert minimal_generators(kxy, [(0, 0), (1, 0)]) == ((0, 0),)


def test_sum_product_power(kxy):
    m = parse_ideal("x, y", kxy)
    assert (m**2).generator_strings() == ["x^2", "x*y", "y^2"]
    I = parse_ideal("x^2, x*y", kxy)
    assert (I**2).generator_strings() == ["x^4", "x^3*y", "x^2*y^2"]
    assert I * (I**0) == I
    assert I**0 == unit_ideal(kxy)


def test_power_matches_oracle(kxy):
    I = parse_ideal("x^2, x*y", kxy)
    bounds = tuple(2 * b for b in I.box())
    assert oracles.agrees(I**2, oracles.power_predicate(I, 2), bounds)


def test_intersect_examples(kxy):
    x, y = parse_ideal("x", kxy), parse_ideal("y", kxy)
    assert x.intersect(y) == parse_ideal("x*y", kxy)
    A = parse_ideal("x^2, y", kxy)
    B = parse_ideal("x", kxy)
    got = A.intersect(B)
    assert got == parse_ideal("x^2, x*y", kxy)
    assert oracles.agrees(got, oracles.intersect_predicate(A, B), oracles.merge_bounds(A.box(), B.box()))
    assert A.intersect(unit_ideal(kxy)) == A


def test_colon_examples(kxy):
    A = parse_ideal("x^2, x*y", kxy)
    assert A.colon((1, 0)) == parse_ideal("x, y", kxy)
    assert A.colon(parse_ideal("x, y", kxy)) == parse_ideal("x", kxy)
    assert A.colon((0, 0)) == A
    assert oracles.agrees(A.colon((1, 0)), oracles.colon_monomial_predicate(A, (1, 0)), A.box())


@pytest.mark.parametrize("w", [(1,), (1, 0, 0), (-1, 0), (0, -2)])
def test_monomial_operand_is_checked(kxy, w):
    A = parse_ideal("x^2, y", kxy)
    with pytest.raises(ValueError):
        A.colon_monomial(w)
    with pytest.raises(ValueError):
        A.add_monomial(w)


BINARY_OPERATIONS = {
    "sum": lambda A, B: A + B,
    "product": lambda A, B: A * B,
    "intersect": lambda A, B: A.intersect(B),
    "colon": lambda A, B: A.colon(B),
    "saturation": lambda A, B: A.saturation(B),
    "contains_ideal": lambda A, B: A.contains_ideal(B),
}


@pytest.mark.parametrize("names", [("a", "b"), ("x", "y", "z")], ids=["ab", "xyz"])
@pytest.mark.parametrize("operation", BINARY_OPERATIONS)
def test_operations_need_one_ring(kxy, operation, names):
    # Same variable count with other names, and one variable more: both are
    # other rings, in either operand order and against the zero ideal too.
    op = BINARY_OPERATIONS[operation]
    A = parse_ideal("x^2", kxy)
    other = context(*names)
    B = ideal(other, [other.variable(1)])
    for left, right in ((A, B), (B, A), (A, zero_ideal(other))):
        with pytest.raises(ValueError, match="different rings") as err:
            op(left, right)
        assert "k[x,y]" in str(err.value) and f"k[{','.join(names)}]" in str(err.value)


def test_results_from_canonical_operands_are_not_rechecked(kxy, monkeypatch):
    A = parse_ideal("x^3, x*y^2, y^4", kxy)
    B = parse_ideal("x^2*y, y^3", kxy)
    X = parse_ideal("x", kxy)
    pairs = [(a, b) for a in A.generators for b in B.generators]
    ref = oracles.reference_minimal_generators
    product = ref(2, [tuple(map(sum, zip(a, b))) for a, b in pairs])
    lcms = ref(2, [oracles.loop_mono_lcm(a, b) for a, b in pairs])
    checked = []
    original = ring._checked
    monkeypatch.setattr(ring, "_checked", lambda g, d: checked.append(g) or original(g, d))
    assert (A * B).generators == product
    assert A.intersect(B).generators == lcms
    assert B.saturation(X).generators == ((0, 1),)
    assert A.radical().generators == ((1, 0), (0, 1))
    assert checked == []
    for g in [(1,), (1, 0, 0), (-1, 0)]:
        with pytest.raises(ValueError):
            ideal(kxy, [g])
    assert len(checked) == 3


def test_sum_with_zero_keeps_the_operand(kxy):
    I = parse_ideal("x^2, x*y", kxy)
    zero = zero_ideal(kxy)
    assert I + zero == zero + I == I
    assert (I + zero).generators is I.generators
    assert (zero + I).generators is I.generators
    assert zero + zero == zero
    assert zero.add_monomial((1, 0)) == parse_ideal("x", kxy)
    # The engine's sum T(n) + 0 shares T(n)'s tuple instead of storing a copy.
    ts = TermSystem(parse_ideal("x^3, y^3", kxy))
    assert ts.term_plus(zero, 16).generators is ts.term(16).generators


def test_saturation_examples(kxy):
    m = parse_ideal("x, y", kxy)
    assert parse_ideal("x^2, x*y", kxy).saturation(m) == parse_ideal("x", kxy)
    assert parse_ideal("x", kxy).saturation(m) == parse_ideal("x", kxy)
    assert parse_ideal("x^2*y^3", kxy).saturation(parse_ideal("y", kxy)) == parse_ideal("x^2", kxy)
    with pytest.raises(ValueError):
        parse_ideal("x", kxy).saturation(zero_ideal(kxy))


def test_radical_examples(kxy):
    assert parse_ideal("x^2, y^3", kxy).radical() == parse_ideal("x, y", kxy)
    assert parse_ideal("x^2*y", kxy).radical() == parse_ideal("x*y", kxy)
    assert zero_ideal(kxy).radical() == zero_ideal(kxy)


def test_contains_and_equality(kxy):
    A = parse_ideal("x^2, x*y", kxy)
    assert A.contains((3, 1))
    assert not A.contains((1, 0))
    m = parse_ideal("x, y", kxy)
    assert m**2 == parse_ideal("x^2, x*y, y^2", kxy)


def test_colength(kxy):
    assert (parse_ideal("x, y", kxy) ** 2).colength() == 3
    assert parse_ideal("x^2, y^3", kxy).colength() == 6
    assert unit_ideal(kxy).colength() == 0
    with pytest.raises(InfiniteLengthError, match="'y'"):
        parse_ideal("x", kxy).colength()


def test_degenerate_representations(kxy):
    assert zero_ideal(kxy).is_zero()
    assert unit_ideal(kxy).is_unit()
    assert zero_ideal(kxy) * parse_ideal("x", kxy) == zero_ideal(kxy)
    assert unit_ideal(kxy) * parse_ideal("x", kxy) == parse_ideal("x", kxy)
    assert zero_ideal(kxy) ** 0 == unit_ideal(kxy)


def test_values_are_immutable_and_hashable(kxy):
    A = parse_ideal("x^2, x*y", kxy)
    assert hash(A) == hash(parse_ideal("x*y, x^2", kxy))
    with pytest.raises(AttributeError):
        A.generators = ()
