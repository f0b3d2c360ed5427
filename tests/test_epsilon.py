import pytest
from hypothesis import example, given, strategies as st

from monofilt import (
    ClosureChain,
    DegenerateIdealError,
    MonomialIdeal,
    MonomialPrime,
    associated_primes,
    closure_powers_report,
    context,
    epsilon_estimate,
    filtration_bound_check,
    h0_length,
    ideal,
    parse_ideal,
    powers_report,
    unit_ideal,
)
from monofilt.superficial import TermSystem

import oracles

_NAMES = ("x", "y", "z", "w")


@pytest.fixture
def kxy():
    return context("x", "y")


def test_h0_of_the_unit_ideal_refused(kxy):
    with pytest.raises(DegenerateIdealError, match="R/J is the zero module") as refused:
        h0_length(unit_ideal(kxy))
    assert type(refused.value) is DegenerateIdealError


def test_h0_examples(kxy):
    assert h0_length(parse_ideal("x^2, x*y", kxy)) == 1
    assert h0_length(parse_ideal("x, y", kxy) ** 2) == 3
    assert h0_length(parse_ideal("x", kxy)) == 0


def test_h0_oblique_witness(kxy):
    # sat((x^2*y, x^3)) = (x^2); the single torsion monomial is x^2 itself,
    # which sits on the boundary of the generator box.
    assert h0_length(parse_ideal("x^2*y, x^3", kxy)) == 1


def test_h0_walks_the_staircase_without_saturation_or_colength(kxy, monkeypatch):
    # The torsion count reads sat(J)/J off J's own staircase: it builds no
    # saturation and takes no colength.
    def refuse(*args):
        raise AssertionError("h0_length saturated or took a colength")

    monkeypatch.setattr(MonomialIdeal, "saturation", refuse)
    monkeypatch.setattr(MonomialIdeal, "colength", refuse)
    I = parse_ideal("x^2, x*y", kxy)
    assert h0_length(I**3) == 6
    assert h0_length(parse_ideal("x, y, z", context("x", "y", "z")) ** 4) == 20
    est = epsilon_estimate(I, 12)
    assert [l for _, l in est.lengths] == [n * (n + 1) // 2 for n in range(1, 13)]


def test_epsilon_mixed(kxy):
    est = epsilon_estimate(parse_ideal("x^2, x*y", kxy), 30)
    assert [l for _, l in est.lengths] == [n * (n + 1) // 2 for n in range(1, 31)]
    assert abs(est.estimate - 1.0) < 0.05


def test_epsilon_artinian(kxy):
    est = epsilon_estimate(parse_ideal("x, y", kxy), 20)
    assert [l for _, l in est.lengths] == [n * (n + 1) // 2 for n in range(1, 21)]
    assert abs(est.estimate - 1.0) < 0.1


def test_epsilon_saturated_powers(kxy):
    est = epsilon_estimate(parse_ideal("x", kxy), 10)
    assert all(l == 0 for _, l in est.lengths)
    assert est.estimate == 0.0


def test_bound_check_examples(kxy):
    I = parse_ideal("x^2, x*y", kxy)
    report = powers_report(I, 12, "theorem")
    rows = filtration_bound_check(I, 12, report)
    assert all(row.ok for row in rows)
    # mu for the maximal ideal is n^2 here while the torsion length is n(n+1)/2
    assert [row.maximal_multiplicity for row in rows] == [n * n for n in range(1, 13)]


def test_bound_check_rejects_a_report_of_other_modules(kxy):
    # The closure sweep has the same ideal but filters R/closure(I^n); its
    # multiplicities would fail the bound falsely (length 9 against 6 at n = 1).
    I = parse_ideal("x^3, y^3", kxy)
    with pytest.raises(ValueError, match="do not filter R/I\\^1"):
        filtration_bound_check(I, 6, closure_powers_report(I, 6))
    for mode in ("naive", "theorem"):
        assert all(row.ok for row in filtration_bound_check(I, 6, powers_report(I, 6, mode)))


def test_bound_check_equality_case(kxy):
    I = parse_ideal("x, y", kxy)
    report = powers_report(I, 8, "theorem")
    for row in filtration_bound_check(I, 8, report):
        assert row.length == row.maximal_multiplicity


def test_bound_check_wrong_report(kxy):
    report = powers_report(parse_ideal("x", kxy), 4, "theorem")
    with pytest.raises(ValueError):
        filtration_bound_check(parse_ideal("x, y", kxy), 4, report)
    with pytest.raises(ValueError):
        filtration_bound_check(parse_ideal("x", kxy), 9, report)


def test_shared_term_system_must_hold_the_powers(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    with pytest.raises(ValueError, match="powers of I, not a ClosureChain"):
        epsilon_estimate(ClosureChain(I), 4)
    with pytest.raises(ValueError, match="powers of I, not a ClosureChain"):
        filtration_bound_check(ClosureChain(I), 4, powers_report(I, 4))
    terms = TermSystem(I)
    estimate = epsilon_estimate(terms, 6)
    rows = filtration_bound_check(terms, 6, powers_report(terms, 6))
    assert [(row.n, row.length) for row in rows] == list(estimate.lengths)


@st.composite
def proper_ideals(draw, max_vars=3, max_gens=4, max_exp=3):
    d = draw(st.integers(1, max_vars))
    ctx = context(*_NAMES[:d])
    exps = (
        st.lists(st.integers(0, max_exp), min_size=d, max_size=d)
        .map(tuple)
        .filter(any)
    )
    return ctx, ideal(ctx, draw(st.lists(exps, min_size=1, max_size=max_gens)))


_KXYZ = context("x", "y", "z")


@given(proper_ideals(max_vars=4), st.integers(1, 2))
@example((_KXYZ, ideal(_KXYZ, [(1, 1, 0), (0, 0, 2), (2, 0, 1)])), 1)
@example((context("x"), ideal(context("x"), [(3,)])), 1)  # one variable: no leading axis
# Tied last exponents, shaped like the tied Artinian ideals of the colength test.
@example((_KXYZ, ideal(_KXYZ, [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1), (0, 1, 1)])), 2)
@example((_KXYZ, ideal(_KXYZ, [(2, 0, 0), (1, 1, 0)])), 2)  # z is absent from J
def test_h0_matches_box_count(pair, power):
    # Powers carry torsion more often than the random ideals themselves.
    ctx, I = pair
    J = I**power
    assert h0_length(J) == oracles.box_h0_length(J)


@given(proper_ideals())
def test_h0_vanishes_iff_maximal_not_associated(pair):
    ctx, J = pair
    maximal = MonomialPrime(tuple(range(ctx.num_vars)))
    torsion_free = h0_length(J) == 0
    assert torsion_free == (maximal not in associated_primes(J))
