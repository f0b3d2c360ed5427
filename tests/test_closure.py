import random

import pytest
from hypothesis import given, settings, strategies as st

from monofilt import (
    ClosureChain,
    CyclicFilteredModule,
    DimensionLimitError,
    ass_stability,
    closure_powers_report,
    colon_threshold,
    context,
    epsilon_estimate,
    filtration_bound_check,
    find_superficial,
    ideal,
    integral_closure_power,
    newton_polyhedron,
    noetherian_exponent,
    parse_ideal,
    parse_problem,
    powers_report,
    rees_cofinality_constant,
    theorem_filtration,
    verify_certificate,
    zero_ideal,
)

import monofilt.closure as closure
from monofilt import cli
from monofilt.powers import FiltrationEngine
from monofilt.superficial import TermSystem, cofinality_table

import oracles


@pytest.fixture
def kxy():
    return context("x", "y")


def test_polyhedron_two_pure_powers(kxy):
    poly = newton_polyhedron(parse_ideal("x^3, y^3", kxy))
    assert poly.vertices == ((0, 3), (3, 0))
    assert ((1, 1), 3) in poly.facets


def test_polyhedron_principal(kxy):
    poly = newton_polyhedron(parse_ideal("x", kxy))
    assert ((1, 0), 1) in poly.facets
    assert poly.contains_point((1, 5))
    assert not poly.contains_point((0, 9))
    # A point off the positive orthant lies in no dilation, whatever its facets say.
    assert not poly.contains_point((1, -1))


def test_zero_ideal_has_no_polyhedron(kxy):
    with pytest.raises(ValueError, match="the zero ideal has no Newton polyhedron"):
        newton_polyhedron(zero_ideal(kxy))


def test_polyhedron_skew_facet(kxy):
    poly = newton_polyhedron(parse_ideal("x^4, y^3", kxy))
    assert ((3, 4), 12) in poly.facets
    for v in ((4, 0), (0, 3)):
        assert sum(a * b for a, b in zip((3, 4), v)) == 12


@st.composite
def proper_ideals(draw, max_vars=4, max_gens=4, max_exp=3):
    d = draw(st.integers(1, max_vars))
    ctx = context(*"xyzw"[:d])
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple).filter(any)
    return ideal(ctx, draw(st.lists(exps, min_size=1, max_size=max_gens)))


@given(proper_ideals())
def test_polyhedron_inequalities_are_facets(I):
    poly = newton_polyhedron(I)
    assert poly.facets
    for halfspace in poly.facets:
        assert oracles.is_facet(halfspace, I.generators), halfspace


def _hull_and_reference(I):
    poly = newton_polyhedron(I)
    reference = oracles.reference_newton_polyhedron(I.generators, I.ctx.num_vars)
    return (poly.facets, poly.vertices), reference


@settings(max_examples=200)
@given(proper_ideals(max_gens=5, max_exp=4))
def test_polyhedron_matches_the_rational_reference(I):
    hull, reference = _hull_and_reference(I)
    assert hull == reference


def _wide_ideals(count=12, seed=25):
    # Seeded ideals in 5 and 6 variables, whose hulls have too many subsets
    # for a hypothesis run.  Even exponents let each ideal also take the
    # midpoint of its first two generators, which is never a vertex.
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice((5, 6))
        ctx = context(*[f"t{i}" for i in range(d)])
        gens = [tuple(2 * rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        gens.append(tuple((a + b) // 2 for a, b in zip(gens[0], gens[1])))
        yield ideal(ctx, [g for g in gens if any(g)] or [(1,) * d])


@pytest.mark.parametrize("I", list(_wide_ideals()), ids=str)
def test_wide_polyhedron_matches_the_rational_reference(I):
    hull, reference = _hull_and_reference(I)
    assert hull == reference


@pytest.mark.parametrize(
    "rows",
    [
        [(1, -1, 0), (1, -1, 0)],  # two equal generator differences
        [(0, 0, 1), (0, 0, 1)],  # a ray repeated
        [(1, -1, 0, 0), (0, 0, 1, 0), (2, -2, 3, 0)],  # a difference the others span
    ],
)
def test_null_vector_refuses_rank_deficient_rows(rows):
    assert closure._null_vector(rows, len(rows[0])) is None


def test_polyhedron_dimension_limit():
    ctx = context(*[f"t{i}" for i in range(7)])
    with pytest.raises(DimensionLimitError):
        newton_polyhedron(ideal(ctx, [ctx.variable(0)]))


def test_polyhedron_cache_is_bounded():
    assert newton_polyhedron.cache_info().maxsize is not None


def test_closure_examples(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    m = parse_ideal("x, y", kxy)
    assert integral_closure_power(I, 1) == m**3
    assert integral_closure_power(m, 4) == m**4
    J = parse_ideal("x^2, x*y", kxy)
    assert integral_closure_power(J, 1) == J


def test_closure_contains_and_idempotent(kxy):
    for text in ("x^3, y^3", "x^2, x*y", "x^4, x*y, y^4"):
        I = parse_ideal(text, kxy)
        for n in (1, 2, 3):
            closed = integral_closure_power(I, n)
            assert closed.contains_ideal(I**n)
            assert integral_closure_power(closed, 1) == closed


def test_closure_submultiplicative(kxy):
    I = parse_ideal("x^4, y^3", kxy)
    for a in (1, 2):
        for b in (1, 2):
            prod = integral_closure_power(I, a) * integral_closure_power(I, b)
            assert integral_closure_power(I, a + b).contains_ideal(prod)


def test_dilation_on_vertices(kxy):
    I = parse_ideal("x^4, x*y, y^4", kxy)
    base = newton_polyhedron(I)
    for n in (2, 3):
        scaled = newton_polyhedron(I**n)
        assert scaled.vertices == tuple(
            sorted(tuple(n * v for v in vert) for vert in base.vertices)
        )


def test_valuation_witness_roundtrip(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    closed = integral_closure_power(I, 1)
    for u in closed.generators:
        k = oracles.closure_witness(I.generators, 1, u)
        assert k is not None
        scaled = tuple(k * v for v in u)
        assert (I**k).contains(scaled)
    assert oracles.closure_witness(I.generators, 1, (2, 0)) is None


@given(st.integers(0, 2**32 - 1))
def test_closure_matches_reference(seed):
    # Uniform exponents 0..4 from a seeded generator: hypothesis' own small
    # ideals are mostly integrally closed and would not exercise the chain.
    rng = random.Random(seed)
    I = oracles.random_proper_ideal(rng, max_vars=3, max_gens=4, max_exp=4)
    closures = ClosureChain(I)
    for n in range(1, I.ctx.num_vars + 4):
        assert closures.term(n) == oracles.reference_integral_closure_power(I, n), n
    n = rng.randint(1, I.ctx.num_vars + 3)
    assert integral_closure_power(I, n) == closures.term(n)


@pytest.mark.parametrize(
    "text, n",
    [("vars: x,y ; ideal: x^3, y^3", 0), ("vars: x,y,z ; ideal: x^3, y^3, z^3", 1)],
)
def test_reduction_cannot_start_one_step_earlier(text, n):
    # n = d - 2: one step below where closure(I^(n+1)) = I * closure(I^n) is proved.
    ctx, I = parse_problem(text)
    assert n == ctx.num_vars - 2
    closures = ClosureChain(I)
    assert closures.term(n + 1) == oracles.reference_integral_closure_power(I, n + 1)
    assert closures.term(n + 1) != I * closures.term(n)


@pytest.fixture
def scanned_boxes(monkeypatch):
    """The bounds of every box the closure module scans, in call order."""
    boxes = []
    scan = closure.box_monomials

    def counted(bounds):
        boxes.append(bounds)
        return scan(bounds)

    monkeypatch.setattr(closure, "box_monomials", counted)
    return boxes


def test_closure_command_scans_one_box(scanned_boxes):
    assert cli.main(["closure", "--ideal", "vars: x,y ; ideal: x^3, y^3", "--nmax", "7"]) == 0
    assert scanned_boxes == [(3, 3)]


def test_closure_power_reads_a_passed_chain(kxy, scanned_boxes):
    I = parse_ideal("x^3, y^3", kxy)
    chain = ClosureChain(I)
    from_chain = [integral_closure_power(chain, n) for n in range(1, 7)]
    assert scanned_boxes == [(3, 3)]
    # given the ideal, every call scans the head again
    assert [integral_closure_power(I, n) for n in range(1, 7)] == from_chain
    assert scanned_boxes == [(3, 3)] * 7


def test_entry_points_refuse_the_wrong_kind_of_term_system(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    # ordinary powers would silently stand in for the closures
    closure_entries = (
        lambda source: noetherian_exponent(source, 2, 2),
        lambda source: rees_cofinality_constant(source, 3),
        lambda source: closure_powers_report(source, 3),
        lambda source: integral_closure_power(source, 1),
    )
    for entry in closure_entries:
        with pytest.raises(ValueError, match="expected a ClosureChain"):
            entry(TermSystem(I))
    term_entries = (
        lambda source: powers_report(source, 3),
        lambda source: powers_report(source, 3, "naive"),
        lambda source: FiltrationEngine(source),
        lambda source: cofinality_table(source, 3),
    )
    for entry in term_entries:
        with pytest.raises(ValueError, match="expected a TermSystem"):
            entry(ClosureChain(I).term)


def _on_ring(s):
    return CyclicFilteredModule(zero_ideal(s.ctx), s)


def _thresholds(s):
    # The colon threshold of each generator of I, an element of T(1).
    I = s.I if isinstance(s, TermSystem) else s
    return [colon_threshold(_on_ring(s), x, 1, 6) for x in I.generators]


def _engine_verdicts(s):
    # Each certificate an engine of s holds, verified on a module of s.
    engine = FiltrationEngine(s)
    engine.filtration(4)
    return [
        (J, cert, verify_certificate(CyclicFilteredModule(J, s), cert))
        for J, cert in engine._certs.items()
        if cert is not None
    ]


# Each entry point: the term system it reads, and a call returning comparable results.
_BOTH_FORMS = {
    "FiltrationEngine": (TermSystem, lambda s: [FiltrationEngine(s).filtration(n) for n in (1, 2, 3)]),
    "powers_report naive": (TermSystem, lambda s: powers_report(s, 4, "naive").to_document()),
    "powers_report theorem": (TermSystem, lambda s: powers_report(s, 4, "theorem").to_document()),
    "cofinality_table": (TermSystem, lambda s: cofinality_table(s, 6)),
    "epsilon_estimate": (TermSystem, lambda s: epsilon_estimate(s, 6)),
    "filtration_bound_check": (TermSystem, lambda s: filtration_bound_check(s, 4, powers_report(s, 4))),
    "noetherian_exponent": (ClosureChain, lambda s: noetherian_exponent(s, 2, 3)),
    "rees_cofinality_constant": (ClosureChain, lambda s: rees_cofinality_constant(s, 6)),
    "closure_powers_report": (ClosureChain, lambda s: closure_powers_report(s, 4).to_document()),
    "integral_closure_power": (ClosureChain, lambda s: [integral_closure_power(s, n) for n in range(1, 5)]),
    "find_superficial": (TermSystem, lambda s: find_superficial(_on_ring(s), n_max=6)),
    "colon_threshold": (TermSystem, _thresholds),
    "verify_certificate": (TermSystem, _engine_verdicts),
    "theorem_filtration": (TermSystem, lambda s: [theorem_filtration(_on_ring(s), n) for n in (1, 2, 3)]),
    "ass_stability": (TermSystem, lambda s: ass_stability(s, 6).to_document()),
}


@pytest.mark.parametrize("text", ["x^2, x*y", "x^3, y^3"])
@pytest.mark.parametrize("entry", sorted(_BOTH_FORMS))
def test_ideal_and_its_term_system_give_equal_results(kxy, entry, text):
    kind, run = _BOTH_FORMS[entry]
    I = parse_ideal(text, kxy)
    assert run(I) == run(kind(I))


def test_closure_report_keeps_its_colons_on_the_chain(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    chain = ClosureChain(I)
    report = closure_powers_report(chain, 4)
    assert report.engine.ts is chain
    assert report.filtrations[2].base == chain.term(2)


def test_noetherian_exponent(kxy):
    assert noetherian_exponent(parse_ideal("x^3, y^3", kxy), 4, 8).exponent == 1
    assert noetherian_exponent(parse_ideal("x, y", kxy), 2, 4).exponent == 1
    result = noetherian_exponent(parse_ideal("x^4, y^3", kxy), 3, 5)
    assert result.exponent is not None
    closed = integral_closure_power(parse_ideal("x^4, y^3", kxy), result.exponent)
    for n in range(1, 6):
        assert closed**n == integral_closure_power(parse_ideal("x^4, y^3", kxy), result.exponent * n)


def test_noetherian_exponent_records_where_each_candidate_failed(kxyz):
    # closure(I)^2 misses a monomial of closure(I^2), so l = 1 fails at n = 2.
    I = parse_ideal("x^2, y^3, z^7", kxyz)
    result = noetherian_exponent(I, 1, 3)
    assert (result.exponent, result.failures) == (None, ((1, 2),))
    assert noetherian_exponent(I, 2, 3).exponent == 2
    assert integral_closure_power(I, 1) ** 2 != oracles.reference_integral_closure_power(I, 2)


def test_rees_constant(kxy):
    m = parse_ideal("x, y", kxy)
    assert rees_cofinality_constant(m**3, 8) == 0
    assert rees_cofinality_constant(parse_ideal("x^3, y^3", kxy), 12) == 1
    assert rees_cofinality_constant(parse_ideal("x^4, x*y, y^4", kxy), 12) <= 6


@st.composite
def non_normal_ideals(draw, max_vars=3, max_extra=2, max_exp=3):
    """Proper ideals biased to have a power that is not integrally closed.

    Pure powers x^a, y^b with a, b >= 2 leave x^(a-1) * y^(b-1) in the
    closure of I but not in I.  Up to ``max_extra`` further generators may
    close that gap, so most draws, not all, have a non-closed power.
    """
    d = draw(st.integers(2, max_vars))
    ctx = context(*"xyz"[:d])
    gens = []
    for i in draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=d, unique=True)):
        e = [0] * d
        e[i] = draw(st.integers(2, max_exp))
        gens.append(tuple(e))
    exps = st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple).filter(any)
    return ideal(ctx, gens + draw(st.lists(exps, max_size=max_extra)))


def test_rees_constant_matches_reference():
    non_closed = []

    @given(non_normal_ideals(), st.integers(1, 7))
    def check(I, m_max):
        assert rees_cofinality_constant(I, m_max) == oracles.reference_rees_cofinality_constant(I, m_max)
        closures = ClosureChain(I)
        non_closed.append(any(closures.term(n) != I**n for n in range(1, I.ctx.num_vars + 4)))

    check()
    assert sum(non_closed) > len(non_closed) / 2, (sum(non_closed), len(non_closed))


def test_closure_report_pure_cube(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    rep = closure_powers_report(I, 6)
    assert [p.support for p in rep.primes_union] == [(0, 1)]
    assert not any(r.fallback for r in rep.records)


def test_closure_report_matches_powers_when_closed(kxy):
    I = parse_ideal("x", kxy)
    a = closure_powers_report(I, 5).to_document()
    b = powers_report(I, 5, "theorem").to_document()
    assert a == b


def test_closure_report_comparison(kxy):
    I = parse_ideal("x^2, x*y", kxy)
    closure_union = {p.support for p in closure_powers_report(I, 6).primes_union}
    powers_union = {p.support for p in powers_report(I, 6, "theorem").primes_union}
    assert closure_union == powers_union == {(0,), (0, 1)}
