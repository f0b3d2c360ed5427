import copy
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from monofilt import (
    ClosureChain,
    CyclicFilteredModule,
    FiltrationEngine,
    PrimeFiltration,
    closure_powers_report,
    cm_certificate,
    cofinality_table,
    colon_threshold,
    context,
    filtration_bound_check,
    find_superficial,
    ideal,
    noetherian_exponent,
    parse_ideal,
    parse_problem,
    powers_report,
    rees_cofinality_constant,
    unit_ideal,
    verify_certificate,
    zero_ideal,
)
from monofilt import superficial
from monofilt.ring import MonomialIdeal
from monofilt.superficial import (
    C_MAX,
    SpliceCertificate,
    SuperficialCertificate,
    TermSystem,
    _scan,
    colon_threshold_for,
    search_certificate,
)

import oracles


@pytest.fixture
def kxy():
    return context("x", "y")


def test_maximal_ideal_certificate(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x, y", kxy))
    cert = find_superficial(M, n_max=20)
    assert (cert.element, cert.order, cert.c, cert.colon_threshold) == ((1, 0), 1, 0, 1)
    assert verify_certificate(M, cert)


def test_principal_certificate(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x", kxy))
    cert = find_superficial(M, n_max=12)
    assert (cert.element, cert.order) == ((1, 0), 1)


def test_zerodivisor_direction_skipped(kxy):
    # x acts as zero on R/(x); the search must settle on y.
    M = CyclicFilteredModule(parse_ideal("x", kxy), parse_ideal("x, y", kxy))
    cert = find_superficial(M, n_max=20)
    assert cert.element == (0, 1)
    assert cert.order == 1
    assert verify_certificate(M, cert)


def test_first_candidate_rejected_by_bounded_check(kxy):
    # For (x^2, x*y) the grlex-first candidate x^2 fails the defining
    # condition at small n; the search must move on to x*y.
    I = parse_ideal("x^2, x*y", kxy)
    M = CyclicFilteredModule(zero_ideal(kxy), I)
    cert = find_superficial(M, n_max=16)
    assert cert.element == (1, 1)
    assert cert.colon_threshold == 1


def test_colon_threshold_requires_membership(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2, x*y", kxy))
    with pytest.raises(ValueError):
        colon_threshold(M, (0, 1), 1, 10)  # y is not in the ideal


def test_colon_threshold_rejects_order_below_one(kxy):
    # The unit monomial lies in T(0) = R, but order 0 splices nowhere.
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2, x*y", kxy))
    with pytest.raises(ValueError):
        colon_threshold(M, (0, 0), 0, 5)


@pytest.mark.parametrize("kind", [TermSystem, ClosureChain])
def test_huge_orders_are_answered_from_degrees(monkeypatch, kxy, kind):
    # Every monomial of T(m) has degree at least 2 * m here, so x of degree 1
    # lies in no T(m): the membership walk stops after one round and
    # T(10**6) is never built; small orders answer as they did when T(m) was
    # always built.
    I = parse_ideal("x^2, y^2", kxy)
    asked = []
    term = TermSystem.term
    monkeypatch.setattr(TermSystem, "term", lambda ts, n: asked.append(n) or term(ts, n))
    module = CyclicFilteredModule(zero_ideal(kxy), kind(I))
    for order in (1, 2, 10**6):
        assert not verify_certificate(module, SpliceCertificate((1, 0), order, 1, 1))
        with pytest.raises(ValueError, match="does not lie in the required term ideal"):
            colon_threshold(module, (1, 0), order, 4)
    assert max(asked, default=0) <= 4
    assert verify_certificate(module, SpliceCertificate((2, 0), 1, 1, 4))
    assert colon_threshold(module, (2, 0), 1, 4) == 1
    assert not verify_certificate(module, SpliceCertificate((2, 2), 3, 1, 4))
    # x*y has the degree of T(1) but lies only in its closure.
    if kind is ClosureChain:
        assert colon_threshold(module, (1, 1), 1, 4) == 1
    else:
        with pytest.raises(ValueError, match="does not lie in the required term ideal"):
            colon_threshold(module, (1, 1), 1, 4)


def test_verify_rejects_order_below_one_and_c_outside_the_range(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2, x*y", kxy))
    assert not verify_certificate(M, SuperficialCertificate((0, 0), 0, 0, 1, 24))
    cert = find_superficial(M, n_max=16)
    assert verify_certificate(M, cert)
    assert not verify_certificate(M, SuperficialCertificate(cert.element, 1, -1, 1, 16))
    # x^4 is no superficial element of R/(x*y) under (x^4, x*y, y^4), but
    # with c = verified_to the defining condition checks only n = c.
    I, J = parse_ideal("x^4, x*y, y^4", kxy), parse_ideal("x*y", kxy)
    for c in (8, 9):
        assert not verify_certificate(
            CyclicFilteredModule(J, I), SuperficialCertificate((4, 0), 1, c, 1, 8)
        )


def test_verify_rejects_element_outside_the_ring(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2, x*y", kxy))
    for element in ((1,), (1, 1, 0), (2, -1), (1.0, 1), None):
        assert not verify_certificate(M, SuperficialCertificate(element, 1, 0, 1, 8))


def test_verify_rejects_element_in_the_annihilator(kxy):
    # x lies in J = (x, y^2), so it acts as zero; both conditions still hold
    # at c = 2 because T(n) + J = J from n = 2 on.
    M = CyclicFilteredModule(parse_ideal("x, y^2", kxy), parse_ideal("x, y", kxy))
    assert not verify_certificate(M, SuperficialCertificate((1, 0), 1, 2, 1, 8))


def test_term_fills_powers_without_recursion(kxy):
    # One missing level per frame would pass the default recursion limit.
    assert TermSystem(parse_ideal("x", kxy)).term(3000) == ideal(kxy, [(3000, 0)])


def test_colon_identity_regular_case(kxy):
    # J = 0 makes the identity read I^n : x = I^(n-1) literally.
    I = parse_ideal("x, y", kxy)
    x = (1, 0)
    for n in range(1, 25):
        assert (I**n).colon(x) == I ** (n - 1)


def test_certificate_monotone_in_c(kxy):
    from monofilt.superficial import _defining_condition_holds

    I = parse_ideal("x^2, x*y", kxy)
    ts = TermSystem(I)
    J = zero_ideal(kxy)
    cert = search_certificate(ts, J, 3, 12)
    for c in range(cert.c, cert.c + 3):
        assert all(
            _defining_condition_holds(ts, J, cert.element, cert.order, c, n)
            for n in range(c, 13)
        )


def test_inner_module_needs_positive_c(kxy):
    # On R/(x*y) with I = (x^2, x*y), the candidate x^2 only verifies after
    # truncating at c = 1.
    I = parse_ideal("x^2, x*y", kxy)
    ts = TermSystem(I)
    cert = search_certificate(ts, parse_ideal("x*y", kxy), 3, 12)
    assert cert.element == (2, 0)
    assert cert.c == 1


def test_not_found_is_legitimate(kxy):
    # No monomial is superficial for R/(x*y) when I = (x^4, x*y, y^4):
    # candidates outside (x*y) are pure powers and miss one axis.
    I = parse_ideal("x^4, x*y, y^4", kxy)
    J = parse_ideal("x*y", kxy)
    assert find_superficial(CyclicFilteredModule(J, I), order_max=3, n_max=12) is None
    assert not isinstance(search_certificate(TermSystem(I), J, 3, 12), SuperficialCertificate)


def test_splice_certificate_where_no_superficial_exists(kxy):
    # R/(x*y) under (x^4, x*y, y^4) has no monomial superficial element, but
    # x^4 satisfies the colon identity the splice needs at every level.
    I = parse_ideal("x^4, x*y, y^4", kxy)
    J = parse_ideal("x*y", kxy)
    ts = TermSystem(I)
    cert = search_certificate(ts, J, 3, 12)
    assert cert == SpliceCertificate(
        element=(4, 0), order=1, colon_threshold=1, verified_to=12
    )
    for n in range(1, 13):
        assert (I**n + J).colon(cert.element) == J.colon(cert.element) + I ** (n - 1)


def test_splice_search_can_fail(kxy):
    # (x^2*y, x*y^2) admits no splice certificate on R itself either, so its
    # sweep still falls back.
    I = parse_ideal("x^2*y, x*y^2", kxy)
    assert search_certificate(TermSystem(I), zero_ideal(kxy), 3, 12) is None


def test_not_found_at_root(kxy, monkeypatch):
    # (x^2*y, x*y^2) admits no monomial superficial element even on R itself:
    # every candidate colon picks up a point below the degree staircase.
    I = parse_ideal("x^2*y, x*y^2", kxy)
    assert find_superficial(CyclicFilteredModule(zero_ideal(kxy), I), order_max=4, n_max=20) is None
    # nor with a truncation level up to 8, above the search's own C_MAX
    monkeypatch.setattr(superficial, "C_MAX", 8)
    assert search_certificate(TermSystem(I), zero_ideal(kxy), 4, 20) is None


_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(
    st.lists(_EXPONENTS.filter(any), min_size=1, max_size=3),
    st.lists(_EXPONENTS, max_size=2),
    st.integers(1, 5),
)
def test_certificates_rest_on_a_level_above_c(gens, ann, n_max):
    # The defining condition at n = c holds for every element, so it verifies nothing.
    ctx = context("x", "y")
    I, J = ideal(ctx, gens), ideal(ctx, ann)
    if J.contains_ideal(I):
        return
    cert = find_superficial(CyclicFilteredModule(J, I), n_max=n_max)
    assert cert is None or cert.c < cert.verified_to


def test_find_superficial_preconditions(kxy):
    with pytest.raises(ValueError):
        find_superficial(CyclicFilteredModule(zero_ideal(kxy), zero_ideal(kxy)))
    with pytest.raises(ValueError):
        find_superficial(
            CyclicFilteredModule(parse_ideal("x, y", kxy), parse_ideal("x, y", kxy))
        )


# Each request below used to return an answer without checking its input:
# an empty range, or a module whose filtration ideal is the unit ideal.
def _unit_module(ctx):
    return CyclicFilteredModule(zero_ideal(ctx), unit_ideal(ctx))


_DEGENERATE = "the filtration ideal must be proper and nonzero"


class _Rising(TermSystem):
    """A term system whose T(2) is the unit ideal, so its terms do not descend."""

    def term(self, n):
        return unit_ideal(self.ctx) if n == 2 else super().term(n)


@pytest.mark.parametrize(
    "request_, message",
    [
        (lambda I: noetherian_exponent(I, 4, 0), "n_max must be at least 1, got 0"),
        (lambda I: rees_cofinality_constant(I, 0), "m_max must be at least 1, got 0"),
        (lambda I: cofinality_table(I, 0), "n_max must be at least 1, got 0"),
        (
            lambda I: filtration_bound_check(I, 0, powers_report(I, 2)),
            "n_max must be at least 1, got 0",
        ),
        (lambda I: FiltrationEngine(I, order_max=0), "order_max must be at least 1, got 0"),
        (lambda I: FiltrationEngine(I, verify_to=0), "verify_to must be at least 1, got 0"),
        (
            lambda I: verify_certificate(
                _unit_module(I.ctx), SuperficialCertificate((1, 0), 1, 0, 1, 24)
            ),
            _DEGENERATE,
        ),
        (lambda I: colon_threshold(_unit_module(I.ctx), (1, 0), 1, 10), _DEGENERATE),
        (lambda I: cofinality_table(_Rising(I), 3), "the term ideals are not descending"),
        (lambda I: cm_certificate(zero_ideal(I.ctx), {}), _DEGENERATE),
        (
            lambda I: cm_certificate(ClosureChain(I), powers_report(I, 2).filtrations),
            "the powers of I, not a ClosureChain",
        ),
        (lambda I: cm_certificate(I, {}), "levels must be at least 1, got 0"),
        (
            lambda I: cm_certificate(I, {0: PrimeFiltration(unit_ideal(I.ctx), ())}),
            "n must be at least 1, got 0",
        ),
        (
            lambda I: cm_certificate(I, {-3: PrimeFiltration(unit_ideal(I.ctx), ())}),
            "n must be at least 1, got -3",
        ),
    ],
    ids=[
        "noetherian_exponent",
        "rees_cofinality_constant",
        "cofinality_table",
        "filtration_bound_check",
        "engine_order_max",
        "engine_verify_to",
        "verify_certificate",
        "colon_threshold",
        "cofinality_table_rising",
        "cm_certificate_zero_ideal",
        "cm_certificate_closure_chain",
        "cm_certificate_no_level",
        "cm_certificate_level_0",
        "cm_certificate_negative_level",
    ],
)
def test_requests_that_used_to_pass_unchecked_are_refused(kxy, request_, message):
    with pytest.raises(ValueError, match=message):
        request_(parse_ideal("x^2, x*y", kxy))


def test_cofinality_plain_powers(kxy):
    I = parse_ideal("x, y", kxy)
    assert cofinality_table(I, 8) == list(range(1, 9))


def test_cofinality_closure_terms(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    table = cofinality_table(ClosureChain(I), 12)
    assert all(k >= n - 1 for n, k in enumerate(table, start=1))
    assert table == sorted(table)


def test_cofinality_rejects_zero_action(kxy):
    with pytest.raises(ValueError):
        cofinality_table(zero_ideal(kxy), 5)
    with pytest.raises(ValueError):
        cofinality_table(TermSystem(zero_ideal(kxy)), 5)


def test_certificate_search_computes_each_colon_once(monkeypatch, kxy):
    # The threshold scan asks for J : x at every level it checks; the term
    # system answers each from one colon per candidate.
    computed = Counter()
    colon_monomial = MonomialIdeal.colon_monomial

    def counted(ideal_, w):
        computed[ideal_, w] += 1
        return colon_monomial(ideal_, w)

    monkeypatch.setattr(MonomialIdeal, "colon_monomial", counted)
    I = parse_ideal("x^2, x*y", kxy)
    J = parse_ideal("y^3", kxy)
    ts = TermSystem(I)
    for m in (1, 2):
        for x in ts.term(m).generators:
            colon_threshold_for(ts, J, x, m, 12)
            assert computed[J, x] == 1, x
    search_certificate(ts, J, 2, 12)
    assert all(computed[J, x] == 1 for _, x in _scan(ts, J, 2))


def test_certificate_search_keeps_no_colon_of_a_sum(kxy):
    # (x^2*y, x*y^2) admits no certificate, so the search tries every
    # candidate and compares many colons (T(n) + J) : x; each is built where
    # it is compared, and the term system keeps only the sums and J : x.
    ts = TermSystem(parse_ideal("x^2*y, x*y^2", kxy))
    assert search_certificate(ts, zero_ideal(kxy), 3, 24) is None
    assert {key[0] for key in ts._memo} == {"sum", "annihilator colon"}


# Every certificate the engine asks for while sweeping the curated suite to
# n = 12 (verified to 24): (annihilator, superficial element and c, or None,
# first splice element).  Every order and colon threshold is 1.
SUITE_CERTIFICATES = {
    "vars: x,y ; ideal: x": [("", "x", 0, "x")],
    "vars: x,y ; ideal: x, y": [("", "x", 0, "x"), ("x", "y", 0, "y")],
    "vars: x,y ; ideal: x^2, x*y": [
        ("", "x*y", 0, "x*y"),
        ("y", "x^2", 0, "x^2"),
        ("x*y", "x^2", 1, "x^2"),
    ],
    "vars: x,y,z ; ideal: x*z, y*z": [
        ("", "x*z", 0, "x*z"),
        ("x", "y*z", 0, "y*z"),
        ("x*z", "y*z", 1, "y*z"),
    ],
    "vars: x,y ; ideal: x^3, y^3": [("", "x^3", 0, "x^3"), ("x^3", "y^3", 0, "y^3")],
    "vars: x,y ; ideal: x^4, x*y, y^4": [
        ("", "x*y", 0, "x*y"),
        ("y", "x^4", 0, "x^4"),
        ("x", "y^4", 0, "y^4"),
        ("x*y", None, None, "x^4"),
        ("x*y, x^4", "y^4", 1, "y^4"),
    ],
    "vars: x,y ; ideal: x^2": [("", "x^2", 0, "x^2")],
    "vars: x,y ; ideal: x^2, y^2": [("", "x^2", 0, "x^2"), ("x^2", "y^2", 0, "y^2")],
    "vars: x,y ; ideal: x^2, x*y, y^2": [
        ("", "x^2", 0, "x^2"),
        ("x^2", "y^2", 0, "x*y"),
        ("x^2, y^2", "x*y", 2, "x*y"),
    ],
    "vars: x,y ; ideal: x^3, x^2*y": [
        ("", "x^2*y", 0, "x^2*y"),
        ("y", "x^3", 0, "x^3"),
        ("x^2*y", "x^3", 1, "x^3"),
    ],
    "vars: x,y,z ; ideal: x*y, y*z": [
        ("", "x*y", 0, "x*y"),
        ("x", "y*z", 0, "y*z"),
        ("x*y", "y*z", 1, "y*z"),
    ],
}


def _monomial(text, ctx):
    return parse_ideal(text, ctx).generators[0]


def _first_splice(ts, J, order_max, verify_to):
    # The splice certificate the search falls back on: the first candidate
    # with a colon threshold, whether or not a superficial one comes later.
    for m, x in _scan(ts, J, order_max):
        threshold = colon_threshold_for(ts, J, x, m, verify_to)
        if threshold is not None:
            return SpliceCertificate(x, m, threshold, verify_to)
    return None


def test_suite_certificates_are_unchanged(suite_reports):
    for text, rows in SUITE_CERTIFICATES.items():
        ctx, I = parse_problem(text)
        seen = {}
        for annihilator, element, c, splice in rows:
            J = parse_ideal(annihilator, ctx) if annihilator else zero_ideal(ctx)
            ts = TermSystem(I)
            cert = search_certificate(ts, J, 3, 24)
            first_splice = SpliceCertificate(_monomial(splice, ctx), 1, 1, 24)
            if element is None:
                assert cert == first_splice
            else:
                assert cert == SuperficialCertificate(_monomial(element, ctx), 1, c, 1, 24)
                assert verify_certificate(CyclicFilteredModule(J, I), cert)
            assert _first_splice(ts, J, 3, 24) == first_splice
            seen[J] = cert
        assert suite_reports[text].engine._certs == seen


_IDEAL_PAIRS = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(0, 3)] * d).filter(any), min_size=1, max_size=3),
        st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=2),
    )
)


def _pair(drawn):
    d, gens, ann = drawn
    ctx = context(*("x", "y", "z")[:d])
    return ideal(ctx, gens), ideal(ctx, ann)


@given(_IDEAL_PAIRS, st.integers(1, 3), st.integers(0, C_MAX), st.integers(0, 10))
@example((2, [(2, 0), (1, 1), (0, 2)], [(2, 0)]), 1, C_MAX, 10)  # splice x*y precedes y^2
@settings(max_examples=200)
def test_search_matches_the_two_scan_reference(drawn, order_max, c_max, verify_to):
    I, J = _pair(drawn)
    with mock.patch.object(superficial, "C_MAX", c_max):
        found = search_certificate(TermSystem(I), J, order_max, verify_to)
    assert found == oracles.reference_certificate_search(I, J, order_max, c_max, verify_to)


@given(_IDEAL_PAIRS, st.integers(1, 3))
def test_colon_threshold_matches_the_upward_loop(drawn, order_max):
    I, J = _pair(drawn)
    ts = TermSystem(I)
    powers = oracles.reference_powers(I, 10)
    for m in range(1, order_max + 1):
        for x in ts.term(m).generators:
            for n_max in range(-1, 11):
                assert colon_threshold_for(ts, J, x, m, n_max) == (
                    oracles.reference_colon_threshold(powers, J, x, m, n_max)
                ), (x, m, n_max)


def test_engine_certificates_verify(suite_reports, kxy):
    # Every certificate an engine holds, of either kind, passes the
    # independent level-by-level check on the engine's own term system;
    # (x^4, x*y, y^4) holds a splice one.  Some closure-chain certificates
    # lie outside I, so they fail when read as ordinary powers.
    engines = [report.engine for report in suite_reports.values()]
    engines.append(powers_report(parse_ideal("x^4, x*y, y^4", kxy), 6).engine)
    for text in ("x^3, y^3", "x^2, x*y", "x^3, x*y^2", "x^4, x*y, y^4"):
        engines.append(closure_powers_report(parse_ideal(text, kxy), 6).engine)
    kinds = Counter()
    for engine in engines:
        for J, cert in engine._certs.items():
            if cert is not None:
                assert verify_certificate(CyclicFilteredModule(J, engine.ts), cert), (J, cert)
                kinds[type(cert)] += 1
                if isinstance(engine.ts, ClosureChain):
                    kinds["closure"] += 1
                    kinds["fails as powers"] += not verify_certificate(
                        CyclicFilteredModule(J, engine.ts.I), cert
                    )
    assert kinds[SpliceCertificate] >= 1 and kinds[SuperficialCertificate] >= 1
    assert kinds["closure"] > kinds["fails as powers"] >= 1


def test_closure_certificate_outside_I_verifies_on_its_chain(kxy):
    # On (x^3, y^3) at J = (x^3, y^3) the closure engine splices along
    # x^2*y, which lies in closure(I) but not in I.
    I = J = parse_ideal("x^3, y^3", kxy)
    chain = ClosureChain(I)
    cert = SuperficialCertificate((2, 1), 1, 2, 1, 12)
    assert closure_powers_report(chain, 6).engine._certs[J] == cert
    assert verify_certificate(CyclicFilteredModule(J, chain), cert)
    assert not verify_certificate(CyclicFilteredModule(J, I), cert)
    assert colon_threshold(CyclicFilteredModule(J, chain), (2, 1), 1, 12) == 1
    with pytest.raises(ValueError, match="does not lie in the required term ideal"):
        colon_threshold(CyclicFilteredModule(J, I), (2, 1), 1, 12)


@pytest.mark.parametrize("kind", [TermSystem, ClosureChain])
def test_verify_leaves_the_given_system_unchanged(kxy, kind):
    ts = kind(parse_ideal("x^3, y^3", kxy))
    engine = FiltrationEngine(ts)
    engine.filtration(6)
    caches = ("_terms", "_memo")
    before = {name: copy.copy(getattr(ts, name)) for name in caches}
    for J, cert in engine._certs.items():
        if cert is not None:
            assert verify_certificate(CyclicFilteredModule(J, ts), cert)
    assert {name: getattr(ts, name) for name in caches} == before


def test_verify_checks_splice_certificates(kxy):
    I, J = parse_ideal("x^4, x*y, y^4", kxy), parse_ideal("x*y", kxy)
    module = CyclicFilteredModule(J, I)
    assert verify_certificate(module, SpliceCertificate((4, 0), 1, 1, 12))
    # The identity holds at level 1, so threshold 2 is not the least one.
    assert not verify_certificate(module, SpliceCertificate((4, 0), 1, 2, 12))
    assert not verify_certificate(module, SpliceCertificate((4, 0), 1, 0, 12))
    assert not verify_certificate(module, SpliceCertificate((4, 0), 1, 13, 12))
    assert not verify_certificate(module, SpliceCertificate((1, 1), 1, 1, 12))  # in J
    # (x^2*y, x*y^2) admits no splice certificate on R (test_splice_search_can_fail).
    root = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2*y, x*y^2", kxy))
    for x in ((2, 1), (1, 2)):
        assert not verify_certificate(root, SpliceCertificate(x, 1, 1, 12))


_TERM_KINDS = st.sampled_from([TermSystem, ClosureChain])


def test_membership_of_a_high_order_builds_no_term(kxy):
    # x^800 lies in T(400) for (x^2, y^2); deciding it walks partial
    # products, so only the terms the threshold scan reads to n_max 3 exist.
    ts = TermSystem(parse_ideal("x^2, y^2", kxy))
    module = CyclicFilteredModule(zero_ideal(kxy), ts)
    assert colon_threshold(module, (800, 0), 400, 3) == 1
    assert len(ts._terms) <= 4
    assert superficial._lies_in_term(ts, (801, 1), 400)
    assert not superficial._lies_in_term(ts, (801, 1), 401)
    assert len(ts._terms) <= 4


@given(_IDEAL_PAIRS, _TERM_KINDS, st.integers(1, 5), st.data())
@settings(max_examples=120)
def test_membership_walk_matches_the_built_term(drawn, kind, m, data):
    I, _ = _pair(drawn)
    x = data.draw(st.tuples(*[st.integers(0, 9)] * I.ctx.num_vars))
    assert superficial._lies_in_term(kind(I), x, m) == kind(I).term(m).contains(x)


@given(_IDEAL_PAIRS, _TERM_KINDS, st.integers(0, 3), st.data())
@settings(max_examples=80)
def test_rees_recurrence_holds_from_the_rees_level(drawn, kind, m, data):
    # T(k + 1) : x = I * (T(k) : x) for k >= D(x) + h, with x a generator of
    # T(m) or, for m = 0, any monomial.
    I, _ = _pair(drawn)
    ts = kind(I)
    if m:
        x = data.draw(st.sampled_from(ts.term(m).generators))
    else:
        x = data.draw(st.tuples(*[st.integers(0, 3)] * I.ctx.num_vars))
    level = ts.rees_level(x)
    for k in range(level, level + 4):
        assert ts.term(k + 1).colon_monomial(x) == I * ts.term(k).colon_monomial(x), (x, k)


@given(_IDEAL_PAIRS, _TERM_KINDS, st.integers(1, 3), st.integers(0, 8), st.data())
@settings(max_examples=120)
def test_conditions_match_their_equality_forms(drawn, kind, m, n, data):
    # For x in T(m) and c <= n, T(n) + J lies in ((T(n + m) + J) : x) meet
    # (T(c) + J), so the defining condition is the reverse containment.  Both
    # checks agree with the equality of ideals built afresh on a second
    # system, the colon identity at levels below m included.
    I, J = _pair(drawn)
    ts, fresh = kind(I), kind(I)
    g = data.draw(st.sampled_from(ts.term(m).generators))
    x = tuple(a + b for a, b in zip(g, data.draw(st.tuples(*[st.integers(0, 2)] * len(g)))))
    c = data.draw(st.integers(0, n))
    base = fresh.term(n) + J
    meet = (fresh.term(n + m) + J).colon_monomial(x).intersect(fresh.term(c) + J)
    assert meet.contains_ideal(base)
    assert superficial._defining_condition_holds(ts, J, x, m, c, n) == (meet == base)
    for k in range(n + m + 1):
        fresh_sum = J.colon_monomial(x) + fresh.term(k - m)
        identity = (fresh.term(k) + J).colon_monomial(x) == fresh_sum
        assert superficial._colon_identity_holds(ts, J, x, m, k) == identity, k


def test_rees_level_is_tight(kxy):
    # One level below D(x) the recurrence can fail, so D cannot shrink by one:
    # for I = (x, y), D(x) = 1 and I^1 : x = R is not I * (I^0 : x) = I.
    ts = TermSystem(parse_ideal("x, y", kxy))
    assert ts.rees_level((1, 0)) == 1
    assert ts.term(1).colon_monomial((1, 0)) != ts.I * ts.term(0).colon_monomial((1, 0))
    # Closure chains are tight only rarely (2 variables only, in probes):
    # for (x^3, y^3), h = 1 and D(x^3) = 1, and the recurrence fails at k = 1.
    chain = ClosureChain(parse_ideal("x^3, y^3", kxy))
    assert chain.rees_level((3, 0)) == 2
    assert chain.term(2).colon_monomial((3, 0)) != chain.I * chain.term(1).colon_monomial((3, 0))
    rng = random.Random(19)
    tight = 0
    for _ in range(40):
        I = oracles.random_proper_ideal(rng, max_gens=3, max_exp=3)
        ts = TermSystem(I)
        x = rng.choice(ts.term(rng.randint(1, 2)).generators)
        k = ts.rees_level(x) - 1
        if k >= 0 and ts.term(k + 1).colon_monomial(x) != I * ts.term(k).colon_monomial(x):
            tight += 1
    assert tight >= 10, tight


def test_search_matches_the_level_by_level_reference():
    # Both term systems, a nonzero annihilator, verify_to 0..14: the search
    # that derives the levels above the Rees level returns what checking
    # every level returns, and so does each threshold scan.
    rng = random.Random(1907)
    cases = 0
    while cases < 150:
        I = oracles.random_proper_ideal(rng, max_gens=3, max_exp=3)
        d = I.ctx.num_vars
        J = ideal(I.ctx, [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(3)])
        if J.is_zero() or J.contains_ideal(I):
            continue
        kind = (TermSystem, ClosureChain)[cases % 2]
        verify_to, order_max = cases % 15, rng.randint(1, 3)
        ts, reference = kind(I), kind(I)
        assert search_certificate(ts, J, order_max, verify_to) == (
            oracles.reference_level_by_level_search(reference, J, order_max, C_MAX, verify_to)
        ), (I, J, kind, verify_to)
        for m in range(1, order_max + 1):
            for x in ts.term(m).generators:
                assert colon_threshold_for(ts, J, x, m, verify_to) == (
                    oracles.reference_threshold_scan(reference, J, x, m, verify_to)
                ), (I, J, kind, x, m, verify_to)
        cases += 1


def test_levels_are_derived_only_above_the_colon_threshold(kxyz):
    # The identity for y^2*z^3 fails at its Rees level 3 and holds from 4 on,
    # so the defining condition is derived only from 4 - m on; deriving it
    # from 3 - m would accept c = 1.
    I, J = parse_ideal("x*z^2, y^2*z^3", kxyz), parse_ideal("x^4*z", kxyz)
    ts = TermSystem(I)
    assert ts.rees_level((0, 2, 3)) == 3
    cert = search_certificate(ts, J, 2, 8)
    assert cert == SuperficialCertificate((0, 2, 3), 1, 2, 4, 8)
    assert cert == oracles.reference_level_by_level_search(TermSystem(I), J, 2, C_MAX, 8)


def test_search_checks_the_full_condition_only_where_the_identity_is_unknown(monkeypatch, kxy):
    # x*y has colon threshold 1 and Rees level 3 <= 18, so its colon identity
    # is known at every level from 1 on: A(18) alone settles c = 0, and the
    # full defining condition is checked at no level.
    levels = []
    holds = superficial._defining_condition_holds

    def counted(ts, J, x, m, c, n):
        levels.append(n)
        return holds(ts, J, x, m, c, n)

    monkeypatch.setattr(superficial, "_defining_condition_holds", counted)
    ts = TermSystem(parse_ideal("x^4, x*y, y^4", kxy))
    cert = search_certificate(ts, zero_ideal(kxy), 3, 18)
    assert cert == SuperficialCertificate((1, 1), 1, 0, 1, 18)
    assert levels == []


def test_empty_range_gives_no_threshold_and_no_certificate(kxy):
    I = parse_ideal("x, y", kxy)
    for kind in (TermSystem, ClosureChain):
        ts = kind(I)
        assert colon_threshold_for(ts, zero_ideal(kxy), (1, 0), 1, n_max=0) is None
        assert search_certificate(ts, zero_ideal(kxy), 3, verify_to=0) is None
