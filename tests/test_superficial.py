import pytest
from hypothesis import given, strategies as st

from monofilt import (
    CyclicFilteredModule,
    cofinality_table,
    colon_threshold,
    context,
    find_superficial,
    ideal,
    integral_closure_power,
    parse_ideal,
    verify_certificate,
    zero_ideal,
)
from monofilt.superficial import (
    SpliceCertificate,
    TermSystem,
    search_certificate,
    search_splice_certificate,
)


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
    cert = search_certificate(ts, J, 3, 6, 12)
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
    cert = search_certificate(ts, parse_ideal("x*y", kxy), 3, 6, 12)
    assert cert.element == (2, 0)
    assert cert.c == 1


def test_not_found_is_legitimate(kxy):
    # No monomial is superficial for R/(x*y) when I = (x^4, x*y, y^4):
    # candidates outside (x*y) are pure powers and miss one axis.
    I = parse_ideal("x^4, x*y, y^4", kxy)
    ts = TermSystem(I)
    assert search_certificate(ts, parse_ideal("x*y", kxy), 3, 6, 12) is None


def test_splice_certificate_where_no_superficial_exists(kxy):
    # R/(x*y) under (x^4, x*y, y^4) has no monomial superficial element, but
    # x^4 satisfies the colon identity the splice needs at every level.
    I = parse_ideal("x^4, x*y, y^4", kxy)
    J = parse_ideal("x*y", kxy)
    ts = TermSystem(I)
    cert = search_splice_certificate(ts, J, 3, 12)
    assert cert == SpliceCertificate(
        element=(4, 0), order=1, colon_threshold=1, verified_to=12
    )
    for n in range(1, 13):
        assert (I**n + J).colon(cert.element) == J.colon(cert.element) + I ** (n - 1)


def test_splice_search_can_fail(kxy):
    # (x^2*y, x*y^2) admits no splice certificate on R itself either, so its
    # sweep still falls back.
    I = parse_ideal("x^2*y, x*y^2", kxy)
    assert search_splice_certificate(TermSystem(I), zero_ideal(kxy), 3, 12) is None


def test_not_found_at_root(kxy):
    # (x^2*y, x*y^2) admits no monomial superficial element even on R itself:
    # every candidate colon picks up a point below the degree staircase.
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x^2*y, x*y^2", kxy))
    assert find_superficial(M, order_max=4, n_max=20, c_max=8) is None


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


def test_cofinality_plain_powers(kxy):
    I = parse_ideal("x, y", kxy)
    assert cofinality_table(I, 8) == list(range(1, 9))


def test_cofinality_closure_terms(kxy):
    I = parse_ideal("x^3, y^3", kxy)
    table = cofinality_table(I, 12, term_fn=lambda n: integral_closure_power(I, n))
    assert all(k >= n - 1 for n, k in enumerate(table, start=1))
    assert table == sorted(table)


def test_cofinality_rejects_zero_action(kxy):
    I = parse_ideal("x", kxy)
    with pytest.raises(ValueError):
        cofinality_table(I, 5, J=parse_ideal("x", kxy))
    with pytest.raises(ValueError):
        cofinality_table(zero_ideal(kxy), 5)
