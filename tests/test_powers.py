import json
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from monofilt import (
    CyclicFilteredModule,
    FiltrationEngine,
    MonomialPrime,
    SpliceCertificate,
    SuperficialCertificate,
    ass_stability,
    associated_primes,
    bad_filtration_fixture,
    closure_powers_report,
    context,
    ideal,
    naive_prime_filtration,
    parse_ideal,
    parse_problem,
    powers_report,
    theorem_filtration,
    validate,
    zero_ideal,
)
from monofilt import powers
from monofilt.filtration import PrimeFiltration, glue
from monofilt.powers import detect_stabilization, filtration_digest, fit_growth_exponent
from monofilt.ring import MonomialIdeal, unit_ideal

import oracles


@pytest.fixture
def kxy():
    return context("x", "y")


def test_theorem_principal_power(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x", kxy))
    F = theorem_filtration(M, 3)
    assert validate(F)
    assert F.ledger() == Counter({MonomialPrime((0,)): 3})
    assert F == theorem_filtration(M, 3)  # deterministic


def test_theorem_level_zero_is_empty(kxy):
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x", kxy))
    assert theorem_filtration(M, 0).steps == ()


@pytest.mark.parametrize(
    "generator, ledger",
    [("x", {(0,): 600}), ("x*y", {(0,): 600, (1,): 600})],
    ids=["x", "xy"],
)
def test_theorem_deep_level_stays_off_the_recursion_limit(kxy, generator, ledger):
    # Each level splices along the generator with J : x = J, so its left
    # branch is the level below: a chain of 600 splices, which the engine's
    # work stack holds with no call frame per level.
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal(generator, kxy))
    F = theorem_filtration(M, 600)
    assert validate(F)
    assert {p.support: c for p, c in F.ledger().items()} == ledger


def test_theorem_matches_naive_multiplicity(kxy):
    I = parse_ideal("x^2, x*y", kxy)
    M = CyclicFilteredModule(zero_ideal(kxy), I)
    F = theorem_filtration(M, 4)
    assert validate(F)
    assert {p.support for p in F.primes()} <= {(0,), (0, 1)}
    assert set(associated_primes(I**4)) <= set(F.primes())


def assert_ledgers_add(engine):
    """Each glue node's ledger is the sum of its left and right children's."""
    for (J, n), node in engine.glue_nodes.items():
        whole, _ = engine.filtration(n, J)
        left, _ = engine.filtration(node["left"][1], node["left"][0])
        right, _ = engine.filtration(node["right"][1], node["right"][0])
        assert whole.ledger() == left.ledger() + right.ledger()


def test_theorem_random_regression():
    # Fixed-seed sweep over small random ideals: every level validates,
    # contains Ass, meets the colength count on artinian levels, and the
    # ledgers add along every recorded splice.
    import random

    import oracles
    from monofilt.ring import InfiniteLengthError

    rng = random.Random(96321)
    for _ in range(10):
        I = oracles.random_proper_ideal(rng, max_vars=2, max_gens=3, max_exp=3)
        rep = powers_report(I, 3, "theorem")
        for rec in rep.records:
            assert validate(rep.filtrations[rec.n])
            assert set(rec.ass) <= set(rec.primes)
            try:
                length = rep.engine.ts.term(rec.n).colength()
            except InfiniteLengthError:
                continue
            assert rec.steps == length
        assert_ledgers_add(rep.engine)


def test_report_principal(kxy):
    rep = powers_report(parse_ideal("x", kxy), 8, "theorem")
    assert [dict(r.ledger)[MonomialPrime((0,))] for r in rep.records] == list(range(1, 9))
    assert [p.support for p in rep.primes_union] == [(0,)]
    exponents = {p.support: e for p, e, _ in rep.growth}
    assert abs(exponents[(0,)] - 1.0) < 1e-9
    assert rep.ledger_of(8) == Counter({MonomialPrime((0,)): 8})
    with pytest.raises(KeyError):
        rep.ledger_of(9)


def test_report_maximal(kxy):
    rep = powers_report(parse_ideal("x, y", kxy), 12, "theorem")
    maximal = MonomialPrime((0, 1))
    assert [dict(r.ledger)[maximal] for r in rep.records] == [
        n * (n + 1) // 2 for n in range(1, 13)
    ]
    # the finite-range slope of log(n(n+1)/2) sits a little under 2
    exponents = {p.support: e for p, e, _ in rep.growth}
    assert 1.8 <= exponents[(0, 1)] <= 2.05


def test_report_mixed_ideal_stable(kxy):
    rep = powers_report(parse_ideal("x^2, x*y", kxy), 12, "theorem")
    assert {p.support for p in rep.primes_union} == {(0,), (0, 1)}
    assert rep.stabilization["kind"] == "stable"
    assert not any(r.fallback for r in rep.records)
    assert all(set(r.ass) <= set(r.primes) for r in rep.records)


def test_report_without_root_certificate_falls_back(kxy):
    # No monomial superficial element exists for (x^2*y, x*y^2); the sweep
    # must still produce validated filtrations, flagged as fallbacks, with a
    # finite stable factor set.
    rep = powers_report(parse_ideal("x^2*y, x*y^2", kxy), 6, "theorem")
    assert rep.superficial is None
    assert all(r.fallback for r in rep.records)
    assert {p.support for p in rep.primes_union} == {(0,), (1,), (0, 1)}
    assert rep.stabilization["kind"] == "stable"


def test_report_splices_along_splice_certificate(kxy):
    # The module R/(x*y) reached from the root has no superficial element;
    # the engine splices there along x^4 and never falls back, while the
    # root certificate stays the superficial element x*y.
    I = parse_ideal("x^4, x*y, y^4", kxy)
    rep = powers_report(I, 12, "theorem")
    root = rep.superficial
    assert isinstance(root, SuperficialCertificate)
    assert (root.element, root.order) == ((1, 1), 1)
    assert rep.to_document()["superficial"]["element"] == "x*y"
    assert rep.fallback_nodes == ()
    assert not any(r.fallback for r in rep.records)
    assert all(validate(rep.filtrations[n]) for n in range(1, 13))
    J = parse_ideal("x*y", kxy)
    assert isinstance(rep.engine.certificate(J), SpliceCertificate)
    assert rep.engine.glue_nodes[(J, 12)]["multiplier"] == (4, 0)


def test_root_certificate_is_the_superficial_search():
    # The engine keeps one certificate cache; its root entry, when
    # superficial, must be what the plain superficial search at the report's
    # bounds finds, and a splice certificate at the root must not leak out.
    import random

    import oracles
    from monofilt.superficial import TermSystem, search_certificate

    rng = random.Random(5107)
    for _ in range(30):
        I = oracles.random_proper_ideal(rng, max_vars=3, max_gens=4, max_exp=3)
        n_max = rng.randint(1, 4)
        rep = powers_report(I, n_max, "theorem")
        found = search_certificate(TermSystem(I), zero_ideal(I.ctx), 3, 2 * n_max)
        assert rep.engine.certificate(zero_ideal(I.ctx)) == found
        expected = found if isinstance(found, SuperficialCertificate) else None
        assert rep.engine.root_certificate() == expected
        assert rep.superficial == expected
    # At n_max 1 this root splices along x^2*y^4 but has no superficial element.
    I = parse_ideal("x*y^2, x^3*y", context("x", "y"))
    rep = powers_report(I, 1, "theorem")
    assert isinstance(rep.engine.certificate(zero_ideal(I.ctx)), SpliceCertificate)
    assert rep.engine.root_certificate() is None
    assert rep.superficial is None


def test_report_naive_mode(kxy):
    rep = powers_report(parse_ideal("x^2, x*y", kxy), 6, "naive")
    assert rep.superficial is None
    assert rep.engine is None
    assert not any(r.fallback for r in rep.records)
    assert {p.support for p in rep.primes_union} == {(0,), (0, 1)}


def test_glue_recurrence_on_engine(kxy):
    engine = FiltrationEngine(parse_ideal("x^2, x*y", kxy))
    for n in range(1, 9):
        engine.filtration(n)
    assert engine.glue_nodes
    assert_ledgers_add(engine)


def test_engine_computes_one_colon_per_splice(monkeypatch, kxy):
    # The recheck of the colon identity at a splice computes (T(n) + J) : x
    # and compares it with the left child's base; the engine's lift does not
    # compute it again, where glue's precondition would.
    calls = Counter()
    colon_monomial = MonomialIdeal.colon_monomial

    def counted(ideal_, w):
        calls["colon"] += 1
        return colon_monomial(ideal_, w)

    monkeypatch.setattr(MonomialIdeal, "colon_monomial", counted)
    I = parse_ideal("x^3, y^3", kxy)
    report = powers_report(I, 9)
    lifted = calls.pop("colon")
    monkeypatch.setattr(powers, "_splice", glue)
    glued = powers_report(I, 9)
    assert glued.filtrations == report.filtrations
    assert calls["colon"] - lifted == len(report.engine.glue_nodes) > 0
    engine = report.engine
    for (J, n), node in engine.glue_nodes.items():
        left, _ = engine.filtration(node["left"][1], node["left"][0])
        right, _ = engine.filtration(node["right"][1], node["right"][0])
        base = engine.ts.term_plus(J, n)
        assert engine.filtration(n, J)[0] == glue(base, node["multiplier"], left, right)


def test_ass_stability_mixed(kxy):
    rep = ass_stability(parse_ideal("x^2, x*y", kxy), 10)
    assert rep.onset == 1
    assert all(
        [p.support for p in primes] == [(0,), (0, 1)] for _, primes in rep.per_n
    )
    assert [p.support for p in rep.union] == [(0,), (0, 1)]


def test_ass_stability_constant_cases(kxy):
    assert ass_stability(parse_ideal("x, y", kxy), 6).onset == 1
    assert ass_stability(parse_ideal("x", kxy), 6).onset == 1


def test_bad_fixture_adds_embedded_prime(kxy):
    bad = bad_filtration_fixture(kxy, 2, kxy.monomial(y=1))
    assert validate(bad)
    assert bad.base == parse_ideal("x^2", kxy)
    assert {p.support for p in bad.primes()} == {(0,), (0, 1)}
    good = theorem_filtration(
        CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x", kxy)), 2
    )
    assert {p.support for p in good.primes()} < {p.support for p in bad.primes()}


def test_bad_fixture_contrast_across_powers(kxy):
    # The same bad choice f = y keeps dragging in the embedded prime at every
    # power, while the certified builder stays at {(x)}.
    M = CyclicFilteredModule(zero_ideal(kxy), parse_ideal("x", kxy))
    for n in range(1, 6):
        bad = bad_filtration_fixture(kxy, n, kxy.monomial(y=1))
        assert validate(bad)
        assert (0, 1) in {p.support for p in bad.primes()}
        good = theorem_filtration(M, n)
        assert {p.support for p in good.primes()} == {(0,)}


def test_bad_fixture_trivial_choice(kxy):
    bad = bad_filtration_fixture(kxy, 3, kxy.unit_monomial())
    assert validate(bad)
    assert {p.support for p in bad.primes()} == {(0,)}


def test_bad_fixture_rejects_x_multiples(kxy):
    with pytest.raises(ValueError):
        bad_filtration_fixture(kxy, 2, kxy.monomial(x=1))


def test_detect_stabilization_kinds():
    a, b = ("A",), ("B",)
    assert detect_stabilization([a, a, a, a, a], 4, 1)["kind"] == "stable"
    out = detect_stabilization([a, b, a, b, a, b, a, b], 4, 2)
    assert out["kind"] == "periodic"
    assert out["period"] == 2
    assert detect_stabilization([a, b, a, a, b, a, b, b], 4, 2)["kind"] == "none"


def test_fit_growth_exponent_exact_square():
    points = [(n, n * n) for n in range(5, 13)]
    assert abs(fit_growth_exponent(points) - 2.0) < 1e-9
    assert fit_growth_exponent(points[:3]) is None
    assert fit_growth_exponent([(n, 0) for n in range(10)]) is None
    # Four points at one n leave log(n) no spread to fit against.
    assert fit_growth_exponent([(3, mu) for mu in (1, 2, 3, 4)]) is None


def test_report_rejects_degenerate(kxy):
    with pytest.raises(ValueError):
        powers_report(zero_ideal(kxy), 4)
    with pytest.raises(ValueError):
        powers_report(parse_ideal("x", kxy), 0)
    with pytest.raises(ValueError):
        powers_report(parse_ideal("x", kxy), 4, "fancy")


def assert_summary_matches_reference(filtration, witness_text):
    assert filtration_digest(filtration, witness_text) == oracles.reference_filtration_digest(
        filtration
    )
    assert filtration.ledger() == Counter(p for _, p in filtration.steps)
    assert filtration.primes() == tuple(sorted({p for _, p in filtration.steps}))


def test_digest_and_ledger_match_reference(curated_ideals, kxy):
    for (ctx, I), mode in product(curated_ideals.values(), ("theorem", "naive")):
        report = powers_report(I, 6, mode)
        witness_text = {}
        rows = report.to_document()["per_n"]
        for record, row in zip(report.records, rows, strict=True):
            filtration = report.filtrations[record.n]
            assert row["digest"] == oracles.reference_filtration_digest(filtration)
            assert_summary_matches_reference(filtration, witness_text)
            assert record.ledger == tuple(sorted(filtration.ledger().items()))
            assert record.primes == filtration.primes()
    assert_summary_matches_reference(PrimeFiltration(unit_ideal(kxy), ()), {})
    assert_summary_matches_reference(bad_filtration_fixture(kxy, 3, (0, 2)), {})
    # json.dumps escapes the non-ASCII variable name; the cached text must too.
    greek = context("α", "x_1")
    I = ideal(greek, [(2, 0), (1, 2)])  # (α^2, α*x_1^2)
    for mode in ("theorem", "naive"):
        report = powers_report(I, 4, mode)
        witness_text = {}
        rows = report.to_document()["per_n"]
        for record, row in zip(report.records, rows, strict=True):
            assert row["digest"] == oracles.reference_filtration_digest(report.filtrations[record.n])
            assert_summary_matches_reference(report.filtrations[record.n], witness_text)
        assert any("\\u03b1" in text for text in witness_text.values())


def test_theorem_digests_match_golden(suite_reports, curated_ideals):
    # Per-level theorem-mode digests recorded at commit da95989: the curated
    # suite to n = 12 and two larger sweeps.  Any change to the certificate
    # search, the engine or the digest that moves a filtration shows here.
    golden = json.loads((Path(__file__).parent / "golden" / "theorem_digests.json").read_text())
    assert len(golden) == len(curated_ideals) + 2
    for case in golden:
        report = suite_reports.get(case["ideal"])
        if report is None or report.n_max != case["n_max"]:
            _, I = parse_problem(case["ideal"])
            report = powers_report(I, case["n_max"], "theorem")
        assert [row["digest"] for row in report.to_document()["per_n"]] == case["digests"], case["ideal"]


def test_naive_digests_match_golden():
    # Per-level naive-mode digests recorded at commit 342abfe, before the
    # greedy kept its witness map incrementally: the curated suite to n = 8,
    # the four fixed naive jobs of the greedy-ass benchmark workload, and two
    # 3-variable sweeps.  Any change to the greedy's choice of step shows here.
    golden = json.loads((Path(__file__).parent / "golden" / "naive_digests.json").read_text())
    assert len(golden) == 17
    for case in golden:
        _, I = parse_problem(case["ideal"])
        report = powers_report(I, case["n_max"], "naive")
        assert [row["digest"] for row in report.to_document()["per_n"]] == case["digests"], case["ideal"]


# Engine records pinned in tests/golden/engine_records.json: the curated
# suite's engines at n = 9, reports and verify_to = 2 engines of two ideals,
# and the closure engine of (x^3, y^3).
ENGINE_RECORD_N_MAX = 9
ENGINE_RECORD_IDEALS = ("vars: x,y ; ideal: x^4, x*y, y^4", "vars: x,y ; ideal: x^2*y, x*y^2")


def _record_cases(curated_texts):
    for text in curated_texts:
        yield f"powers {text}", powers_report(parse_problem(text)[1], ENGINE_RECORD_N_MAX).engine
    for text in ENGINE_RECORD_IDEALS:
        I = parse_problem(text)[1]
        yield f"powers {text}", powers_report(I, ENGINE_RECORD_N_MAX).engine
        engine = FiltrationEngine(I, verify_to=2)
        for n in range(1, ENGINE_RECORD_N_MAX + 1):
            engine.filtration(n)
        yield f"verify_to 2 {text}", engine
    text = "vars: x,y ; ideal: x^3, y^3"
    yield f"closure {text}", closure_powers_report(parse_problem(text)[1], ENGINE_RECORD_N_MAX).engine


def engine_records(curated_texts):
    """Each case's glue and fallback records as text, in (level, generators) order."""

    def node(J, n):
        return f"({', '.join(J.generator_strings())}) n={n}"

    def ordered(records):
        return sorted(records.items(), key=lambda item: (item[0][1], item[0][0].generators))

    cases = []
    for case, engine in _record_cases(curated_texts):
        ctx = engine.ctx
        glue_nodes = [
            f"{node(J, n)}: x={ctx.monomial_str(r['multiplier'])} m={r['order']}"
            f" left={node(*r['left'])} right={node(*r['right'])}"
            for (J, n), r in ordered(engine.glue_nodes)
        ]
        fallback_nodes = [f"{node(J, n)}: {reason}" for (J, n), reason in ordered(engine.fallback_nodes)]
        cases.append({"case": case, "glue_nodes": glue_nodes, "fallback_nodes": fallback_nodes})
    return cases


def test_engine_records_match_golden(curated_ideals):
    # Recorded at commit b0db03d, while the engine still kept its glue and
    # fallback records in dicts of their own.
    golden = json.loads((Path(__file__).parent / "golden" / "engine_records.json").read_text())
    assert engine_records(curated_ideals) == golden


@pytest.mark.parametrize(
    "text, verify_to, n, annihilator, reason",
    [
        ("vars: x,y,z ; ideal: y^3*z, x^3*y*z^2", None, 1, None,
         "neither a superficial nor a splice certificate for this module"),
        ("vars: x,y ; ideal: x^3, x*y^2, y^3", None, 1, "x^3",
         "level below the certified colon threshold"),
        ("vars: x,y,z ; ideal: y^3*z, x^3*y*z^2", 2, 3, None,
         "colon identity failed on recheck at this level"),
    ],
)
def test_each_fallback_reason(text, verify_to, n, annihilator, reason):
    # One node per reason the engine gives for building a level greedily.
    ctx, I = parse_problem(text)
    J = zero_ideal(ctx) if annihilator is None else parse_ideal(annihilator, ctx)
    if verify_to is None:
        report = powers_report(I, 6)
        assert (J, n, reason) in report.fallback_nodes
        engine = report.engine
    else:
        engine = FiltrationEngine(I, verify_to=verify_to)
        for level in range(1, 7):
            engine.filtration(level)
    assert engine.fallback_nodes[(J, n)] == reason
    filtration, fell_back = engine.filtration(n, J)
    assert fell_back
    assert filtration == naive_prime_filtration(engine.ts.term_plus(J, n))
    assert (J, n) not in engine.glue_nodes


def test_fallback_nodes_come_in_report_order():
    # The traversal meets this engine's three level-2 fallbacks in an order
    # their generators do not sort in; the view lists them by level, then
    # generators, the order of a report's fallback_nodes.
    _, I = parse_problem("vars: x,y,z ; ideal: x^3, x*z^3, x^2*y^3*z")
    engine = FiltrationEngine(I, verify_to=4)
    for n in range(1, 7):
        engine.filtration(n)
    built = [key for key, level in engine._levels.items() if level[3] is not None]
    report_order = sorted(built, key=lambda key: (key[1], key[0].generators))
    assert built != report_order
    assert list(engine.fallback_nodes) == report_order


class _CountingLevels(dict):
    """A level table that counts its membership probes."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_sweep_probes_the_level_table_a_bounded_number_of_times(kxy):
    # A sweep to n builds each level once and reads the levels below it from
    # the table; walking every lower level on each call would probe it
    # about n^2 / 2 times, some hundred per level here.
    engine = FiltrationEngine(parse_ideal("x", kxy), verify_to=800)
    engine._levels = _CountingLevels()
    for n in range(1, 401):
        engine.filtration(n)
    assert len(engine._levels) == 801
    assert engine._levels.probes <= 5 * len(engine._levels)


def _swept_ideals(curated_ideals):
    import random

    yield from (I for _, I in curated_ideals.values())
    rng = random.Random(2611)
    drawn = 0
    while drawn < 20:
        I = oracles.random_proper_ideal(rng, max_vars=3, max_gens=3, max_exp=3)
        if I.ctx.num_vars >= 2:
            drawn += 1
            yield I


def test_levels_do_not_depend_on_call_order(curated_ideals):
    # A level's record depends only on its key: an engine asked for (0, n)
    # at once builds what a sweep to n builds below that key, no more.
    n_max = 6
    for I in _swept_ideals(curated_ideals):
        swept = FiltrationEngine(I, verify_to=2 * n_max)
        for n in range(1, n_max + 1):
            swept.filtration(n)
        for n in range(1, n_max + 1):
            fresh = FiltrationEngine(I, verify_to=2 * n_max)
            fresh.filtration(n)
            assert fresh._levels.keys() <= swept._levels.keys(), (I, n)
            for key, record in fresh._levels.items():
                assert record[:2] == swept._levels[key][:2], (I, key)
            assert fresh.glue_nodes.items() <= swept.glue_nodes.items(), (I, n)


def test_only_the_document_computes_the_per_level_ass_and_digests(monkeypatch):
    # powers_report computes no level's Ass or digest; to_document computes
    # each once per level, and each record's ass is its document row.
    import random

    calls = Counter()
    for name in ("associated_primes", "filtration_digest"):
        original = getattr(powers, name)
        monkeypatch.setattr(
            powers, name, lambda *a, name=name, original=original: calls.update([name]) or original(*a)
        )
    rng = random.Random(7213)
    drawn = 0
    while drawn < 12:
        I = oracles.random_proper_ideal(rng, max_vars=3, max_gens=3, max_exp=3)
        if I.ctx.num_vars < 2:
            continue
        drawn += 1
        for mode in ("naive", "theorem"):
            calls.clear()
            report = powers_report(I, 4, mode)
            assert calls == Counter(), (I, mode)
            document = report.to_document()
            assert calls == Counter(associated_primes=4, filtration_digest=4), (I, mode)
            for record, row in zip(report.records, document["per_n"], strict=True):
                assert [p.names(I.ctx) for p in record.ass] == row["ass"], (I, mode)
