"""Hopf structure: coproducts, antipodes, and the axiom checker."""

import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar import cli, reports
from hopfchar.core import GradedVector, Monomial, monomial_product
from hopfchar.hopf import HopfAlgebra, check_hopf_axioms
from hopfchar.instances import ConnesKreimer, Shuffle, instance_by_name
from hopfchar.trees import parse_tree, trees_of_order
from oracles import basis_by_scan, ck_antipode_by_edge_cuts, ck_coproduct_by_root_cuts


def text_terms(H, v):
    return {H.monomial_text(m): c for m, c in v.terms.items()}


def tensor_text_terms(H, t):
    return {(H.monomial_text(a), H.monomial_text(b)): c for (a, b), c in t.terms.items()}


# ---------------------------------------------------------------- frozen examples


def test_ck_coproduct_of_cherry(ck):
    g = ck.generator_from_text("[B,B]")
    got = tensor_text_terms(ck, ck.coproduct_monomial(g))
    assert got == {("[B,B]", "1"): 1, ("B", "[B]"): 2,
                   ("B*B", "B"): 1, ("1", "[B,B]"): 1}


def test_ck_coproduct_of_chain(ck):
    g = ck.generator_from_text("[[B]]")
    got = tensor_text_terms(ck, ck.coproduct_monomial(g))
    assert got == {("[[B]]", "1"): 1, ("[B]", "B"): 1,
                   ("B", "[B]"): 1, ("1", "[[B]]"): 1}


def test_ck_antipode_of_cherry(ck):
    g = ck.generator_from_text("[B,B]")
    got = text_terms(ck, ck.antipode_monomial(g))
    assert got == {"[B,B]": -1, "B*[B]": 2, "B*B*B": -1}


def test_fdb_a_coproduct_small(fdb_a):
    a2 = fdb_a.generator_from_text("a2")
    got = tensor_text_terms(fdb_a, fdb_a.coproduct_monomial(a2))
    assert got == {("a2", "1"): 1, ("a1", "a1"): 2, ("1", "a2"): 1}


def test_fdb_a_antipode_small(fdb_a):
    a2 = fdb_a.generator_from_text("a2")
    got = text_terms(fdb_a, fdb_a.antipode_monomial(a2))
    assert got == {"a2": -1, "a1*a1": 2}


def test_fdb_x_coproduct_small(fdb_x):
    x2 = fdb_x.generator_from_text("X2")
    got = tensor_text_terms(fdb_x, fdb_x.coproduct_monomial(x2))
    assert got == {("X2", "1"): 1, ("X1", "X1"): 3, ("1", "X2"): 1}


def test_fdb_x_antipode_small(fdb_x):
    x2 = fdb_x.generator_from_text("X2")
    got = text_terms(fdb_x, fdb_x.antipode_monomial(x2))
    assert got == {"X2": -1, "X1*X1": 3}


def test_fdb_a_coproduct_mass_is_power_of_two(fdb_a):
    from hopfchar.growth import builtin
    fam = builtin("pow")
    for n in range(1, 9):
        g = fdb_a.generators(n)[0]
        cop = fdb_a.coproduct_monomial(g)
        mass = sum(abs(c) * 1 for c in cop.terms.values())
        assert mass == 2 ** n
        assert cop.l1_norm(fam, 1) == 2 ** n


def test_shuffle_coproduct_is_deconcatenation(shuffle_ab):
    m = shuffle_ab.word_monomial("ab")
    got = tensor_text_terms(shuffle_ab, shuffle_ab.coproduct_monomial(m))
    assert got == {("ab", "1"): 1, ("a", "b"): 1, ("1", "ab"): 1}


def test_shuffle_antipode_is_signed_reversal(shuffle_ab):
    m = shuffle_ab.word_monomial("aab")
    got = text_terms(shuffle_ab, shuffle_ab.antipode_monomial(m))
    assert got == {"baa": -1}
    m2 = shuffle_ab.word_monomial("ab")
    assert text_terms(shuffle_ab, shuffle_ab.antipode_monomial(m2)) == {"ba": 1}


def test_is_generator_reads_the_alphabet(ck, shuffle_ab, binomial):
    B = ck.generator_from_text("B")
    assert not shuffle_ab.is_generator(monomial_product(B, B))
    assert not shuffle_ab.is_generator(B)
    assert not ck.is_generator(binomial.generators(1)[0])
    assert ck.is_generator(B)
    assert shuffle_ab.is_generator(shuffle_ab.word_monomial("ab"))
    assert not shuffle_ab.is_generator(shuffle_ab.word_monomial("ba"))


def test_shuffle_product_is_shuffle(shuffle_ab):
    u = shuffle_ab.word_monomial("ab")
    prod = shuffle_ab.product(GradedVector.of(u), GradedVector.of(u))
    assert text_terms(shuffle_ab, prod) == {"abab": 2, "aabb": 4}


def test_binomial_coproduct(binomial):
    m = Monomial(binomial.generator_from_text("X").factors * 3)
    got = tensor_text_terms(binomial, binomial.coproduct_monomial(m))
    assert got == {("X*X*X", "1"): 1, ("X*X", "X"): 3,
                   ("X", "X*X"): 3, ("1", "X*X*X"): 1}


def test_binomial_antipode(binomial):
    m = Monomial(binomial.generator_from_text("X").factors * 3)
    assert text_terms(binomial, binomial.antipode_monomial(m)) == {"X*X*X": -1}


# ---------------------------------------------------------------- axiom suite


@pytest.mark.parametrize("name,degree", [
    ("ck", 5), ("ck2", 4), ("shuffle:ab", 5), ("fdb-a", 6), ("fdb-x", 6),
    ("binomial", 8),
])
def test_axioms_hold(name, degree):
    rep = check_hopf_axioms(instance_by_name(name), degree, fail_fast=False)
    assert rep.ok, rep.violations[:3]
    assert rep.elements_checked > 0


class _BrokenCK(ConnesKreimer):
    """ck with its degree-2 coproduct doubled, so the checker must fail."""

    def coproduct_generator(self, g):
        out = super().coproduct_generator(g)
        if g.degree == 2:
            return out.scale(2)
        return out


def test_axiom_checker_reports_violations():
    rep = check_hopf_axioms(_BrokenCK(), 3, fail_fast=False)
    assert not rep.ok
    assert any(v.degree == 2 for v in rep.violations)


def test_cli_axioms_writes_a_failing_report(monkeypatch, capsys):
    monkeypatch.setattr(cli, "instance_by_name", lambda name: _BrokenCK())
    monkeypatch.setitem(cli.SAFETY_LIMITS, _BrokenCK, cli.SAFETY_LIMITS[ConnesKreimer])
    assert cli.main(["axioms", "--hopf", "ck", "--max-degree", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, reports.load_schema("report-axioms"))
    assert doc["status"] == doc["report"]["status"] == "fail"
    first = doc["report"]["violations"][0]
    assert (first["check"], first["degree"], first["generator"]) == (
        "connected-primitive-terms", 2, "[B]")


def test_instance_without_closed_antipode_cannot_be_made():
    # every instance supplies a closed antipode; the recursions only check it
    class NoClosedAntipode(HopfAlgebra):
        name = "no-closed-antipode"

        def generators(self, n):
            return ()

        def generator_from_text(self, text):
            raise ValueError(text)

        def coproduct_generator(self, g):
            raise AssertionError("unreachable")

    with pytest.raises(TypeError, match="antipode_generator_explicit"):
        NoClosedAntipode()


# ---------------------------------------------------------------- antipode recursions


@pytest.mark.parametrize("name,degree", [
    ("ck", 6), ("ck2", 4), ("shuffle:ab", 6), ("fdb-a", 7), ("fdb-x", 7),
    ("binomial", 8),
])
def test_antipode_recursions_agree_with_explicit(name, degree):
    H = instance_by_name(name)
    for n in range(1, degree + 1):
        for g in H.generators(n):
            explicit = H.antipode_monomial(g)
            rec1 = H.antipode_recursive(g, variant=1)
            rec2 = H.antipode_recursive(g, variant=2)
            assert rec1.terms == explicit.terms, (name, H.monomial_text(g))
            assert rec2.terms == explicit.terms, (name, H.monomial_text(g))


def test_antipode_on_leaf_is_negation(ck):
    g = ck.generator_from_text("B")
    assert text_terms(ck, ck.antipode_monomial(g)) == {"B": -1}


def test_antipode_is_algebra_antimorphism(ck):
    u = ck.generator_from_text("[B]")
    v = ck.generator_from_text("B")
    m = monomial_product(u, v)
    lhs = ck.antipode_monomial(m)
    rhs = ck.product(ck.antipode_monomial(v), ck.antipode_monomial(u))
    assert lhs.terms == rhs.terms


# ---------------------------------------------------------------- structural properties


@given(st.data())
def test_coproduct_is_multiplicative_on_products(ck, data):
    gens = [g for n in range(1, 4) for g in ck.generators(n)]
    u = data.draw(st.sampled_from(gens))
    v = data.draw(st.sampled_from(gens))
    m = monomial_product(u, v)
    from hopfchar.core import tensor_product
    lhs = ck.coproduct_monomial(m)
    rhs = tensor_product(ck.coproduct_monomial(u), ck.coproduct_monomial(v))
    assert lhs.terms == rhs.terms


@given(st.data())
def test_coproduct_preserves_degree(fdb_a, data):
    gens = [g for n in range(1, 7) for g in fdb_a.generators(n)]
    g = data.draw(st.sampled_from(gens))
    for (a, b) in fdb_a.coproduct_monomial(g).terms:
        assert a.degree + b.degree == g.degree


def test_counit_picks_empty_coefficient(ck):
    v = GradedVector({ck.empty(): Fraction(5, 2),
                      ck.generator_from_text("B"): 7})
    assert v.counit() == Fraction(5, 2)


def test_basis_counts(ck, fdb_a, shuffle_ab, binomial):
    assert [len(ck.basis(n)) for n in range(1, 6)] == [1, 2, 4, 9, 20]
    assert [len(fdb_a.basis(n)) for n in range(1, 6)] == [1, 2, 3, 5, 7]
    assert [len(shuffle_ab.basis(n)) for n in range(1, 6)] == [2, 4, 8, 16, 32]
    assert [len(binomial.basis(n)) for n in range(1, 6)] == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("name, degree", [("ck", 9), ("ck2", 6), ("fdb-a", 10)])
def test_basis_matches_scanning_enumeration(name, degree):
    H = instance_by_name(name)
    for n in range(degree + 1):
        assert H.basis(n) == basis_by_scan(H, n)


def test_generator_text_round_trip(ck, fdb_a, shuffle_ab):
    for H, texts in ((ck, ["B", "[B]", "[B,[B]]"]),
                     (fdb_a, ["a1", "a4"]),
                     (shuffle_ab, ["a", "ab", "aab"])):
        for text in texts:
            g = H.generator_from_text(text)
            assert H.monomial_text(g) == text


def test_shuffle_refuses_the_empty_word_text_as_a_letter():
    # the one-letter word "1" would have the empty word's text "1"
    for letters in ("1", "01", "a1b"):
        with pytest.raises(ValueError, match="empty word"):
            Shuffle(letters)
    H = Shuffle("0a")
    for w in H.basis(1) + H.basis(2):
        assert H.word_monomial(H.monomial_text(w)) is w


def test_generator_from_text_rejects_garbage(ck, fdb_a, shuffle_ab, ck2):
    with pytest.raises(ValueError):
        ck.generator_from_text("B:1")       # coloured text on one colour
    with pytest.raises(ValueError):
        fdb_a.generator_from_text("a0")
    with pytest.raises(ValueError):
        fdb_a.generator_from_text("b3")
    with pytest.raises(ValueError):
        shuffle_ab.generator_from_text("ba")    # not Lyndon
    with pytest.raises(ValueError):
        shuffle_ab.generator_from_text("ac")    # letter outside alphabet
    with pytest.raises(ValueError):
        ck2.generator_from_text("[B:2]")        # colour out of range


# ---------------------------------------------------------------- Connes-Kreimer


@pytest.mark.parametrize("name, degree", [("ck", 9), ("ck2", 6)])
def test_ck_maps_match_cut_enumeration(name, degree):
    H = instance_by_name(name)
    for n in range(1, degree + 1):
        for g in H.generators(n):
            assert H.coproduct_generator(g) == ck_coproduct_by_root_cuts(H, g)
            assert H.antipode_generator_explicit(g) == ck_antipode_by_edge_cuts(H, g)


@pytest.mark.parametrize("name, colours, degree", [("ck", 1, 11), ("ck2", 2, 7)])
def test_ck_generators_by_grafting_match_tree_enumeration(name, colours, degree):
    H = instance_by_name(name)
    for n in range(1, degree + 1):
        assert list(H.generators(n)) == [H.tree_monomial(t) for t in trees_of_order(n, colours)]


@pytest.mark.parametrize("name, colour, children, text", [
    ("ck", 0, ("B", "B"), "[B,B]"),
    ("ck", 0, ("[B,B]", "[B]"), "[[B,B],[B]]"),
    ("ck2", 1, ("[B:1]:0", "B:0"), "[B:0,[B:1]:0]:1"),
    ("ck2", 0, ("B:1", "[B:0]:0"), "[[B:0]:0,B:1]:0"),  # colour sorts before text
])
def test_ck_graft_returns_the_held_generator(name, colour, children, text):
    H = instance_by_name(name)
    forest = H.empty()
    for child in children:
        forest = monomial_product(forest, H.generator_from_text(child))
    m = H.graft(colour, forest)
    g = m.factors[0]
    assert g.key == text and g.degree == 1 + forest.degree
    held = [h.factors[0] for h in H.generators(g.degree) if h.factors[0].key == text]
    assert len(held) == 1 and held[0] is g
    assert H.tree_of(g) == parse_tree(text, coloured=name == "ck2")
    assert H.tree_monomial(H.tree_of(g)) is m


def test_ck_maps_accept_a_generator_of_another_instance(ck):
    g = ck.generator_from_text("[B,[B,B]]")
    H = instance_by_name("ck")
    assert H.coproduct_monomial(g) == ck.coproduct_monomial(g)
    assert H.antipode_generator_explicit(g) == ck.antipode_generator_explicit(g)
    # two fresh instances; the second one first sees the generators of the
    # first, from the top degree down, so it grafts each one on first use
    H1, H2 = instance_by_name("ck"), instance_by_name("ck")
    for n in range(6, 0, -1):
        for g in H1.generators(n):
            assert H2.coproduct_monomial(g) == H1.coproduct_monomial(g)
            assert H2.antipode_generator_explicit(g) == H1.antipode_generator_explicit(g)
            for variant in (1, 2):
                assert H2.antipode_recursive(g, variant) == H1.antipode_recursive(g, variant)
    for n in range(1, 7):
        gens1, gens2 = H1.generators(n), H2.generators(n)
        assert len(gens1) == len(gens2) and all(a is b for a, b in zip(gens1, gens2))


def test_ck_closed_antipode_never_reads_the_coproduct(monkeypatch):
    H = instance_by_name("ck2")

    def refuse(*args):
        raise AssertionError("the closed antipode read the coproduct")

    monkeypatch.setattr(H, "coproduct_monomial", refuse)
    monkeypatch.setattr(H, "coproduct_generator", refuse)
    for n in range(1, 7):
        for g in H.generators(n):
            H.antipode_generator_explicit(g)


@pytest.mark.parametrize("name,degree", [("ck", 6), ("fdb-a", 7), ("shuffle:ab", 6)])
def test_reduced_coproduct_is_memoised_and_drops_the_primitive_terms(name, degree):
    H = instance_by_name(name)
    one = H.empty()
    assert H.reduced_coproduct_monomial(one).is_zero()
    for m in H.basis_upto(degree)[1:]:
        reduced = H.reduced_coproduct_monomial(m)
        assert H.reduced_coproduct_monomial(m) is reduced
        full = dict(H.coproduct_monomial(m).terms)
        assert full.pop((m, one)) == 1 and full.pop((one, m)) == 1
        assert reduced.terms == full
