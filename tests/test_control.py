"""Weighted-norm control of coproducts and antipodes, affine lower-bound
fits, and the tensor-slot handedness probe."""

from fractions import Fraction

import pytest

from hopfchar import control
from hopfchar.control import (RatioReport, RatioRow, antipode_ratio,
                              coproduct_ratio, elementary_coproduct,
                              right_handed_check, rlb_check)
from hopfchar.core import Refused
from hopfchar.growth import builtin
from hopfchar.instances import instance_by_name


def test_coproduct_mass_bound_pow_family(ck, fdb_a):
    fam = builtin("pow")
    for H, top in ((fdb_a, 8), (ck, 6)):
        for k in range(1, 5):
            for n in range(1, top + 1):
                cap = 2 ** n * fam.eval(k, n)
                for x in H.axiom_domain(n):
                    assert H.coproduct_monomial(x).l1_norm(fam, k) <= cap


@pytest.mark.parametrize("label,N", [("ck", 6), ("fdb-a", 7)])
@pytest.mark.parametrize("k1", [1, 2])
def test_coproduct_controlled_at_doubled_index(label, N, k1):
    r = coproduct_ratio(instance_by_name(label), builtin("pow"), k1, 2 * k1, N)
    assert r.c_hat <= 1
    assert r.verdict == "bounded"


def test_fdb_coproduct_ratio_attains_one(fdb_a):
    # coproduct mass of a_n is exactly 2^n, so the doubled index is tight
    r = coproduct_ratio(fdb_a, builtin("pow"), 1, 2, 7)
    assert float(r.c_hat) == 1.0
    assert all(float(row.ratio) == 1.0 for row in r.rows)


def test_coproduct_controlled_at_shifted_index_pow2(ck, fdb_a):
    # doubling the argument of 2^{kn} is adding one to k
    for H in (fdb_a, ck):
        r = coproduct_ratio(H, builtin("pow2"), 2, 3, 6)
        assert float(r.c_hat) == 1.0
        assert r.verdict == "bounded"


def test_fdb_antipode_ratio_at_stretched_index(fdb_a):
    r = antipode_ratio(fdb_a, builtin("pow"), 1, 32, 8)
    assert float(r.c_hat) == 0.03125
    assert r.attained_degree == 1
    assert r.verdict == "bounded"


def test_verdict_inconclusive_when_max_is_late(fdb_a):
    r = antipode_ratio(fdb_a, builtin("pow"), 1, 2, 4)
    assert r.attained_degree == 4
    assert 2 * r.attained_degree > r.max_degree
    assert r.verdict == "inconclusive"
    assert float(r.c_hat) == 2.8125


def test_ratio_rejects_smaller_target_index(ck):
    with pytest.raises(Refused, match="k2 must be at least k1, got k1=3, k2=2"):
        coproduct_ratio(ck, builtin("pow"), 3, 2, 4)


@pytest.mark.parametrize("attained,verdict", [(4, "bounded"), (5, "inconclusive")])
def test_verdict_is_bounded_up_to_half_the_degrees(attained, verdict):
    # the max at exactly N/2 is early enough, one degree later is not
    rows = tuple(RatioRow(n, f"x{n}", 1, 1, 2 if n == attained else 1)
                 for n in range(1, 9))
    r = RatioReport("h", "coproduct", "pow", 1, 1, 8, rows)
    assert (r.attained_degree, r.verdict) == (attained, verdict)


def test_an_empty_ratio_report_is_bounded_at_zero():
    r = RatioReport("h", "coproduct", "pow", 1, 1, 8, ())
    assert (r.c_hat, r.attained_degree, r.verdict) == (0, 0, "bounded")


def test_ratio_rows_name_the_first_maximum(shuffle_ab):
    # every word of length n has coproduct mass n + 1, so each degree ties
    # and its row names the first word of the axiom domain
    r = coproduct_ratio(shuffle_ab, builtin("pow"), 1, 1, 5)
    assert len(shuffle_ab.axiom_domain(3)) > 1
    for row in r.rows:
        assert row.element == shuffle_ab.monomial_text(shuffle_ab.axiom_domain(row.degree)[0])


def test_ratio_accepts_equal_indices(ck):
    r = coproduct_ratio(ck, builtin("pow"), 2, 2, 3)
    assert (r.k1, r.k2, len(r.rows)) == (2, 2, 3)


def test_ratio_report_serialisation(ck):
    d = coproduct_ratio(ck, builtin("pow"), 1, 2, 4).to_dict()
    assert d["instance"] == "ck"
    assert d["map"] == "coproduct"
    assert d["family"] == "pow"
    assert d["verdict"] == "bounded"
    assert len(d["table"]) == 4
    assert {"degree", "max_element", "l1_norm", "weight", "ratio"} <= set(d["table"][0])


def test_elementary_coproduct_counts(fdb_a):
    # reduced coproduct of a_n keeps n(n+1)/2 - 1 generator (x) generator terms
    for n in range(1, 11):
        got = elementary_coproduct(fdb_a, fdb_a.gen_monomial(n)).l1_count()
        assert got == n * (n + 1) // 2 - 1


def test_elementary_coproduct_drops_mixed_terms(fdb_a):
    t = elementary_coproduct(fdb_a, fdb_a.gen_monomial(3))
    for left, right in t.terms:
        assert left.is_single() and right.is_single()


def test_rlb_connes_kreimer(ck):
    r = rlb_check(ck, 8)
    assert (r.a_hat, r.b_hat, r.verdict) == (1, 0, "linear")
    assert r.counts == {n: n - 1 for n in range(1, 9)}


def test_rlb_faa_di_bruno(fdb_a):
    r = rlb_check(fdb_a, 8)
    assert (r.a_hat, r.b_hat, r.verdict) == (8, 0, "superlinear")
    assert r.counts[4] == 9
    assert r.witnesses[4] == "a4"
    # every point sits under the fitted majorant
    for n, c in r.counts.items():
        assert c <= r.a_hat * n + r.b_hat


def test_rlb_binomial(binomial):
    r = rlb_check(binomial, 8)
    assert (r.a_hat, r.b_hat, r.verdict) == (0, 0, "linear")
    assert all(c == 0 for c in r.counts.values())


def test_rlb_shuffle_steps_are_linear(shuffle_ab):
    # e(n) = floor(n/2): its second differences alternate in sign, and the
    # fit a_hat n + b_hat = n majorises every point
    r = rlb_check(shuffle_ab, 10)
    assert r.counts == {n: n // 2 for n in range(1, 11)}
    assert (r.a_hat, r.b_hat, r.verdict) == (1, 0, "linear")


def test_rlb_fdb_x_is_superlinear():
    r = rlb_check(instance_by_name("fdb-x"), 8)
    assert r.counts == {n: 2 ** (n + 1) - n - 3 for n in range(1, 9)}
    assert r.verdict == "superlinear"


@pytest.mark.parametrize("counts,a_hat,b_hat,verdict", [
    ((5, 6, 8, 9, 9), 2, 3, "linear"),
    ((1, 2, 4, 7, 11), 4, 0, "superlinear"),
    ((1, 2, 3, 5, 7), 2, 0, "superlinear"),
    ((3, 3, 3, 3, 3), 0, 3, "linear"),
    ((4, 1, 2, 3, 4), 1, 3, "superlinear"),
    ((1, 3, 4, 4, 4), 2, 0, "linear"),
    ((1, 2, 4, 6, 8), 2, 0, "superlinear"),
    ((1, 2, 3, 4, 6), 2, 0, "superlinear"),
    ((1, Fraction(3, 2), 2), Fraction(1, 2), Fraction(1, 2), "linear"),
])
def test_rlb_fit_on_synthetic_counts(fdb_a, monkeypatch, counts, a_hat, b_hat, verdict):
    # fdb-a has one generator per degree; each gets the count of its degree
    class Count:
        def __init__(self, c):
            self.c = c

        def l1_count(self):
            return self.c

    monkeypatch.setattr(control, "elementary_coproduct",
                        lambda H, g: Count(counts[g.degree - 1]))
    r = rlb_check(fdb_a, len(counts))
    assert r.counts == dict(enumerate(counts, start=1))
    assert (r.a_hat, r.b_hat, r.verdict) == (a_hat, b_hat, verdict)
    assert all(c <= a_hat * n + b_hat for n, c in r.counts.items())


def test_rlb_witness_is_the_first_maximum(binomial, shuffle_ab):
    # a degree whose counts are all 0 names no witness
    assert set(rlb_check(binomial, 4).witnesses.values()) == {""}
    assert rlb_check(shuffle_ab, 4).witnesses == {1: "", 2: "ab", 3: "aab", 4: "aabb"}


def test_rlb_takes_two_degrees(ck):
    r = rlb_check(ck, 2)
    assert (r.counts, r.a_hat, r.b_hat, r.verdict) == ({1: 0, 2: 1}, 1, 0, "linear")


def test_rlb_requires_two_degrees(ck):
    with pytest.raises(Refused, match="max degree must be at least 2, got 1"):
        rlb_check(ck, 1)


def test_handedness_slots():
    expected = {
        "fdb-a": "left",
        "ck": "right",
        "shuffle:ab": "neither",
        "binomial": "both",
    }
    for label, slot in expected.items():
        rep = right_handed_check(instance_by_name(label), 5)
        assert rep.generator_slot == slot


def test_handedness_reads_every_degree_up_to_the_bound(ck):
    # ck's left slot first leaves the generator span at degree 3
    assert right_handed_check(ck, 2).generator_slot == "both"
    assert right_handed_check(ck, 3).generator_slot == "right"


def test_handedness_witnesses(ck, fdb_a, shuffle_ab):
    rep = right_handed_check(fdb_a, 4)
    assert rep.left_witness is None
    assert rep.right_witness == "a3: term a1 (x) a1*a1"
    rep = right_handed_check(ck, 4)
    assert rep.left_witness == "[B,B]: term B*B (x) B"
    assert rep.right_witness is None
    rep = right_handed_check(shuffle_ab, 4)
    assert rep.left_witness == "aab: term aa (x) b"
    assert rep.right_witness == "abb: term a (x) bb"


def test_antipode_ratio_monotone_in_target_index(fdb_a):
    fam = builtin("pow")
    vals = [antipode_ratio(fdb_a, fam, 1, k2, 6).c_hat for k2 in (2, 4, 8, 16, 32)]
    for a, b in zip(vals, vals[1:]):
        assert float(a) >= float(b)
