"""Weighted-norm control of coproducts and antipodes, affine lower-bound
fits, and the tensor-slot handedness probe."""

import pytest

from hopfchar.control import (antipode_ratio, coproduct_ratio,
                              elementary_coproduct, right_handed_check,
                              rlb_check)
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
