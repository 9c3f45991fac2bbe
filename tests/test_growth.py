"""Weight families and their axioms."""

from fractions import Fraction
from math import exp

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.core import Refused
from hopfchar.growth import (BUILTIN_FAMILIES, GrowthFamily, builtin,
                             check_all_axioms, check_cW, check_W1, check_W2,
                             check_W3, suggest_alpha, w3_holds_at)

FIVE = ("pow", "pow2", "pow-fact", "pow-nsq", "pow-factk")


def test_builtin_values():
    assert builtin("pow").eval(3, 4) == 81
    assert builtin("pow2").eval(2, 3) == 64
    assert builtin("pow-fact").eval(2, 4) == 16 * 24
    assert builtin("pow-nsq").eval(2, 3) == 2 ** 9
    assert builtin("pow-factk").eval(2, 3) == 8 * 36
    assert abs(builtin("anti").eval(10, 1) - 0.9048374180359595) < 1e-15


def test_normalization_at_zero():
    for name in FIVE + ("anti",):
        fam = builtin(name)
        for k in range(1, 7):
            assert fam.eval(k, 0) == 1


def test_exactness_flags():
    for name in FIVE:
        assert builtin(name).is_exact
    assert not builtin("anti").is_exact


def test_unknown_family_raises():
    with pytest.raises(Refused, match="unknown growth family 'nope'"):
        builtin("nope")


def test_family_index_below_one_is_refused():
    with pytest.raises(Refused, match="family index must be >= 1, got 0"):
        builtin("pow").eval(0, 3)


def test_five_builtins_pass_all_axioms():
    for name in FIVE:
        fam = builtin(name)
        grid = 16 if name == "pow-nsq" else 40   # k^(n^2) overflows float compare past that
        checks = check_all_axioms(fam, 6, grid)
        assert all(c.ok for c in checks), (name, [c.axiom for c in checks if not c.ok])


def test_w3_witness_indices():
    # doubling the index always suffices; for plain powers it is sharp
    for name in FIVE:
        fam = builtin(name)
        for k1 in range(1, 7):
            assert w3_holds_at(fam, k1, 2 * k1, 40)
    for k1 in range(1, 7):
        rep = check_W3(builtin("pow"), k1, 40)
        assert rep.ok and rep.witness["least_k2"] == 2 * k1
        rep2 = check_W3(builtin("pow2"), k1, 40)
        assert rep2.ok and rep2.witness["least_k2"] == k1 + 1


def test_anti_fails_exactly_and_only_w3():
    fam = builtin("anti")
    checks = check_all_axioms(fam, 6, 40)
    status = {c.axiom: c.ok for c in checks}
    assert status == {"W1": True, "W2": True, "W3": False, "cW": True}


def test_anti_w3_details():
    fam = builtin("anti")
    # index 1 still has a verified companion, every higher index has none
    assert w3_holds_at(fam, 1, 4, 40)
    assert not w3_holds_at(fam, 1, 3, 40)
    for k1 in range(2, 7):
        rep = check_W3(fam, k1, 40, k2_max=64)
        assert not rep.ok


def test_w1_monotonicity_failure_detected():
    fam = builtin("anti")
    rep = check_W1(fam, 6, 20)
    assert rep.ok                      # anti is monotone and normalized
    assert check_W2(fam, 6, 20).ok


# per axiom, its first witness on the grid below and an omega_k(n) that
# breaks it and neither of the other two, given exactly and as the integer
# exponent of a log-form family
ONE_AXIOM_BROKEN = {
    "W1": ({"k": 1, "n": 1}, lambda k, n: (10 - k) ** n, lambda k, n: -k * n),
    "W2": ({"k": 1, "n": 1, "m": 1}, lambda k, n: k**n * (2 if n else 1),
           lambda k, n: k * n + (1 if n else 0)),
    "cW": ({"n": 1}, lambda k, n: 2 ** (k * k * n), lambda k, n: k * k * n),
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "log-form"])
@pytest.mark.parametrize("axiom", sorted(ONE_AXIOM_BROKEN))
def test_w1_w2_cw_report_their_first_failure(axiom, exact):
    witness, omega, log_omega = ONE_AXIOM_BROKEN[axiom]
    if exact:
        fam = GrowthFamily("broken", axiom, omega)
    else:
        fam = GrowthFamily("broken", axiom, lambda k, n: exp(log_omega(k, n)),
                           is_exact=False,
                           log_omega=lambda k, n: Fraction(log_omega(k, n)))
    checks = {"W1": check_W1(fam, 3, 4), "W2": check_W2(fam, 3, 4),
              "cW": check_cW(fam, 1, 2, 3, Fraction(1, 2), 4)}
    assert {name: rep.ok for name, rep in checks.items()} == {
        name: name != axiom for name in checks}
    assert checks[axiom].witness == witness


def test_all_axiom_summaries_report_their_first_failure():
    # anti passes W3 at k1 = 1 and fails at every k1 from 2 on
    w3 = check_all_axioms(builtin("anti"), 6, 40)[2]
    assert (w3.axiom, w3.ok, w3.witness) == ("W3", False, {"k1": 2})
    # 2^(k^2 n) breaks cW at every triple up to k_max 4, first at (1, 2, 3)
    fam = GrowthFamily("broken", "cW", ONE_AXIOM_BROKEN["cW"][1])
    assert not check_cW(fam, 2, 3, 4, suggest_alpha(2, 3, 4), 3).ok
    cw = check_all_axioms(fam, 4, 3)[3]
    assert (cw.axiom, cw.ok, cw.witness) == ("cW", False, {"k1": 1, "k2": 2, "k3": 3, "n": 1})


def test_suggest_alpha_interpolates():
    a = suggest_alpha(1, 2, 4)
    assert a == Fraction(2, 3)
    assert a * 1 + (1 - a) * 4 == 2


@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
def test_suggest_alpha_properties(k1, dk2, dk3):
    k2 = k1 + dk2
    k3 = k2 + dk3
    a = suggest_alpha(k1, k2, k3)
    assert 0 < a < 1
    assert a * k1 + (1 - a) * k3 == k2


def test_suggest_alpha_refuses_unordered_indices():
    with pytest.raises(Refused, match=r"^need k1 < k2 < k3, got \(1, 3, 2\)$"):
        suggest_alpha(1, 3, 2)


def test_check_cw_refuses_alpha_outside_the_unit_interval():
    with pytest.raises(Refused, match="^alpha must lie in \\(0,1\\), got 1$"):
        check_cW(builtin("pow"), 1, 2, 3, Fraction(1), 4)


def test_cw_with_suggested_alpha():
    for name in FIVE:
        fam = builtin(name)
        grid = 16 if name == "pow-nsq" else 40
        for (k1, k2, k3) in [(1, 2, 4), (2, 3, 6), (1, 3, 4)]:
            rep = check_cW(fam, k1, k2, k3, suggest_alpha(k1, k2, k3), grid)
            assert rep.ok, (name, k1, k2, k3)


def test_report_dicts_have_status():
    rep = check_W2(builtin("pow"), 3, 12)
    d = rep.to_dict()
    assert d["status"] == "pass"
    assert d["axiom"] == "W2"
    assert set(d) >= {"family", "axiom", "grid", "status"}


def test_registry_contents():
    assert set(BUILTIN_FAMILIES) == set(FIVE) | {"anti"}
