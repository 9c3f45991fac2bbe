"""Weight families and their axioms."""

from fractions import Fraction
from math import exp

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar import growth
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


def test_check_w3_searches_once(monkeypatch):
    # one sweep from k1 up to the least k2 (or k2_max), and only its result
    calls = []

    def counted(family, k1, k2, n_max):
        calls.append(k2)
        return w3_holds_at(family, k1, k2, n_max)

    monkeypatch.setattr(growth, "w3_holds_at", counted)
    for name in FIVE + ("anti",):
        for k1 in range(1, 7):
            calls.clear()
            rep = check_W3(builtin(name), k1, 40, k2_max=16)
            last = rep.witness["least_k2"] if rep.ok else 16
            assert calls == list(range(k1, last + 1)), (name, k1)
            assert rep.witness == ({"k1": k1, "least_k2": last} if rep.ok else {"k1": k1})


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


def test_suggest_alpha_refuses_equal_indices():
    for triple in ((1, 1, 2), (1, 2, 2)):
        with pytest.raises(Refused, match=r"^need k1 < k2 < k3, got "):
            suggest_alpha(*triple)


def test_check_cw_refuses_alpha_zero():
    with pytest.raises(Refused, match="^alpha must lie in \\(0,1\\), got 0$"):
        check_cW(builtin("pow"), 1, 2, 3, Fraction(0), 4)


def _changed_at(points, base):
    """base(k, n), except omega_k(n) = points[(k, n)]."""
    return lambda k, n: points[(k, n)] if (k, n) in points else base(k, n)


def _pow(k, n):
    return k**n


def test_w1_breaks_at_degree_zero_at_either_end_of_the_indices():
    # omega_1(0) = 1/2 keeps omega_1 <= omega_2, so only the n = 0 rule sees it
    first = GrowthFamily("broken", "W1", _changed_at({(1, 0): Fraction(1, 2)}, _pow))
    assert check_W1(first, 3, 2).witness == {"k": 1, "n": 0}
    last = GrowthFamily("broken", "W1", _changed_at({(3, 0): 2}, _pow))
    rep = check_W1(last, 3, 2)
    assert (rep.ok, rep.witness) == (False, {"k": 3, "n": 0})
    assert check_W1(last, 2, 2).ok


# per axiom, a family that first fails it at the last point of its grid, the
# check on that grid, its witness, and the check one step inside the grid
LAST_POINT_BROKEN = {
    # omega_3(4) drops below omega_2(4)
    "W1": (_changed_at({(3, 4): 2**4 - 1}, _pow),
           lambda fam, n: check_W1(fam, 3, n), 4, {"k": 2, "n": 4}),
    # k^n with omega_3(2) one less: omega_3(1)^2 > omega_3(2), at k = k_max
    "W2": (_changed_at({(3, 2): 3**2 - 1}, _pow),
           lambda fam, n: check_W2(fam, 3, n), 2, {"k": 3, "n": 1, "m": 1}),
    # 2^(kn) with omega_2(5) = 2^5: k2 = 2 serves k1 = 1 below n = 5 only
    "W3": (_changed_at({(2, 5): 2**5}, lambda k, n: 2 ** (k * n)),
           lambda fam, n: check_W3(fam, 1, n), 5, {"k1": 1, "least_k2": 3}),
    # k^n with omega_2(3) = 1: omega_1(3) omega_3(3) = 27 > 1 at alpha = 1/2
    "cW": (_changed_at({(2, 3): 1}, _pow),
           lambda fam, n: check_cW(fam, 1, 2, 3, Fraction(1, 2), n), 3, {"n": 3}),
}


@pytest.mark.parametrize("axiom", sorted(LAST_POINT_BROKEN))
def test_axioms_first_fail_at_the_last_grid_point(axiom):
    omega, check, n_max, witness = LAST_POINT_BROKEN[axiom]
    rep = check(GrowthFamily("broken", axiom, omega), n_max)
    inside = check(GrowthFamily("broken", axiom, omega), n_max - 1)
    if axiom == "W3":
        # W3 holds at both grids; the last degree moves the least k2
        assert rep.ok and rep.witness == witness
        assert inside.ok and inside.witness == {"k1": 1, "least_k2": 2}
    else:
        assert (rep.ok, rep.witness) == (False, witness)
        assert inside.ok


def test_w2_breaking_one_index_past_the_grid_holds_on_it():
    fam = GrowthFamily("broken", "W2", LAST_POINT_BROKEN["W2"][0])
    assert check_W2(fam, 2, 2).ok


def test_log_form_w3_moves_its_least_k2_at_the_last_grid_point():
    # log omega_k(n) = k n, with omega_2(5) = omega_1(5): e^n >= 2^n serves
    # k2 = k1 + 1 at every other degree
    log_omega = lambda k, n: Fraction(n if (k, n) == (2, 5) else k * n)
    fam = GrowthFamily("log-form", "W3", lambda k, n: exp(log_omega(k, n)),
                       is_exact=False, log_omega=log_omega)
    assert check_W3(fam, 1, 5).witness == {"k1": 1, "least_k2": 3}
    assert check_W3(fam, 1, 4).witness == {"k1": 1, "least_k2": 2}


def test_log_form_w3_holds_on_the_edge_of_its_float_guard(monkeypatch):
    # log omega_2(n) is n log 2 less the guard, to the last bit: W3 holds from
    # k1 = 1 (omega_1 = 1) at k2 = 2 only because of the guard
    guard = growth._W3_FLOAT_GUARD

    def edge(k, n):
        if k == 1 or n == 0:
            return Fraction(0)
        rhs = n * growth.LOG2 + 0.0
        return Fraction(rhs - guard * max(1.0, abs(rhs)))

    fam = GrowthFamily("edge", "W3", lambda k, n: exp(edge(k, n)), is_exact=False,
                       log_omega=edge)
    assert w3_holds_at(fam, 1, 2, 6)
    monkeypatch.setattr(growth, "_W3_FLOAT_GUARD", 0.0)
    assert not w3_holds_at(fam, 1, 2, 6)


def test_all_axiom_summaries_cover_exactly_the_grid_indices():
    # every k1 <= k_max has its least k2, and no triple reaches k_max + 1:
    # k^n with omega_4 = 100^n breaks cW only at triples with k3 = 4
    w3 = check_all_axioms(builtin("pow"), 3, 10)[2]
    assert w3.witness == {"least_k2_by_k1": {"1": 2, "2": 4, "3": 6}}
    fam = GrowthFamily("broken", "cW", lambda k, n: 100**n if k == 4 else k**n)
    assert not check_cW(fam, 1, 2, 4, suggest_alpha(1, 2, 4), 3).ok
    cw = check_all_axioms(fam, 3, 3)[3]
    assert cw.ok and cw.witness == {"alpha_by_triple": {"1,2,3": "1/2"}}
