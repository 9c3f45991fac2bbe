"""Truncated character group: convolution laws, exp/log, norms, and the
non-group counterexample under a decaying weight family."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isclose

import pytest

from hopfchar.characters import (DUAL, FLOAT, RATIONAL, PolyTarget,
                                 RationalTarget, TruncatedCharacter,
                                 TruncatedInfChar, bracket, convolve,
                                 counterexample_demo, exp_infchar, inverse,
                                 linf_norm, log_character)
from hopfchar.control import coproduct_ratio
from hopfchar.core import GradedVector, Refused
from hopfchar.growth import builtin
from hopfchar.instances import instance_by_name
from oracles import (TableMap, character_by_rewrite, check_derivation,
                     check_multiplicative, controlled_witness, exp_by_series,
                     log_by_series, seeded_rational_values)


def _char(H, N, seed):
    return TruncatedCharacter(
        H, N, RATIONAL, seeded_rational_values(H, N, random.Random(seed))
    )


def _inf(H, N, seed):
    return TruncatedInfChar(
        H, N, RATIONAL, seeded_rational_values(H, N, random.Random(seed))
    )


def _same_on_basis(phi, psi, N):
    return all(
        phi.evaluate(m) == psi.evaluate(m) for m in phi.hopf.basis_upto(N)
    )


def test_convolution_through_degree_two_cut(ck):
    tree1 = ck.generator_from_text("B")
    tree2 = ck.generator_from_text("[B]")
    phi = TruncatedCharacter(ck, 2, RATIONAL, {tree1: 2, tree2: 1})
    psi = TruncatedCharacter(ck, 2, RATIONAL, {tree1: 1, tree2: 2})
    conv = convolve(phi, psi)
    assert conv.evaluate(tree2) == 1 + 2 * 1 + 2
    assert conv.evaluate(tree1) == 2 + 1


def test_convolution_associative_seeded(ck, fdb_a):
    for H in (ck, fdb_a):
        for seed in range(3):
            phi = _char(H, 5, 10 * seed)
            psi = _char(H, 5, 10 * seed + 1)
            chi = _char(H, 5, 10 * seed + 2)
            lhs = convolve(convolve(phi, psi), chi)
            rhs = convolve(phi, convolve(psi, chi))
            assert _same_on_basis(lhs, rhs, 5)


def test_maps_refuse_another_instances_generators(ck, binomial, shuffle_ab):
    with pytest.raises(Refused, match="not a generator of ck"):
        TruncatedCharacter(ck, 3, RATIONAL, {binomial.generators(1)[0]: 5})
    with pytest.raises(Refused, match="not a generator of shuffle:ab"):
        TruncatedInfChar(shuffle_ab, 3, RATIONAL, {ck.generator_from_text("B"): 5})


def test_counit_is_convolution_unit(ck):
    eps = TruncatedCharacter(ck, 5, RATIONAL, {})
    phi = _char(ck, 5, 3)
    assert _same_on_basis(convolve(eps, phi), phi, 5)
    assert _same_on_basis(convolve(phi, eps), phi, 5)


def test_convolve_is_the_group_law_on_characters(ck):
    # a character and an infinitesimal character have no product in the group
    phi, eta = _char(ck, 3, 3), _inf(ck, 3, 4)
    for pair in ((phi, eta), (eta, phi), (eta, eta)):
        with pytest.raises(Refused, match="convolve takes two characters"):
            convolve(*pair)


# an operation given the kind of map it does not take -> the refusal it gives;
# characters are the group, infinitesimal characters its Lie algebra
OTHER_KIND = {
    "inverse of an infinitesimal character": (
        lambda phi, eta: inverse(eta), "inverse takes a character"),
    "exp of a character": (
        lambda phi, eta: exp_infchar(phi), "exp takes an infinitesimal character"),
    "log of an infinitesimal character": (
        lambda phi, eta: log_character(eta), "log takes a character"),
    "bracket of two characters": (
        lambda phi, eta: bracket(phi, phi), "bracket takes two infinitesimal characters"),
    "bracket of mixed kinds": (
        lambda phi, eta: bracket(eta, phi), "bracket takes two infinitesimal characters"),
}


@pytest.mark.parametrize("case", sorted(OTHER_KIND))
def test_each_operation_refuses_the_other_kind(ck, case):
    call, message = OTHER_KIND[case]
    with pytest.raises(Refused) as refused:
        call(_char(ck, 3, 3), _inf(ck, 3, 4))
    assert str(refused.value) == message
    assert isinstance(refused.value, ValueError)


def test_bracket_refuses_maps_that_differ(ck, fdb_a):
    eta = _inf(ck, 3, 4)
    with pytest.raises(Refused, match="^instances differ: ck vs fdb-a$"):
        bracket(eta, _inf(fdb_a, 3, 5))
    with pytest.raises(Refused, match="^truncations differ: 3 vs 2$"):
        bracket(eta, _inf(ck, 2, 5))


def test_inverse_via_antipode(ck, fdb_a, shuffle_ab):
    for H, seed in ((ck, 4), (fdb_a, 5), (shuffle_ab, 6)):
        phi = _char(H, 5, seed)
        eps = TruncatedCharacter(H, 5, RATIONAL, {})
        assert _same_on_basis(convolve(phi, inverse(phi)), eps, 5)
        assert _same_on_basis(convolve(inverse(phi), phi), eps, 5)


def test_inverse_is_involutive(ck):
    phi = _char(ck, 5, 7)
    assert _same_on_basis(inverse(inverse(phi)), phi, 5)


def test_characters_are_multiplicative(fdb_a):
    phi = _char(fdb_a, 6, 8)
    pairs = list(
        combinations_with_replacement(fdb_a.basis_upto(3), 2)
    )
    ok, witness = check_multiplicative(phi, pairs)
    assert ok and witness is None


def test_closure_estimate_connes_kreimer(ck):
    # |(phi*psi)(x)| <= |phi| |psi| ||Delta x||, summed against k^n weights
    fam = builtin("pow")
    for k1 in (1, 2):
        k2 = 2 * k1
        c_hat = coproduct_ratio(ck, fam, k1, k2, 8).c_hat
        for seed in range(4):
            phi = _char(ck, 8, 100 + seed)
            psi = _char(ck, 8, 200 + seed)
            lhs = linf_norm(convolve(phi, psi), fam, k2)
            bound = (
                linf_norm(phi, fam, k1, over="monomials")
                * linf_norm(psi, fam, k1, over="monomials")
                * c_hat
            )
            assert lhs <= bound


def test_exp_log_round_trip(ck, fdb_a, ck2, shuffle_ab):
    for H, seed in ((ck, 11), (fdb_a, 12), (ck2, 17), (shuffle_ab, 18)):
        eta = _inf(H, 5, seed)
        phi = exp_infchar(eta)
        back = log_character(phi)
        for g in H.generators_upto(5):
            assert back.evaluate(g) == eta.evaluate(g)
        again = exp_infchar(back)
        assert _same_on_basis(again, phi, 5)


def _target_values(H, N, B, seed):
    vals = seeded_rational_values(H, N, random.Random(seed))
    if B is DUAL:
        tangent = seeded_rational_values(H, N, random.Random(seed + 1))
        return {g: (v, tangent[g]) for g, v in vals.items()}
    return {g: B.scale(v, B.one) for g, v in vals.items()}


def _agrees(B, got, want):
    if B is FLOAT:  # summation order differs from the series
        return isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


@pytest.mark.parametrize("label,N", [("ck", 5), ("ck2", 4), ("fdb-a", 6),
                                     ("fdb-x", 6), ("shuffle:ab", 5), ("binomial", 8),
                                     ("shuffle:abc", 4)])
def test_exp_log_match_power_series(label, N):
    H = instance_by_name(label)
    for B in (RATIONAL, DUAL, FLOAT):
        eta_values, phi_values = _target_values(H, N, B, 40), _target_values(H, N, B, 50)
        for n in (N, N - 2):
            eta = TruncatedInfChar(H, n, B, {g: v for g, v in eta_values.items()
                                             if g.degree <= n})
            phi = TruncatedCharacter(H, n, B, {g: v for g, v in phi_values.items()
                                               if g.degree <= n})
            got, want = exp_infchar(eta), exp_by_series(eta, n)
            assert got.N == n
            assert all(_agrees(B, got.evaluate(m), want[m]) for m in H.basis_upto(n)), (B, n)
            got, want = log_character(phi), log_by_series(phi, n)
            assert got.N == n
            assert all(_agrees(B, got.evaluate(m), want[m]) for m in H.basis_upto(n)), (B, n)


@pytest.mark.parametrize("kind", [TruncatedCharacter, TruncatedInfChar])
@pytest.mark.parametrize("target", [RATIONAL, DUAL, FLOAT], ids=lambda B: B.name)
@pytest.mark.parametrize("letters,N", [("ab", 8), ("abc", 6)])
def test_shuffle_evaluation_matches_lyndon_rewrite(letters, N, target, kind):
    H = instance_by_name(f"shuffle:{letters}")
    rng = random.Random(f"{letters}:{target.name}")
    first = seeded_rational_values(H, N, rng)
    second = seeded_rational_values(H, N, rng)
    if target is DUAL:
        values = {g: (v, second[g]) for g, v in first.items()}
    else:
        values = {g: target.scale(v, target.one) for g, v in first.items()}
    phi = kind(H, N, target, values)
    # largest words first, so that each value is reached by the solve's own fill
    for n in range(N, 0, -1):
        for m in reversed(H.basis(n)):
            got, want = phi.evaluate(m), character_by_rewrite(phi, m)
            if target is FLOAT:
                assert isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), H.monomial_text(m)
            else:
                assert got == want, H.monomial_text(m)


def _solve_depth(letters, word):
    """The value of a word cold, the oracle's value, and the deepest nesting
    of evaluate calls the value took."""
    H = instance_by_name(f"shuffle:{letters}")
    phi = TruncatedCharacter(H, 8, RATIONAL,
                             seeded_rational_values(H, 8, random.Random(5)))
    depth = [0, 0]
    evaluate = phi.evaluate

    def tracked(m):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return evaluate(m)
        finally:
            depth[0] -= 1

    phi.evaluate = tracked
    w = H.word_monomial(word)
    return tracked(w), character_by_rewrite(phi, w), depth[1]


def test_shuffle_solve_nests_one_level():
    # valuing the largest word of a letter class first must not recurse once
    # per smaller word of the class: the solve fills the class in order, and
    # then the chain of tails shortest first
    got, want, depth = _solve_depth("ab", "bbbbaaaa")
    assert got == want
    # the word, a smaller word being solved, a tail of that one, and the
    # cached words below the tail
    assert depth == 4
    # the 210 words with the letters of cccbbaa nest no deeper than the 70
    # with those of bbbbaaaa
    got, want, depth = _solve_depth("abc", "cccbbaa")
    assert got == want
    assert depth == 4


@pytest.mark.parametrize("kind", [TruncatedCharacter, TruncatedInfChar])
@pytest.mark.parametrize("target", [RATIONAL, DUAL], ids=lambda B: B.name)
def test_shuffle_values_in_series_order_match_lyndon_rewrite(target, kind):
    # shortest words first, as the word series reads them: each solve then
    # finds its class and its tails partly valued already
    H = instance_by_name("shuffle:abc")
    rng = random.Random(f"series-order:{target.name}")
    first = seeded_rational_values(H, 6, rng)
    if target is DUAL:
        second = seeded_rational_values(H, 6, rng)
        first = {g: (v, second[g]) for g, v in first.items()}
    phi = kind(H, 6, target, first)
    for n in range(1, 7):
        for m in H.basis(n):
            assert phi.evaluate(m) == character_by_rewrite(phi, m), H.monomial_text(m)


def test_exp_of_single_seed_on_chain(ck):
    # eta = 1 on the single node only: exp(eta)([B]) = 1/2
    node = ck.generator_from_text("B")
    chain = ck.generator_from_text("[B]")
    eta = TruncatedInfChar(ck, 3, RATIONAL, {node: 1})
    phi = exp_infchar(eta)
    assert phi.evaluate(node) == 1
    assert phi.evaluate(chain) == Fraction(1, 2)


def test_exp_result_is_multiplicative(ck):
    eta = _inf(ck, 5, 13)
    phi = exp_infchar(eta)
    pairs = [(m1, m2) for m1 in ck.basis_upto(2) for m2 in ck.basis_upto(3)]
    ok, _ = check_multiplicative(phi, pairs)
    assert ok


def test_log_of_counit_vanishes(fdb_a):
    eta = log_character(TruncatedCharacter(fdb_a, 6, RATIONAL, {}))
    assert all(eta.evaluate(g) == 0 for g in fdb_a.generators_upto(6))


def test_inf_char_vanishes_on_products(fdb_a):
    eta = _inf(fdb_a, 6, 14)
    a1 = fdb_a.gen_monomial(1)
    sq = fdb_a.product(GradedVector.of(a1), GradedVector.of(a1))
    assert eta.on_vector(sq) == 0
    pairs = [(m1, m2) for m1 in fdb_a.basis_upto(3) for m2 in fdb_a.basis_upto(2)]
    ok, _ = check_derivation(eta, pairs)
    assert ok


def test_bracket_is_inf_char_and_antisymmetric(ck):
    e1, e2 = _inf(ck, 5, 15), _inf(ck, 5, 16)
    b12 = bracket(e1, e2)
    b21 = bracket(e2, e1)
    for g in ck.generators_upto(5):
        assert b12.evaluate(g) == -b21.evaluate(g)
    assert all(bracket(e1, e1).evaluate(g) == 0 for g in ck.generators_upto(5))
    pairs = [(m1, m2) for m1 in ck.basis_upto(2) for m2 in ck.basis_upto(3)]
    ok, _ = check_derivation(b12, pairs)
    assert ok


@pytest.mark.parametrize("label", ["ck", "shuffle:ab"])
def test_bracket_off_rational_agrees_with_the_exact_bracket(label):
    # DUAL and FLOAT bracket through the generic fold, RATIONAL on integers
    H = instance_by_name(label)

    def bracket_over(B):
        e1, e2 = (TruncatedInfChar(H, 5, B, _target_values(H, 5, B, seed))
                  for seed in (60, 70))
        return bracket(e1, e2)

    exact, dual, flt = (bracket_over(B) for B in (RATIONAL, DUAL, FLOAT))
    for g in H.generators_upto(5):
        want = exact.evaluate(g)
        assert dual.evaluate(g)[0] == want, H.monomial_text(g)
        # abs_tol for the brackets that cancel to an exact 0
        assert isclose(flt.evaluate(g), want, rel_tol=1e-12, abs_tol=1e-12), \
            H.monomial_text(g)


def test_dual_target_tracks_directional_part(binomial):
    X = binomial.generators(1)[0]
    phi = TruncatedCharacter(binomial, 4, DUAL, {X: (Fraction(1, 2), 1)})
    sq = binomial.product(GradedVector.of(X), GradedVector.of(X))
    # (a + eps b)^2 = a^2 + eps 2ab
    assert phi.on_vector(sq) == (Fraction(1, 4), 1)
    assert DUAL.mul((0, 1), (0, 1)) == (0, 0)
    assert DUAL.norm((Fraction(-1, 2), Fraction(1, 3))) == Fraction(5, 6)


def _seeded_poly(B, rng):
    """A polynomial of 0-4 coefficients, some of them B.zero itself and some
    an equal zero that is another object."""
    def coeff():
        roll = rng.random()
        if roll < 0.2:
            return B.zero
        if roll < 0.3:
            return B.scale(Fraction(0), B.one)
        den = rng.randint(1, 6)
        q = Fraction(rng.randint(-3 * den, 3 * den), den)
        return (q, Fraction(rng.randint(-6, 6), den)) if B is DUAL else q
    return tuple(coeff() for _ in range(rng.randint(0, 4)))


@pytest.mark.parametrize("base", [RATIONAL, DUAL], ids=lambda B: B.name)
def test_polynomial_target_is_a_commutative_normed_algebra(base):
    P = PolyTarget(base)
    rng = random.Random(f"poly:{base.name}")
    assert P.one == (base.one,) and P.zero == () and P.norm(P.one) == 1
    assert P.norm(P.zero) == 0
    for _ in range(300):
        p, q, r = (_seeded_poly(base, rng) for _ in range(3))
        assert P.add(p, q) == P.add(q, p)
        assert P.mul(p, q) == P.mul(q, p)
        assert P.add(P.add(p, q), r) == P.add(p, P.add(q, r))
        assert P.mul(P.mul(p, q), r) == P.mul(p, P.mul(q, r))
        assert P.mul(p, P.add(q, r)) == P.add(P.mul(p, q), P.mul(p, r))
        assert P.add(P.zero, p) == p == P.add(p, P.zero)
        assert P.mul(P.zero, p) == P.zero == P.mul(p, P.zero)
        assert P.mul(P.one, p) == p == P.mul(p, P.one)
        assert P.scale(-1, P.add(p, q)) == P.add(P.scale(-1, p), P.scale(-1, q))
        assert P.at_one(P.mul(p, q)) == base.mul(P.at_one(p), P.at_one(q))
        assert P.at_one(P.add(p, q)) == base.add(P.at_one(p), P.at_one(q))
        assert P.norm(P.mul(p, q)) <= P.norm(p) * P.norm(q)
        assert P.norm(P.add(p, q)) <= P.norm(p) + P.norm(q)
    def c(q):
        return base.scale(q, base.one)
    assert P.add((c(1), c(2)), (c(3),)) == (c(4), c(2))
    assert P.mul((c(1), c(1)), (c(1), c(-1))) == (c(1), c(0), c(-1))
    assert P.at_one((c(1), c(Fraction(1, 2)), c(3))) == c(Fraction(9, 2))


def test_polynomial_product_skips_zero_coefficients():
    # the flow solver's gamma vanishes at t = 0: its zero coefficients must
    # cost no coefficient products
    class Counting(RationalTarget):
        products = 0

        def mul(self, a, b):
            self.products += 1
            return a * b

    base = Counting()
    P = PolyTarget(base)
    assert P.mul((0, 0, 2), (0, Fraction(1, 3), 0)) == (0, 0, 0, Fraction(2, 3), 0)
    assert base.products == 1


def test_linf_norm_on_counit(ck):
    eps = TruncatedCharacter(ck, 6, RATIONAL, {})
    assert linf_norm(eps, builtin("pow"), 1) == 0
    assert linf_norm(eps, builtin("pow"), 1, over="monomials") == 1
    with pytest.raises(Refused, match="^over must be 'generators' or 'monomials'$"):
        linf_norm(eps, builtin("pow"), 1, over="words")


def test_a_map_refuses_degrees_past_its_truncation(ck):
    with pytest.raises(Refused, match=r"^generator \[B,B\] exceeds N=2$"):
        TruncatedInfChar(ck, 2, RATIONAL, {ck.generators(3)[0]: 1})
    with pytest.raises(Refused, match="^degree 4 exceeds truncation N=3 for character$"):
        _char(ck, 3, 3).evaluate(ck.basis(4)[0])


def test_linf_norm_refuses_before_it_evaluates(ck):
    phi = _char(ck, 3, 3)
    with pytest.raises(Refused, match="family index must be >= 1, got 0"):
        linf_norm(phi, builtin("anti"), 0)
    assert phi._cache == {}


def test_controlled_witness_small_character(binomial):
    X = binomial.generators(1)[0]
    phi = TruncatedCharacter(binomial, 4, RATIONAL, {X: Fraction(3, 2)})
    w = controlled_witness(phi, builtin("pow"))
    assert w["witness_k"] == 2
    big = TruncatedCharacter(binomial, 4, FLOAT, {X: 0.9})
    assert controlled_witness(big, builtin("anti"))["witness_k"] == 10


def test_counterexample_square_escapes_every_weight():
    d = counterexample_demo()
    assert d["status"] == "pass"
    assert d["controlled"] is True
    assert abs(d["square_at_X"] - 1.8) < 1e-12
    assert d["uncontrolled_square"] is True
    assert d["max_weight_at_degree_1"] < 1
    assert all(step["ok"] for step in d["trace"])


def test_multiplicativity_checker_detects_violation(ck):
    table = {m: Fraction(1) for m in ck.basis_upto(4)}
    node = ck.generator_from_text("B")
    square = ck.product(GradedVector.of(node), GradedVector.of(node))
    table[next(iter(square.terms))] = Fraction(3)
    broken = TableMap(ck, RATIONAL, table)
    ok, witness = check_multiplicative(broken, [(node, node)])
    assert not ok
    assert witness == "B . B"
