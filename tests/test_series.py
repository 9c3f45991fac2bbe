"""Tree-indexed, partitioned, and word-indexed series against symbolic
Taylor oracles and closed-form flows."""

import random
from fractions import Fraction
from math import cos, e, exp, factorial, log2, sin

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.fields import (ColouredPolySystem, Poly, PolyMap,
                             PolyVectorField, WordSystem)
from hopfchar.series import (bseries_order_terms, bseries_partial,
                             coloured_elementary_differential,
                             convergence_probe, elementary_differential,
                             exact_flow_character, flow_taylor_coefficients,
                             pseries_order_terms, pseries_partial, sigma, word_basis_function,
                             wordseries_partial)
from hopfchar.trees import parse_tree, trees_of_order
from oracles import (automorphism_count, bseries_terms_by_recursion,
                     pseries_terms_by_recursion)


def _linear_field():
    # y' = y
    return PolyVectorField([Poly.variable(1, 0)])


def _square_field():
    # y' = y^2, flow 1/(1/y0 - t)
    return PolyVectorField([Poly(1, {(2,): 1})])


def _seeded_field(dim, seed, max_deg=2):
    rng = random.Random(seed)
    comps = []
    exps = []

    def rec(prefix, left):
        if len(prefix) == dim:
            exps.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    for total in range(max_deg + 1):
        rec([], total)
    for _ in range(dim):
        terms = {}
        for ex in exps:
            c = rng.randint(-2, 2)
            if c:
                terms[ex] = Fraction(c, rng.randint(1, 3))
        comps.append(Poly(dim, terms))
    return PolyVectorField(comps)


def test_sigma_known_values():
    assert sigma(parse_tree("B")) == 1
    assert sigma(parse_tree("[B]")) == 1
    assert sigma(parse_tree("[B,B]")) == 2
    assert sigma(parse_tree("[B,B,B]")) == 6
    assert sigma(parse_tree("[[B],[B]]")) == 2
    assert sigma(parse_tree("[[B,B]]")) == 2
    assert sigma(parse_tree("[B,[B]]")) == 1


def test_sigma_matches_automorphism_oracle():
    for n in range(1, 8):
        for t in trees_of_order(n):
            assert sigma(t) == automorphism_count(t)
    for n in range(1, 6):
        for t in trees_of_order(n, colours=2):
            assert sigma(t) == automorphism_count(t)


def test_elementary_differential_linear_field_chains_only():
    f = _linear_field()
    y = (Fraction(3, 2),)
    chain = "B"
    for _ in range(5):
        assert elementary_differential(f, parse_tree(chain), y) == y
        chain = f"[{chain}]"
    # any branching kills the value: f'' = 0
    assert elementary_differential(f, parse_tree("[B,B]"), y) == (0,)
    assert elementary_differential(f, parse_tree("[[B],B]"), y) == (0,)


def test_elementary_differential_square_field_values():
    f = _square_field()
    y = (1,)
    assert elementary_differential(f, parse_tree("B"), y) == (1,)
    assert elementary_differential(f, parse_tree("[B]"), y) == (2,)
    assert elementary_differential(f, parse_tree("[B,B]"), y) == (2,)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=3))
def test_elementary_differential_scales_by_order(n, c):
    # F is |t|-linear in the field
    f = _square_field()
    scaled = PolyVectorField([p.scale(c) for p in f.comps])
    y = (Fraction(1, 2),)
    for t in trees_of_order(n):
        assert elementary_differential(scaled, t, y) == tuple(
            c ** t.order * v for v in elementary_differential(f, t, y)
        )


def _seeded_tree_coefficients(trees_by_order, seed):
    # about one tree in seven gets a zero coefficient and is skipped
    rng = random.Random(seed)
    return {t: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for trees in trees_by_order for t in trees}


def _seeded_partitioned_system(seed):
    # p, q in R^2: f and g each take two components of a seeded field on R^4
    comps = _seeded_field(4, seed).comps
    return ColouredPolySystem(PolyMap(4, comps[:2]), PolyMap(4, comps[2:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bseries_terms_match_unmemoised_recursion(seed):
    trees_by_order = [trees_of_order(n) for n in range(1, 8)]
    a = _seeded_tree_coefficients(trees_by_order, seed)
    f = _seeded_field(2, seed, max_deg=3)
    y = (Fraction(1, 2), Fraction(-2, 3))
    assert bseries_order_terms(a, f, y, 7) == bseries_terms_by_recursion(a, f, y, trees_by_order)


@pytest.mark.parametrize("seed", [0, 1])
def test_pseries_terms_match_unmemoised_recursion(seed):
    trees_by_order = [trees_of_order(n, colours=2) for n in range(1, 7)]
    a = _seeded_tree_coefficients(trees_by_order, seed)
    system = _seeded_partitioned_system(seed)
    p, q = (Fraction(1, 3), Fraction(-1)), (Fraction(2), Fraction(1, 2))
    assert pseries_order_terms(a, system, p, q, 6) == \
        pseries_terms_by_recursion(a, system, p, q, trees_by_order)


def _count_derivatives(monkeypatch) -> list:
    calls = []
    original = PolyMap.deriv_apply

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PolyMap, "deriv_apply", counting)
    return calls


def test_series_pass_differentiates_once_per_distinct_tree(monkeypatch):
    calls = _count_derivatives(monkeypatch)
    # every exact-flow coefficient is nonzero, so every tree is visited
    bseries_order_terms(exact_flow_character(7), _seeded_field(2, 3), (1, 2), 7)
    assert len(calls) == sum(len(trees_of_order(n)) for n in range(2, 8))
    calls.clear()
    pseries_order_terms(exact_flow_character(6, colours=2), _seeded_partitioned_system(3),
                        (1, 2), (3, 4), 6)
    assert len(calls) == sum(len(trees_of_order(n, colours=2)) for n in range(2, 7))


def test_exact_flow_character_values():
    a = exact_flow_character(4)
    assert a[parse_tree("B")] == 1
    assert a[parse_tree("[B]")] == Fraction(1, 2)
    assert a[parse_tree("[B,B]")] == Fraction(1, 3)
    assert a[parse_tree("[[B]]")] == Fraction(1, 6)
    for t, v in a.items():
        prod = Fraction(1, t.order)
        for child in t.children:
            prod *= a[child]
        assert v == prod


def test_exact_flow_bseries_matches_symbolic_taylor():
    a = exact_flow_character(6)
    cases = [
        (_linear_field(), (1,)),
        (_square_field(), (Fraction(1, 3),)),
        (_seeded_field(1, 41), (Fraction(1, 2),)),
        (_seeded_field(2, 42), (Fraction(1, 2), Fraction(-1, 3))),
        (_seeded_field(2, 43), (1, 1)),
        (_seeded_field(2, 44), (Fraction(2, 5), 0)),
        (_seeded_field(2, 45), (0, Fraction(-3, 4))),
    ]
    for f, y0 in cases:
        taylor = flow_taylor_coefficients(f, y0, 6)
        terms = bseries_order_terms(a, f, y0, 6)
        for n in range(1, 7):
            assert tuple(terms[n - 1]) == taylor[n]


def test_bseries_exponential_at_half():
    val = bseries_partial(exact_flow_character(8), _linear_field(), (1,), Fraction(1, 2), 8)
    assert abs(float(val[0]) - exp(0.5)) < 1e-6


def test_bseries_geometric_flow_is_exact_partial_sum():
    h = Fraction(1, 4)
    val = bseries_partial(exact_flow_character(6), _square_field(), (1,), h, 6)
    assert val[0] == sum(h ** n for n in range(7))


def test_measured_convergence_order_near_truncation():
    N = 4
    a = exact_flow_character(N)
    f = _square_field()
    errs = []
    hs = [Fraction(1, 2 ** j) for j in range(3, 8)]
    for h in hs:
        got = bseries_partial(a, f, (1,), h, N)[0]
        exact = 1 / (1 - h)
        errs.append(abs(float(exact - got)))
    slopes = [
        (log2(errs[i]) - log2(errs[i + 1])) for i in range(len(errs) - 1)
    ]
    mean_slope = sum(slopes) / len(slopes)
    assert abs(mean_slope - (N + 1)) <= 0.1 * (N + 1)


def test_probe_detects_growth_only_at_large_steps():
    # coefficients growing like n! look convergent at tiny h
    fact = lambda t: Fraction(factorial(t.order))
    probe = convergence_probe(
        fact, _linear_field(), (1,), [1, Fraction(1, 4), Fraction(1, 100)], 8
    )
    assert probe["max_order"] == 8
    verdicts = [tb["verdict"] for tb in probe["tables"]]
    assert verdicts == ["not-contracting", "not-contracting", "contracting"]


def test_probe_flags_constant_increments():
    probe = convergence_probe(exact_flow_character(8), _square_field(), (1,), [1, Fraction(1, 2)], 8)
    t1, t2 = probe["tables"]
    assert t1["h"] == 1.0 and t1["verdict"] == "not-contracting"
    assert t2["verdict"] == "contracting"
    rows = t2["rows"]
    assert [r["order"] for r in rows] == list(range(1, 9))
    assert all(rows[i]["increment"] > rows[i + 1]["increment"] for i in range(4, 7))


def test_probe_zero_field_contracts():
    zero = PolyVectorField([Poly.zero(1)])
    probe = convergence_probe(exact_flow_character(6), zero, (1,), [1], 6)
    assert probe["tables"][0]["verdict"] == "contracting"


def _rotation_system():
    # p' = q, q' = -p
    f = PolyMap(2, [Poly.variable(2, 1)])
    g = PolyMap(2, [Poly.variable(2, 0).scale(-1)])
    return ColouredPolySystem(f, g)


def test_pseries_rotation_matches_cosine_taylor():
    sys = _rotation_system()
    a = exact_flow_character(8, colours=2)
    h = Fraction(1, 3)
    (p,), (q,) = pseries_partial(a, sys, (1,), (0,), h, 8)
    cos_partial = sum((-1) ** (j // 2) * h ** j / factorial(j) for j in range(0, 9, 2))
    sin_partial = sum((-1) ** ((j - 1) // 2) * h ** j / factorial(j) for j in range(1, 9, 2))
    assert p == cos_partial
    assert q == -sin_partial
    assert abs(float(p) - cos(1 / 3)) < 1e-8
    assert abs(float(q) + sin(1 / 3)) < 1e-8


def test_coloured_elementary_differential_roots():
    sys = _rotation_system()
    point = (Fraction(1, 2), Fraction(1, 3))
    white = parse_tree("B:0", coloured=True)
    black = parse_tree("B:1", coloured=True)
    assert coloured_elementary_differential(sys, white, point) == (Fraction(1, 3),)
    assert coloured_elementary_differential(sys, black, point) == (Fraction(-1, 2),)
    # child colour selects the p or q derivative slot
    wb = parse_tree("[B:1]:0", coloured=True)
    assert coloured_elementary_differential(sys, wb, point) == (Fraction(-1, 2),)


def _single_letter_system():
    return WordSystem({"a": _square_field()})


def test_word_basis_matches_taylor_derivatives():
    sys = _single_letter_system()
    f = _square_field()
    x = (Fraction(1, 3),)
    g = f
    for n in range(1, 6):
        w = ("a",) * n
        assert word_basis_function(sys, w, x) == g.evaluate(x)
        g = g.jacobian_times(f)


def test_word_basis_two_letters():
    fa = PolyVectorField([Poly(1, {(2,): 1})])  # x^2
    fb = PolyVectorField([Poly.variable(1, 0)])  # x
    sys = WordSystem({"a": fa, "b": fb})
    x = (Fraction(3),)
    # f_{ba} = (D f_a) f_b = 2x * x
    assert word_basis_function(sys, ("b", "a"), x) == (18,)
    # f_{ab} = (D f_b) f_a = x^2
    assert word_basis_function(sys, ("a", "b"), x) == (9,)


def test_wordseries_single_letter_exponential():
    sys = WordSystem({"a": _linear_field()})
    delta = lambda w: Fraction(1, factorial(len(w)))
    val = wordseries_partial(delta, sys, (1,), 8)
    assert abs(float(val[0]) - e) < 1e-4


def test_wordseries_agrees_with_bseries_truncation():
    f = _square_field()
    sys = WordSystem({"a": f})
    delta = lambda w: Fraction(1, factorial(len(w)))
    x = (Fraction(1, 3),)
    got = wordseries_partial(delta, sys, x, 6)
    want = bseries_partial(exact_flow_character(6), f, x, 1, 6)
    assert got == want


def test_wordseries_dict_coefficients_pick_single_words():
    fa = PolyVectorField([Poly.variable(1, 0)])
    fb = PolyVectorField([Poly.const(1, 1)])
    sys = WordSystem({"a": fa, "b": fb})
    delta = {(): 1, ("a",): Fraction(2), ("b", "a"): Fraction(1, 2)}
    x = (Fraction(5),)
    # f_a = x, f_{ba} = (D f_a) f_b = 1
    assert wordseries_partial(delta, sys, x, 3) == (5 + 10 + Fraction(1, 2),)
