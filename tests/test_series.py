"""Tree-indexed, partitioned, and word-indexed series against symbolic
Taylor oracles and closed-form flows."""

import random
from fractions import Fraction
from math import cos, e, exp, factorial, isclose, log2, sin

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.characters import RATIONAL, TruncatedInfChar, exp_infchar
from hopfchar.fields import (ColouredPolySystem, Poly, PolyMap,
                             PolyVectorField, WordSystem)
from hopfchar.series import (bseries_order_terms, exact_flow_character,
                             exact_flow_coefficient, partial_sums,
                             pseries_order_terms, wordseries_order_terms)
from hopfchar import series
from hopfchar.instances import instance_by_name
from hopfchar.trees import parse_tree, trees_of_order
from hopfchar.words import all_words
from oracles import (automorphism_count, bseries_terms_by_recursion,
                     flow_taylor_coefficients, plain_coloured_differential,
                     plain_differential, pseries_terms_by_recursion, sigma,
                     word_series_by_jacobian)


def _linear_field():
    # y' = y
    return PolyVectorField([Poly.variable(1, 0)])


def _square_field():
    # y' = y^2, flow 1/(1/y0 - t)
    return PolyVectorField([Poly(1, {(2,): 1})])


def _exponents(dim, max_deg):
    exps = []

    def rec(prefix, left):
        if len(prefix) == dim:
            exps.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    for total in range(max_deg + 1):
        rec([], total)
    return exps


def _seeded_field(dim, seed, max_deg=2):
    rng = random.Random(seed)
    comps = []
    for _ in range(dim):
        terms = {}
        for ex in _exponents(dim, max_deg):
            c = rng.randint(-2, 2)
            if c:
                terms[ex] = Fraction(c, rng.randint(1, 3))
        comps.append(Poly(dim, terms))
    return PolyVectorField(comps)


def _dense_comps(dim, nvars, max_deg):
    # every monomial of degree <= max_deg, with a positive coefficient: at a
    # positive point every derivative, and so every F(t), is positive
    return [Poly(nvars, {ex: Fraction(1, 1 + i + sum(ex)) for ex in _exponents(nvars, max_deg)})
            for i in range(dim)]


def _dense_field(dim, max_deg):
    return PolyVectorField(_dense_comps(dim, dim, max_deg))


def _dense_system(max_deg):
    return ColouredPolySystem(PolyMap(2, _dense_comps(1, 2, max_deg)),
                              PolyMap(2, _dense_comps(1, 2, max_deg)))


def _pendulum_system():
    # separable: p' = -q + q^3/6 depends on q only, q' = 2p on p only
    f = PolyMap(2, [Poly(2, {(0, 1): -1, (0, 3): Fraction(1, 6)})])
    g = PolyMap(2, [Poly(2, {(1, 0): 2})])
    return ColouredPolySystem(f, g)


def _rest_point_system():
    # p' = pq - 1 and q' = p - q^2 both vanish at p = q = 1
    f = PolyMap(2, [Poly(2, {(1, 1): 1, (0, 0): -1})])
    g = PolyMap(2, [Poly(2, {(1, 0): 1, (0, 2): -1})])
    return ColouredPolySystem(f, g)


def _flat_field(system):
    # the field on R^{2d} driving (p, q) jointly
    return PolyVectorField(system.f.comps + system.g.comps)


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


def _differential(f, t, y):
    """F(t)(y) from the live pass: the order-|t| term with a(t) = sigma(t) on
    t alone, the zero vector when t is not live."""
    return bseries_order_terms(lambda s: sigma(s) if s == t else 0, f, y, t.order)[-1]


def test_elementary_differential_linear_field_chains_only():
    f = _linear_field()
    y = (Fraction(3, 2),)
    chain = "B"
    for _ in range(5):
        assert _differential(f, parse_tree(chain), y) == y
        chain = f"[{chain}]"
    # any branching kills the value: f'' = 0
    assert _differential(f, parse_tree("[B,B]"), y) == (0,)
    assert _differential(f, parse_tree("[[B],B]"), y) == (0,)


def test_elementary_differential_square_field_values():
    f = _square_field()
    y = (1,)
    assert _differential(f, parse_tree("B"), y) == (1,)
    assert _differential(f, parse_tree("[B]"), y) == (2,)
    assert _differential(f, parse_tree("[B,B]"), y) == (2,)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=3))
def test_elementary_differential_scales_by_order(n, c):
    # F is |t|-linear in the field
    f = _square_field()
    scaled = PolyVectorField([p.scale(c) for p in f.comps])
    y = (Fraction(1, 2),)
    for t in trees_of_order(n):
        assert _differential(scaled, t, y) == tuple(
            c ** t.order * v for v in _differential(f, t, y)
        )


def _seeded_tree_coefficients(trees_by_order, seed):
    # about one tree in seven gets a zero coefficient and is skipped
    rng = random.Random(seed)
    return {t: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for trees in trees_by_order for t in trees}.__getitem__


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


def _built_tree_count(differential, degree_of, trees_by_order) -> int:
    """The non-leaf trees the live pass differentiates: at most as many
    children as the root map's degree, and every child's F nonzero."""
    return sum(1 for trees in trees_by_order for t in trees
               if t.children and len(t.children) <= degree_of(t.colour)
               and all(any(differential(c)) for c in t.children))


def _degree(fmap):
    return max(p.degree() for p in fmap.comps)


def test_series_pass_differentiates_once_per_distinct_tree(monkeypatch):
    calls = _count_derivatives(monkeypatch)
    fields = [(_seeded_field(2, 3), (1, 2), False),
              (_flat_field(_rest_point_system()), (1, 1), False),
              (_dense_field(1, 7), (1,), True)]
    for f, y, dense in fields:
        trees_by_order = [trees_of_order(n) for n in range(2, 8)]
        built = _built_tree_count(lambda t: plain_differential(f, t, y),
                                  lambda c: _degree(f), trees_by_order)
        all_trees = sum(len(trees) for trees in trees_by_order)
        assert built == all_trees if dense else built < all_trees
        calls.clear()
        bseries_order_terms(exact_flow_coefficient, f, y, 7)
        assert len(calls) == built
    systems = [(_seeded_partitioned_system(3), (1, 2), (3, 4), 6, False),
               (_pendulum_system(), (Fraction(1, 2),), (Fraction(-2, 3),), 6, False),
               (_dense_system(5), (1,), (2,), 5, True)]
    for system, p, q, order, dense in systems:
        point = p + q
        trees_by_order = [trees_of_order(n, colours=2) for n in range(2, order + 1)]
        maps = (system.f, system.g)
        built = _built_tree_count(lambda t: plain_coloured_differential(system, t, point),
                                  lambda c: _degree(maps[c]), trees_by_order)
        all_trees = sum(len(trees) for trees in trees_by_order)
        assert built == all_trees if dense else built < all_trees
        calls.clear()
        pseries_order_terms(exact_flow_coefficient, system, p, q, order)
        assert len(calls) == built


def _partial_coefficients(trees_by_order):
    # the exact-flow values on the trees of odd order and the chains only
    partial = {t: exact_flow_coefficient(t) for trees in trees_by_order for t in trees
               if t.order % 2 or len(t.children) == 1}
    return lambda t: partial.get(t, 0)


_B_CASES = {
    "dense": (_dense_field(2, 6), (Fraction(1, 2), Fraction(2, 3))),
    "pendulum": (_flat_field(_pendulum_system()), (Fraction(1, 2), Fraction(-2, 3))),
    "zero-field": (PolyVectorField([Poly.zero(2), Poly.zero(2)]), (1, 2)),
    "rest-point": (_flat_field(_rest_point_system()), (1, 1)),
}


@pytest.mark.parametrize("case", sorted(_B_CASES))
@pytest.mark.parametrize("coefficients", ["seeded", "partial", "exact-flow"])
def test_bseries_live_pass_matches_recursion(case, coefficients):
    f, y = _B_CASES[case]
    trees_by_order = [trees_of_order(n) for n in range(1, 7)]
    a = {"seeded": _seeded_tree_coefficients(trees_by_order, 5),
         "partial": _partial_coefficients(trees_by_order),
         "exact-flow": exact_flow_character(6).__getitem__}[coefficients]
    terms = bseries_order_terms(a, f, y, 6)
    assert terms == bseries_terms_by_recursion(a, f, y, trees_by_order)
    if coefficients == "exact-flow":
        assert bseries_order_terms(exact_flow_coefficient, f, y, 6) == terms
    if case in ("zero-field", "rest-point"):
        assert all(not any(term) for term in terms)


_P_CASES = {
    "dense": (_dense_system(5), (Fraction(1, 2),), (Fraction(2, 3),)),
    "pendulum": (_pendulum_system(), (Fraction(1, 2),), (Fraction(-2, 3),)),
    "zero-field": (ColouredPolySystem(PolyMap(2, [Poly.zero(2)]), PolyMap(2, [Poly.zero(2)])),
                   (1,), (2,)),
    "rest-point": (_rest_point_system(), (1,), (1,)),
}


@pytest.mark.parametrize("case", sorted(_P_CASES))
@pytest.mark.parametrize("coefficients", ["seeded", "partial", "exact-flow"])
def test_pseries_live_pass_matches_recursion(case, coefficients):
    system, p, q = _P_CASES[case]
    trees_by_order = [trees_of_order(n, colours=2) for n in range(1, 6)]
    a = {"seeded": _seeded_tree_coefficients(trees_by_order, 5),
         "partial": _partial_coefficients(trees_by_order),
         "exact-flow": exact_flow_character(5, colours=2).__getitem__}[coefficients]
    terms = pseries_order_terms(a, system, p, q, 5)
    assert terms == pseries_terms_by_recursion(a, system, p, q, trees_by_order)
    if coefficients == "exact-flow":
        assert pseries_order_terms(exact_flow_coefficient, system, p, q, 5) == terms
    if case in ("zero-field", "rest-point"):
        assert all(not any(term) for term in terms)


def _float_coefficients(trees_by_order):
    return {t: 1 / (3 + k)
            for k, t in enumerate(t for trees in trees_by_order for t in trees)}.__getitem__


def test_tree_pass_sums_each_order_in_canonical_tree_order():
    # float coefficients round at every addition, so only the trees_of_order
    # order reproduces a plain sum over all trees (a dead tree adds 0.0)
    f = _seeded_field(2, 4, max_deg=3)
    y = (Fraction(1, 2), Fraction(-2, 3))
    trees_by_order = [trees_of_order(n) for n in range(1, 7)]
    a = _float_coefficients(trees_by_order)
    want = []
    for trees in trees_by_order:
        acc = [0] * f.dim
        for t in trees:
            c = a(t) / automorphism_count(t)
            acc = [u + c * v for u, v in zip(acc, plain_differential(f, t, y))]
        want.append(tuple(acc))
    assert bseries_order_terms(a, f, y, 6) == want

    system = _seeded_partitioned_system(4)
    p, q = (Fraction(1, 3), Fraction(-1)), (Fraction(2), Fraction(1, 2))
    trees_by_order = [trees_of_order(n, colours=2) for n in range(1, 6)]
    a = _float_coefficients(trees_by_order)
    want = []
    for trees in trees_by_order:
        acc = ([0] * system.dim, [0] * system.dim)
        for t in trees:
            c = a(t) / automorphism_count(t)
            vec = plain_coloured_differential(system, t, p + q)
            acc[t.colour][:] = [u + c * v for u, v in zip(acc[t.colour], vec)]
        want.append(tuple(acc[0] + acc[1]))
    assert pseries_order_terms(a, system, p, q, 5) == want


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


def test_exact_flow_character_holds_the_trees_up_to_its_order():
    # one colour by default, and no tree past max_order
    for got, colours, N in ((exact_flow_character(4), 1, 4),
                            (exact_flow_character(3, colours=2), 2, 3)):
        assert set(got) == {t for n in range(1, N + 1) for t in trees_of_order(n, colours)}


@pytest.mark.parametrize("name, N, count", [("ck", 6, 37), ("ck2", 4, 72)])
def test_exp_of_the_one_node_character_is_the_exact_flow(name, N, count):
    # two independent paths: the flow solver behind exp, and the tree factorial
    H = instance_by_name(name)
    eta = TruncatedInfChar(H, N, RATIONAL, {g: 1 for g in H.generators(1)})
    phi = exp_infchar(eta)
    generators = H.generators_upto(N)
    assert len(generators) == count
    for g in generators:
        assert phi.evaluate(g) == exact_flow_coefficient(H.tree_of(g.factors[0]))


def test_exact_flow_bseries_matches_symbolic_taylor():
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
        terms = bseries_order_terms(exact_flow_coefficient, f, y0, 6)
        for n in range(1, 7):
            assert tuple(terms[n - 1]) == taylor[n]


def test_partial_sums_of_empty_steps_are_zero():
    # a zero-dimensional step has no component, so its largest is 0
    assert partial_sums([(), ()], ()) == ([(0, ()), (0, ())], ())


def test_bseries_exponential_at_half():
    terms = bseries_order_terms(exact_flow_coefficient, _linear_field(), (1,), 8)
    val = partial_sums(terms, (1,), Fraction(1, 2))[1]
    assert abs(float(val[0]) - exp(0.5)) < 1e-6


def test_bseries_geometric_flow_is_exact_partial_sum():
    h = Fraction(1, 4)
    terms = bseries_order_terms(exact_flow_coefficient, _square_field(), (1,), 6)
    val = partial_sums(terms, (1,), h)[1]
    assert val[0] == sum(h ** n for n in range(7))


def test_measured_convergence_order_near_truncation():
    N = 4
    f = _square_field()
    errs = []
    hs = [Fraction(1, 2 ** j) for j in range(3, 8)]
    terms = bseries_order_terms(exact_flow_coefficient, f, (1,), N)
    for h in hs:
        got = partial_sums(terms, (1,), h)[1][0]
        exact = 1 / (1 - h)
        errs.append(abs(float(exact - got)))
    slopes = [
        (log2(errs[i]) - log2(errs[i + 1])) for i in range(len(errs) - 1)
    ]
    mean_slope = sum(slopes) / len(slopes)
    assert abs(mean_slope - (N + 1)) <= 0.1 * (N + 1)


def _rotation_system():
    # p' = q, q' = -p
    f = PolyMap(2, [Poly.variable(2, 1)])
    g = PolyMap(2, [Poly.variable(2, 0).scale(-1)])
    return ColouredPolySystem(f, g)


def test_pseries_rotation_matches_cosine_taylor():
    sys = _rotation_system()
    h = Fraction(1, 3)
    terms = pseries_order_terms(exact_flow_coefficient, sys, (1,), (0,), 8)
    p, q = partial_sums(terms, (1, 0), h)[1]
    cos_partial = sum((-1) ** (j // 2) * h ** j / factorial(j) for j in range(0, 9, 2))
    sin_partial = sum((-1) ** ((j - 1) // 2) * h ** j / factorial(j) for j in range(1, 9, 2))
    assert p == cos_partial
    assert q == -sin_partial
    assert abs(float(p) - cos(1 / 3)) < 1e-8
    assert abs(float(q) + sin(1 / 3)) < 1e-8


def test_coloured_elementary_differential_roots():
    sys = _rotation_system()
    p, q = (Fraction(1, 2),), (Fraction(1, 3),)

    def differential(t):
        # the root colour's block of the order-|t| term, a(t) = sigma(t) on t alone
        term = pseries_order_terms(lambda s: sigma(s) if s == t else 0, sys, p, q,
                                   t.order)[-1]
        return term[t.colour * sys.dim:(t.colour + 1) * sys.dim]

    white = parse_tree("B:0", coloured=True)
    black = parse_tree("B:1", coloured=True)
    assert differential(white) == (Fraction(1, 3),)
    assert differential(black) == (Fraction(-1, 2),)
    # child colour selects the p or q derivative slot
    wb = parse_tree("[B:1]:0", coloured=True)
    assert differential(wb) == (Fraction(-1, 2),)


def _single_letter_system():
    return WordSystem({"a": _square_field()})


def _word_value(sys, w, x):
    """f_w(x) from the word pass: the length-|w| term with delta = 1 on w alone."""
    return wordseries_order_terms(lambda u: int(u == w), sys, x, len(w))[-1]


def test_word_basis_matches_taylor_derivatives():
    sys = _single_letter_system()
    f = _square_field()
    x = (Fraction(1, 3),)
    g = f
    for n in range(1, 6):
        w = "a" * n
        assert _word_value(sys, w, x) == g.evaluate(x)
        g = g.jacobian_times(f)


def test_word_basis_two_letters():
    fa = PolyVectorField([Poly(1, {(2,): 1})])  # x^2
    fb = PolyVectorField([Poly.variable(1, 0)])  # x
    sys = WordSystem({"a": fa, "b": fb})
    x = (Fraction(3),)
    # f_{ba} = (D f_a) f_b = 2x * x
    assert _word_value(sys, "ba", x) == (18,)
    # f_{ab} = (D f_b) f_a = x^2
    assert _word_value(sys, "ab", x) == (9,)


def test_wordseries_single_letter_exponential():
    sys = WordSystem({"a": _linear_field()})
    delta = lambda w: Fraction(1, factorial(len(w)))
    val = partial_sums(wordseries_order_terms(delta, sys, (1,), 8),
                       [delta("") * v for v in (1,)])[1]
    assert abs(float(val[0]) - e) < 1e-4


def test_wordseries_agrees_with_bseries_truncation():
    f = _square_field()
    sys = WordSystem({"a": f})
    delta = lambda w: Fraction(1, factorial(len(w)))
    x = (Fraction(1, 3),)
    got = partial_sums(wordseries_order_terms(delta, sys, x, 6),
                       [delta("") * v for v in x])[1]
    want = partial_sums(bseries_order_terms(exact_flow_coefficient, f, x, 6), x)[1]
    assert got == want


def test_wordseries_dict_coefficients_pick_single_words():
    fa = PolyVectorField([Poly.variable(1, 0)])
    fb = PolyVectorField([Poly.const(1, 1)])
    sys = WordSystem({"a": fa, "b": fb})
    delta = {"": 1, "a": Fraction(2), "ba": Fraction(1, 2)}
    x = (Fraction(5),)
    # f_a = x, f_{ba} = (D f_a) f_b = 1
    terms = wordseries_order_terms(lambda w: delta.get(w, 0), sys, x, 3)
    assert partial_sums(terms, [delta[""] * v for v in x])[1] == (5 + 10 + Fraction(1, 2),)


def _letter_field(dim, seed, degree):
    """A seeded field of this degree; None is the zero field and 0 a nonzero
    constant field, so jets of the words through them vanish, and "half" a
    quadratic field whose last component is zero."""
    if degree == "half":
        comps = _seeded_field(dim, seed, 2).comps
        return PolyVectorField(comps[:-1] + (Poly.zero(dim),))
    if degree is None:
        return PolyVectorField([Poly.zero(dim)] * dim)
    if degree == 0:
        return PolyVectorField([Poly.const(dim, Fraction(seed % 3 + 1, 2 + i))
                                for i in range(dim)])
    return _seeded_field(dim, seed, degree)


# letters, variables, one degree per letter, max length
_WORD_CASES = {
    "a-cubic": ("a", 1, (3,), 7),
    "a-quadratic-2d": ("a", 2, (2,), 7),
    "ab-constant-quadratic": ("ab", 1, (0, 2), 7),
    "ab-linear-quadratic-2d": ("ab", 2, (1, 2), 6),
    "ab-half-zero-linear-2d": ("ab", 2, ("half", 1), 6),
    "ab-quadratic-zero-3d": ("ab", 3, (2, None), 5),
    "abc-constant-linear-cubic-2d": ("abc", 2, (0, 1, 3), 5),
    "abc-linear-quadratic-zero-3d": ("abc", 3, (1, 2, None), 4),
    "abc-cubic-constant-quadratic": ("abc", 1, (3, 0, 2), 5),
}


def _word_case(name, seed):
    letters, dim, degrees, max_length = _WORD_CASES[name]
    sys = WordSystem({c: _letter_field(dim, seed + i, deg)
                      for i, (c, deg) in enumerate(zip(letters, degrees))})
    rng = random.Random(seed)
    x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))
    return sys, x, max_length


def _word_delta(kind, sys, max_length, seed):
    """delta as a formula, as a sparse table, or as a table that is 0 on
    about a third of the words."""
    if kind == "callable":
        return lambda w: Fraction(len(w) + 1, factorial(len(w)) + sum(map(ord, w)) % 7)
    rng = random.Random(seed)
    words = [w for n in range(max_length + 1) for w in all_words(sys.alphabet, n)]
    if kind == "sparse":
        sparse = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                  for w in rng.sample(words, len(words) // 4)}
        return lambda w: sparse.get(w, 0)
    values = {w: Fraction(rng.randint(-1, 1), rng.randint(1, 6)) for w in words}
    return values.__getitem__


@pytest.mark.parametrize("case", sorted(_WORD_CASES))
@pytest.mark.parametrize("kind", ["callable", "sparse", "with-zeros"])
def test_word_jets_match_symbolic_word_maps(case, kind):
    sys, x, max_length = _word_case(case, 3)
    delta = _word_delta(kind, sys, max_length, 3)
    for point in (x, (Fraction(0),) * sys.dim):
        assert series.wordseries_order_terms(delta, sys, point, max_length) \
            == word_series_by_jacobian(delta, sys, point, max_length)


@pytest.mark.parametrize("case", sorted(_WORD_CASES))
def test_word_jets_match_symbolic_word_maps_at_a_float_point(case):
    sys, x, max_length = _word_case(case, 5)
    xf = tuple(float(v) + 0.125 for v in x)
    delta = _word_delta("callable", sys, max_length, 5)
    got = series.wordseries_order_terms(delta, sys, xf, max_length)
    want = word_series_by_jacobian(delta, sys, xf, max_length)
    for term, exact in zip(got, want):
        for u, v in zip(term, exact):
            assert isclose(u, v, rel_tol=1e-9, abs_tol=1e-9)


def test_word_basis_function_matches_symbolic_word_maps():
    sys, x, _ = _word_case("abc-constant-linear-cubic-2d", 6)
    for w in ["c", "bc", "acc", "ca", "cbac"]:
        want = word_series_by_jacobian(lambda u: int(u == w), sys, x, len(w))[-1]
        assert _word_value(sys, w, x) == want
    assert _word_value(sys, "ca", x) == (0, 0)
    with pytest.raises(ValueError):
        sys.field("z")


def test_word_pass_never_builds_symbolic_word_maps(monkeypatch):
    sys, x, _ = _word_case("ab-linear-quadratic-2d", 7)
    delta = _word_delta("callable", sys, 8, 7)
    terms = word_series_by_jacobian(delta, sys, x, 8)
    start = [delta("") * v for v in x]
    want = tuple(v + sum(term[i] for term in terms) for i, v in enumerate(start))
    before = dict(vars(sys))

    def refuse(*args):
        raise AssertionError("symbolic word map built or evaluated")

    monkeypatch.setattr(PolyMap, "jacobian_times", refuse)
    monkeypatch.setattr(Poly, "eval", refuse)
    assert partial_sums(wordseries_order_terms(delta, sys, x, 8), start)[1] == want
    assert vars(sys) == before


def test_word_pass_drops_vanishing_jets(monkeypatch):
    # with two constant letters every f_w with |w| >= 2 is zero: the jets of
    # the four words of length 2 come out zero, and no longer word is extended
    sys = WordSystem({"a": PolyVectorField([Poly.const(1, 2)]),
                      "b": PolyVectorField([Poly.const(1, 3)])})
    calls = []
    extend = series._WordJets._extend
    monkeypatch.setattr(series._WordJets, "_extend",
                        lambda self, *args: calls.append(args) or extend(self, *args))
    read = []
    terms = series.wordseries_order_terms(lambda w: read.append(w) or 1, sys,
                                          (Fraction(1, 2),), 6)
    assert terms == [(5,)] + [(0,)] * 5
    assert len(calls) == 4
    # delta is still read once per word, by length and then in all_words order
    assert read == [w for n in range(1, 7) for w in all_words("ab", n)]


def test_word_pass_drops_jets_that_cancel(monkeypatch):
    # f_a = (y1 y2 / 2, 0) and f_b = (y1 / 3, -y2 / 3): f_ba = Df_a . f_b =
    # (y1 y2 / 6 - y1 y2 / 6, 0) cancels to zero through two non-constant
    # letters, while aa, ab and bb live; a word is extended only from a live
    # suffix, so no word ending in ba is extended
    sys = WordSystem({
        "a": PolyVectorField([Poly(2, {(1, 1): Fraction(1, 2)}), Poly(2)]),
        "b": PolyVectorField([Poly(2, {(1, 0): Fraction(1, 3)}),
                              Poly(2, {(0, 1): Fraction(-1, 3)})])})
    x = (Fraction(1, 2), Fraction(2, 3))
    calls = []
    extend = series._WordJets._extend
    monkeypatch.setattr(series._WordJets, "_extend",
                        lambda self, *args: calls.append(args) or extend(self, *args))
    jets = series._WordJets(sys, x, 5)
    assert jets.jet("ba") is None
    assert all(jets.jet(w) is not None for w in ("aa", "ab", "bb"))
    words = [w for n in range(2, 6) for w in all_words("ab", n)]
    for w in words:
        jets.value(w)
    assert len(calls) == sum(jets.jet(w[1:]) is not None for w in words)
    assert all(jets.value(w) is None for w in words if w.endswith("ba"))
    delta = _word_delta("callable", sys, 5, 0)
    assert series.wordseries_order_terms(delta, sys, x, 5) \
        == word_series_by_jacobian(delta, sys, x, 5)


@pytest.mark.parametrize("case", sorted(_WORD_CASES))
def test_word_terms_at_a_float_point_are_floats(case):
    # the integer jets run only where the point and the fields are rational:
    # a float point keeps the float arithmetic, and every component is a float
    sys, x, max_length = _word_case(case, 5)
    xf = tuple(float(v) + 0.125 for v in x)
    delta = _word_delta("callable", sys, max_length, 5)
    terms = series.wordseries_order_terms(delta, sys, xf, max_length)
    assert all(type(v) is float for term in terms for v in term)


def test_demo_word_series_matches_symbolic_word_maps():
    # demos/04: y' = y, exp-single coefficients, x = 1, length 10
    sys = WordSystem({"a": _linear_field()})
    delta = lambda w: Fraction(1, factorial(len(w)))
    terms = series.wordseries_order_terms(delta, sys, (1,), 10)
    assert terms == word_series_by_jacobian(delta, sys, (1,), 10)
    assert terms == [(Fraction(1, factorial(n)),) for n in range(1, 11)]
